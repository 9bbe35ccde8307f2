"""Core automaton operations: validation, composition, quotients, projection."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opacedit import (
    Automaton,
    Event,
    InvalidAutomaton,
    RandomSpec,
    State,
    TAU,
    bisimulation_partition,
    compose_all,
    determinize,
    deterministic_isomorphic,
    language_upto,
    project,
    quotient,
    random_system,
)
from opacedit.oracle import random_pair


def simple(name, events, states, transitions, initial="s0", secret=()):
    return Automaton(
        name=name,
        events=tuple(Event(e) for e in events),
        states=tuple(
            State(s, initial=(s == initial), secret=(s in secret)) for s in states
        ),
        transitions=tuple(transitions),
    )


def test_tau_must_not_be_declared():
    with pytest.raises(InvalidAutomaton):
        Automaton(
            name="bad",
            events=(Event(TAU),),
            states=(State("s0", initial=True),),
            transitions=(),
        )


def test_tau_allowed_on_transitions():
    a = simple("ok", ["a"], ["s0", "s1"], [("s0", TAU, "s1")])
    assert ("s0", TAU, "s1") in a.transitions


def test_duplicate_state_rejected():
    with pytest.raises(InvalidAutomaton):
        Automaton(
            name="bad",
            events=(),
            states=(State("s0", initial=True), State("s0")),
            transitions=(),
        )


def test_undeclared_event_rejected():
    with pytest.raises(InvalidAutomaton):
        simple("bad", ["a"], ["s0"], [("s0", "b", "s0")])


def test_unknown_transition_endpoint_rejected():
    with pytest.raises(InvalidAutomaton):
        simple("bad", ["a"], ["s0"], [("s0", "a", "s9")])


@pytest.mark.parametrize("flag", ["initial", "marked", "secret"])
@pytest.mark.parametrize("value", [1, 0, None, "yes"])
def test_state_flag_must_be_bool(flag, value):
    with pytest.raises(InvalidAutomaton, match="state 's0' has a flag that is not a bool"):
        Automaton(name="bad", events=(), states=(State("s0", **{flag: value}),), transitions=())


@pytest.mark.parametrize("flag", ["observable", "controllable"])
@pytest.mark.parametrize("value", [1, 0, None, "yes"])
def test_event_flag_must_be_bool(flag, value):
    with pytest.raises(InvalidAutomaton, match="event 'a' has a flag that is not a bool"):
        Automaton(name="bad", events=(Event("a", **{flag: value}),), states=(), transitions=())


def test_successors_keep_transition_order():
    a = simple(
        "N",
        ["a", "b"],
        ["s0", "s1", "s2", "s3"],
        [("s0", "a", "s2"), ("s0", "b", "s1"), ("s0", "a", "s0"), ("s1", "a", "s3"), ("s0", "a", "s3")],
    )
    assert a.successors("s0", "a") == ("s2", "s0", "s3")
    assert a.successors("s0", "b") == ("s1",)
    assert a.successors("s2", "a") == ()
    assert not a.is_deterministic


def test_is_deterministic():
    moves = [("s0", "a", "s1"), ("s1", "b", "s0"), ("s1", "a", "s1")]
    assert simple("D", ["a", "b"], ["s0", "s1"], moves).is_deterministic
    assert not simple("R", ["a", "b"], ["s0", "s1"], moves + [("s0", "a", "s0")]).is_deterministic
    assert not simple("R", ["a", "b"], ["s0", "s1"], moves + [("s0", "a", "s1")]).is_deterministic
    assert not simple("T", ["a", "b"], ["s0", "s1"], moves + [("s0", TAU, "s1")]).is_deterministic
    two_initial = Automaton(
        name="I", events=(), states=(State("s0", initial=True), State("s1", initial=True)), transitions=()
    )
    assert not two_initial.is_deterministic


def test_sync_compose_shared_and_private():
    # shared event s must synchronize, private events interleave
    a = simple("A", ["s", "p"], ["s0", "s1"], [("s0", "p", "s0"), ("s0", "s", "s1")])
    b = simple("B", ["s"], ["r0", "r1"], [("r0", "s", "r1")], initial="r0")
    c = compose_all([a, b])
    lang = language_upto(c, 3)
    assert ("s",) in lang
    assert ("p", "s") in lang
    assert ("s", "p") not in lang  # p not possible after s in A
    assert ("s", "s") not in lang


def test_sync_compose_secret_propagates():
    a = simple("A", ["s"], ["s0", "s1"], [("s0", "s", "s1")], secret={"s1"})
    b = simple("B", ["s"], ["r0", "r1"], [("r0", "s", "r1")], initial="r0")
    c = compose_all([a, b])
    assert any(st.secret for st in c.states)
    assert not c.state_map["(s0,r0)"].secret


def test_compose_all_of_one_part_is_that_part():
    a = Automaton(
        name="A",
        events=(Event("x"),),
        states=(State("p0", initial=True), State("p1", secret=True)),
        transitions=(("p0", "x", "p1"),),
    )
    assert compose_all([a]) is a
    renamed = compose_all([a], name="solo")
    assert renamed.name == "solo"
    assert (renamed.events, renamed.states, renamed.transitions) == (a.events, a.states, a.transitions)


def test_compose_all_order_independent_language():
    a = simple("A", ["x", "s"], ["s0", "s1"], [("s0", "x", "s1"), ("s1", "s", "s0")])
    b = simple("B", ["y", "s"], ["r0", "r1"], [("r0", "y", "r1"), ("r1", "s", "r0")])
    c = simple("C", ["s"], ["t0"], [("t0", "s", "t0")])
    left = compose_all([a, b, c])
    right = compose_all([c, b, a])
    assert language_upto(left, 4) == language_upto(right, 4)


# --- differential test of the n-ary product ---------------------------------
#
# ``_pairwise`` and ``_fold`` keep the binary composition that ``compose_all``
# used to left-fold: it walks the outgoing transitions of each side, so it
# shares no code with the event-probing product.  The fold names a product of
# three parts ``((x,y),z)``; the n-ary product names it ``(x,y,z)``.


def _pairwise(a, b):
    shared = {ev.name for ev in a.events} & {ev.name for ev in b.events}
    merged = {ev.name: ev for ev in a.events + b.events}
    index = {(x, y): f"({x},{y})" for x in a.initial_states for y in b.initial_states}
    queue = deque(index)
    transitions = []
    while queue:
        x, y = here = queue.popleft()
        moves = []
        for label, dst in a.outgoing(x):
            if label in shared:
                moves += [(label, (dst, other)) for other in b.successors(y, label)]
            else:
                moves.append((label, (dst, y)))
        moves += [(label, (x, dst)) for label, dst in b.outgoing(y) if label not in shared]
        for label, pair in moves:
            if pair not in index:
                index[pair] = f"({pair[0]},{pair[1]})"
                queue.append(pair)
            transitions.append((index[here], label, index[pair]))
    states = []
    for (x, y), name in index.items():
        sa, sb = a.state_map[x], b.state_map[y]
        states.append(
            State(
                name,
                initial=sa.initial and sb.initial,
                marked=sa.marked and sb.marked,
                secret=sa.secret or sb.secret,
            )
        )
    return Automaton(
        name=f"{a.name}||{b.name}",
        events=tuple(sorted(merged.values(), key=lambda ev: ev.name)),
        states=tuple(states),
        transitions=tuple(transitions),
    )


def _fold(parts):
    result = parts[0]
    for part in parts[1:]:
        result = _pairwise(result, part)
    return result


def _flat(name):
    return "(" + name.replace("(", "").replace(")", "") + ")"


def _marking_every_other_state(g):
    return Automaton(
        name=g.name,
        events=g.events,
        states=tuple(
            State(st.name, st.initial, marked=(i % 2 == 0), secret=st.secret)
            for i, st in enumerate(g.states)
        ),
        transitions=g.transitions,
    )


def _has_tau_and_fan_out(a):
    targets = {}
    for src, label, dst in a.transitions:
        targets.setdefault((src, label), set()).add(dst)
    fans_out = any(len(dsts) > 1 for (_, label), dsts in targets.items() if label != TAU)
    return fans_out and any(label == TAU for _, label in targets)


def _assert_matches_fold(parts):
    got, want = compose_all(parts), _fold(parts)
    assert got.name == want.name
    assert got.events == want.events
    flags = {_flat(st.name): (st.initial, st.marked, st.secret) for st in want.states}
    assert len(flags) == len(want.states)
    assert {st.name: (st.initial, st.marked, st.secret) for st in got.states} == flags
    assert len(got.states) == len(want.states)
    assert set(got.transitions) == {(_flat(s), l, _flat(d)) for s, l, d in want.transitions}
    return got


def test_compose_all_matches_pairwise_fold(ring):
    instances = [list(random_pair(RandomSpec(seed=seed))) for seed in range(40)]
    instances += [ring(seed) for seed in range(40)]
    both = 0
    for parts in instances:
        got = _assert_matches_fold(parts)
        _assert_matches_fold([_marking_every_other_state(g) for g in parts])
        both += _has_tau_and_fan_out(got)
    # Many seeds give trivial products; 17 of these 80 products have both a
    # tau move and an event with more than one target.
    assert both >= 15


def test_quotient_by_bisimulation_preserves_language(composed):
    part = bisimulation_partition(composed)
    q = quotient(composed, part)
    assert language_upto(q, 5) == language_upto(composed, 5)


def test_project_keeps_only_requested_events():
    assert project(("a", "b", "a", "c"), {"a", "c"}) == ("a", "a", "c")
    assert project((), {"a"}) == ()


def test_language_upto_hides_tau(g1):
    assert language_upto(g1, 3) == {(), ("gamma",), ("gamma", "alpha")}


def test_deterministic_isomorphic_detects_renaming(g1):
    obs = determinize(g1).automaton
    assert deterministic_isomorphic(obs, obs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_determinization_preserves_observable_language(seed):
    g = random_system(RandomSpec(seed=seed, max_states=5, alphabet_size=3))
    obs = determinize(g).automaton
    assert language_upto(obs, 4) == language_upto(g, 4)
