"""Three-player observers: construction, runs, the erasure bound, pruning."""

import dataclasses
from collections import deque

from opacedit import (
    EPSILON,
    RandomSpec,
    Tpo,
    abstract_component,
    build_largest_tpo,
    check_complete,
    constrain_erasures,
    demo_composed,
    desired_observer,
    determinize,
    erasure_symbol,
    prune_to_aes,
    random_pair,
    random_system,
)

A = "{(q0,s0)}"
B = "{(q0,s1),(q0,s2)}"
C = "{(q1,s0),(q2,s0)}"
D = "{(q1,s1),(q1,s2),(q2,s1),(q2,s2)}"
E = "{(q3,s3)}"


# A state's fields: kind, x_d, x_f, event, action, erased, count.
KIND, X_D, X_F, EVENT, ERASED, COUNT = 0, 1, 2, 3, 5, 6


def y(xd, xf):
    return ("Y", xd, xf, None, None, False, None)


def z(xd, xf, e):
    return ("Z", xd, xf, e, None, False, None)


def w_erased(xd, xf, e):
    return ("W", xd, xf, None, e, True, None)


def w_commit(xd, xf, e):
    return ("W", xd, xf, None, e, False, None)


def _edges(t):
    """Each transition of ``t`` as (source fields, class, label, target fields)."""
    return [(t.states[src], cls, label, t.states[dst]) for src, cls, label, dst in t.transitions]


def _outgoing(t):
    """The (class, label, target fields) moves out of each state of ``t``, by its fields."""
    table = {st: [] for st in t.states}
    for src, cls, label, dst in _edges(t):
        table[src].append((cls, label, dst))
    return table


def test_initial_state_pairs_both_estimates(mono_tpo):
    assert mono_tpo.states[mono_tpo.initial] == y(A, A)


def test_kind_layers_alternate(mono_tpo):
    for src, cls, _, dst in _edges(mono_tpo):
        kinds = (src[KIND], dst[KIND])
        if cls == "yz":
            assert kinds == ("Y", "Z")
        elif cls == "zz":
            assert kinds == ("Z", "Z")
        elif cls in ("zw1", "zw2"):
            assert kinds == ("Z", "W")
        else:
            assert kinds == ("W", "Y")


def test_insertion_moves_intruder_estimate_only(mono_tpo, composed):
    obsd = desired_observer(determinize(composed))
    for src, cls, label, dst in _edges(mono_tpo):
        if cls == "zz":
            assert src[X_F] == dst[X_F]
            assert src[EVENT] == dst[EVENT]
            assert [x for ev, x in obsd.automaton.outgoing(src[X_D]) if ev == label] == [dst[X_D]]


def test_erasure_keeps_intruder_estimate(mono_tpo):
    for src, cls, _, dst in _edges(mono_tpo):
        if cls == "zw2":
            assert dst[ERASED]
            assert src[X_D] == dst[X_D]


def test_commit_and_erased_w_states_are_distinct(mono_tpo):
    names = set(mono_tpo.states)
    assert z(A, C, "beta") in names
    assert w_commit(A, C, "beta") in names
    assert w_erased(A, C, "beta") in names


def test_stop_requires_safe_delivery(mono_tpo):
    # alpha from (A,D) is never safe, so no stop decision exists there
    out = _outgoing(mono_tpo)
    decisions = {cls for cls, _, _ in out[z(A, D, "alpha")]}
    assert "zw1" not in decisions
    assert "zw2" in decisions


def test_largest_tpo_is_complete(mono_tpo, composed):
    assert check_complete(mono_tpo, composed)


def test_largest_tpo_is_complete_on_random_systems():
    # over the exact observers and over the abstracted ones
    non_empty = 0
    for seed in range(20):
        g = random_system(RandomSpec(seed=seed))
        for obsd, obs in _observer_pairs(g):
            t = build_largest_tpo(obsd, obs)
            if t.initial is None:
                continue
            assert check_complete(t, g), f"seed {seed}"
            non_empty += 1
    assert non_empty >= 16


def test_check_complete_rejects_a_deadlocked_z_or_w_state(mono_tpo, composed):
    # an unreachable state with no move is still a deadlock
    for dead in (z(A, C, "alpha"), w_commit(A, C, "alpha")):
        t = mono_tpo._replace(states=[*mono_tpo.states, dead])
        assert not check_complete(t, composed)


def test_check_complete_on_an_empty_tpo(composed):
    empty = Tpo(name="empty", events=composed.events, states=[], transitions=[], initial=None)
    # complete exactly when the system cannot make an observable move
    assert not check_complete(empty, composed)
    assert check_complete(empty, dataclasses.replace(composed, transitions=()))


def test_check_complete_rejects_a_missing_segment(mono_tpo, composed):
    # the first transition is an arrival out of the initial state, the only
    # Y state the empty string reaches
    src, cls, _, _ = mono_tpo.transitions[0]
    assert (src, cls) == (mono_tpo.initial, "yz")
    assert not check_complete(mono_tpo._replace(transitions=mono_tpo.transitions[1:]), composed)


def test_empty_desired_observer_gives_empty_tpo():
    from opacedit import Automaton, Event, State

    g = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    assert t.initial is None
    assert not t.states


def test_run_string_and_edit_projection(mono_tpo):
    # erase gamma, then pass beta through: the system produced gamma.beta
    # while the intruder saw only beta
    path = [
        y(A, A),
        z(A, A, "gamma"),
        w_erased(A, A, "gamma"),
        y(A, C),
        z(A, C, "beta"),
        w_commit(A, C, "beta"),
        y(B, D),
    ]
    out = _outgoing(mono_tpo)
    assert path[0] == mono_tpo.states[mono_tpo.initial]
    steps = []
    for src, dst in zip(path, path[1:]):
        (move,) = [move for move in out[src] if move[2] == dst]
        steps.append(move)
    assert tuple(label for cls, label, _ in steps if cls in ("zz", "wy1")) == ("beta",)
    assert tuple(label for cls, label, _ in steps if cls == "yz") == ("gamma", "beta")


def test_constrain_erasures_counts_reset_on_insert(mono_tpo):
    annotated = constrain_erasures(mono_tpo, 1)
    for src, cls, _, dst in _edges(annotated):
        if cls == "zz":
            assert dst[COUNT] == 0
        elif cls == "zw2":
            assert dst[COUNT] == src[COUNT] + 1
        else:
            assert dst[COUNT] == src[COUNT]
    assert all(st[COUNT] <= 1 for st in annotated.states)


def test_constrain_erasures_zero_budget_blocks_all_erasures(mono_tpo):
    annotated = constrain_erasures(mono_tpo, 0)
    assert all(cls != "zw2" for _, cls, _, _ in annotated.transitions)


def test_prune_to_aes_reference_removals(mono_tpo):
    aes = prune_to_aes(mono_tpo, 1)
    bases = {st[:COUNT] + (None,) for st in aes.states}
    removed = [
        y(A, D),
        y(B, E),
        z(A, D, "alpha"),
        w_erased(A, D, "alpha"),
        y(A, E),
        w_erased(B, D, "alpha"),
        w_erased(A, C, "beta"),
        w_erased(A, B, "gamma"),
    ]
    for name in removed:
        assert name not in bases, name
    assert aes.states
    assert aes.initial is not None


def test_prune_to_aes_drops_decision_cycles_without_exit():
    # with no erasure budget an insertion loop that never reaches a safe
    # delivery is losing even though it always has outgoing decisions
    g = demo_composed()
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    aes = prune_to_aes(t, 0)
    out = _outgoing(aes)
    states = aes.states
    coacc = {s for s in states if s[KIND] == "Y"}
    changed = True
    while changed:
        changed = False
        for n in states:
            if n not in coacc and any(dst in coacc for _, _, dst in out[n]):
                coacc.add(n)
                changed = True
    assert set(states) == coacc


def test_prune_to_aes_unenforceable_returns_empty():
    from opacedit import Automaton, Event, State

    g = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    assert t.initial is None
    assert prune_to_aes(t, 2).initial is None


def _reference_build_largest_tpo(obsd, obs, name="tpo"):
    """The construction as first written: every probe through a table of
    each observer's targets per (state, event) and every state looked up by
    its fields.  The
    differential tests below hold ``build_largest_tpo`` to it."""
    det_d = obsd.automaton
    det_f = obs.automaton
    if obs.initial is None or obsd.initial is None:
        return Tpo(name=name, events=det_f.events, states=[], transitions=[], initial=None)

    def targets_of(det):
        table = {}
        for src, label, dst in det.transitions:
            table.setdefault((src, label), []).append(dst)
        return table

    d_targets, f_targets = targets_of(det_d), targets_of(det_f)

    def d_succ(x_d, event):
        targets = d_targets.get((x_d, event))
        return targets[0] if targets else None

    def f_succ(x_f, event):
        targets = f_targets.get((x_f, event))
        return targets[0] if targets else None

    observable = sorted(ev.name for ev in det_f.events if ev.observable)
    states = {}
    transitions = []
    queue = deque()

    def admit(state):
        known = states.get(state)
        if known is None:
            states[state] = known = state
            queue.append(state)
        return known

    y0 = admit(y(obsd.initial, obs.initial))
    while queue:
        here = queue.popleft()
        kind, x_d, x_f, pending, action, erased, _ = here
        if kind == "Y":
            for event in observable:
                if f_succ(x_f, event) is None:
                    continue
                transitions.append((here, "yz", event, admit(z(x_d, x_f, event))))
        elif kind == "Z":
            for theta in observable:
                nxt_d = d_succ(x_d, theta)
                if nxt_d is None:
                    continue
                transitions.append((here, "zz", theta, admit(z(nxt_d, x_f, pending))))
            if d_succ(x_d, pending) is not None and f_succ(x_f, pending) is not None:
                transitions.append((here, "zw1", EPSILON, admit(w_commit(x_d, x_f, pending))))
            if f_succ(x_f, pending) is not None:
                transitions.append((here, "zw2", erasure_symbol(pending), admit(w_erased(x_d, x_f, pending))))
        else:
            nxt_f = f_succ(x_f, action)
            if erased:
                if nxt_f is not None:
                    transitions.append((here, "wy2", action, admit(y(x_d, nxt_f))))
            else:
                nxt_d = d_succ(x_d, action)
                if nxt_d is not None and nxt_f is not None:
                    transitions.append((here, "wy1", action, admit(y(nxt_d, nxt_f))))
    position = {st: i for i, st in enumerate(states)}
    return Tpo(
        name=name,
        events=det_f.events,
        states=list(states),
        transitions=[(position[src], cls, label, position[dst]) for src, cls, label, dst in transitions],
        initial=position[y0],
    )


def _observer_pairs(g):
    """The (desired, full) observer pairs the pipeline builds TPOs from: the
    exact observers of ``g`` and the observers of its abstraction."""
    obs = determinize(g)
    bundle = abstract_component(g)
    return [(desired_observer(obs), obs), (bundle.h_obd, bundle.h_b)]


def _assert_same_build(systems):
    """Compare the two builds on every observer pair of ``systems``; return
    how many of the TPOs are non-empty."""
    non_empty = 0
    for g in systems:
        for obsd, obs in _observer_pairs(g):
            got = build_largest_tpo(obsd, obs, name=g.name)
            want = _reference_build_largest_tpo(obsd, obs, name=g.name)
            assert got.states == want.states
            assert got.transitions == want.transitions
            assert got.initial == want.initial
            assert got.events == want.events
            assert got == want
            non_empty += got.initial is not None
    return non_empty


def test_build_matches_reference_on_demo_pair(pair, composed):
    assert _assert_same_build([*pair, composed]) == 6


def test_build_matches_reference_on_random_pairs():
    non_empty = sum(
        _assert_same_build(random_pair(RandomSpec(seed=seed, max_states=8, alphabet_size=4)))
        for seed in range(20)
    )
    assert non_empty >= 60


def test_build_matches_reference_on_rings(ring):
    non_empty = sum(_assert_same_build(ring(seed, size)) for seed in range(6) for size in (3, 4))
    assert non_empty >= 70


def test_build_matches_reference_on_random_systems():
    non_empty = sum(_assert_same_build([random_system(RandomSpec(seed=seed))]) for seed in range(40))
    assert non_empty >= 60
