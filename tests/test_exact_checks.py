"""The library's fixpoint checks against the bounded checks they replaced.

``check_complete``, ``check_modular_inclusion`` and ``check_private_safety``
each walk a finite space to a fixpoint.  The references below are the
earlier bounded forms: completeness over the strings of ``g`` up to a depth,
the pair search cut at a depth, private safety over the genuine strings up
to a depth with one pass-through session per maximal string, and the
path-by-path chain walk that skipped every insertion into a state already
visited in the chain.  The checks must agree with them wherever the bounds
see everything, and must catch what lies beyond them.
"""
import dataclasses
from collections import deque

import pytest
from languages import language_upto

import opacedit.oracle as oracle
from opacedit import (
    EPSILON,
    Automaton,
    Event,
    RandomSpec,
    State,
    check_complete,
    check_modular_inclusion,
    check_private_safety,
    compose_all,
    demo_g1,
    demo_pair,
    desired_observer,
    determinize,
    largest_tpo,
    prune_to_aes,
    random_pair,
    random_system,
    synthesize_modular_edit_structure,
)
from opacedit.oracle import _tpo_edge_table, suite_specs
from opacedit.runtime import StepError, open_session, step
from opacedit.synthesis import encode_components
from opacedit.tpo import ERASE, INSERT, STOP, Y, run_after
from opacedit.transform import DELIVER, DELIVER_ERASED, SYSTEM, decoration_table, run_label


def _bounded_check_complete(t, g, depth):
    """Completeness over the observable strings of ``g`` up to ``depth``."""
    moves = [[] for _ in t.states]
    for src, cls, label, dst in t.transitions:
        moves[src].append((cls, label, dst))
    if any(fields[0] != Y and not moves[pos] for pos, fields in enumerate(t.states)):
        return False
    if t.initial is None:
        return not language_upto(g, depth) - {()}
    segment = {}
    for pos, fields in enumerate(t.states):
        if fields[0] != Y:
            continue
        for _, label, z in moves[pos]:
            seen_z, frontier, targets = set(), [z], set()
            while frontier:
                here = frontier.pop()
                if here in seen_z:
                    continue
                seen_z.add(here)
                for cls, _, nxt in moves[here]:
                    if cls == INSERT:
                        frontier.append(nxt)
                    elif cls in (STOP, ERASE):
                        targets.update(dst for _, _, dst in moves[nxt])
            segment[(pos, label)] = targets
    silent_language = language_upto(g, depth)
    by_prefix = {(): {t.initial}}
    queue = deque([()])
    while queue:
        prefix = queue.popleft()
        ys = by_prefix[prefix]
        extensions = {s[len(prefix)] for s in silent_language if len(s) > len(prefix) and s[: len(prefix)] == prefix}
        for event in extensions:
            nxt = set().union(*(segment.get((y, event), ()) for y in ys))
            if not nxt:
                return False
            extended = prefix + (event,)
            if extended not in by_prefix:
                by_prefix[extended] = nxt
                queue.append(extended)
    return True


def _bounded_modular_inclusion(systems, depth):
    """The pair search of ``check_modular_inclusion`` cut at ``depth`` moves."""
    bundles, components = encode_components(systems)
    if any(bundle.h_obd.is_empty() for bundle in bundles):
        return True, ()
    product = compose_all([comp.automaton for comp in components])
    mono = oracle.largest_tpo(compose_all(systems))
    mono_edges = _tpo_edge_table(mono)
    decorations = decoration_table(components)
    if not product.states or mono.initial is None:
        return True, ()
    start = (product.initial_states[0], mono.initial)
    seen = {start}
    queue = deque([(start, (), 0)])
    while queue:
        (p_state, t_state), trace, used = queue.popleft()
        if used == depth:
            continue
        for label, dst in product.outgoing(p_state):
            target = mono_edges[t_state].get(run_label(decorations[label]))
            if target is None:
                return False, trace + (label,)
            if (dst, target) not in seen:
                seen.add((dst, target))
                queue.append(((dst, target), trace + (label,), used + 1))
    return True, ()


def _chain_walk(m, systems, depth):
    """The decision-chain findings of ``check_private_safety`` and the number
    of chains, from a walk of every chain path by path that skips an
    insertion into a state the chain has visited since its last
    non-insertion move."""
    composed = compose_all(systems)
    safe = desired_observer(determinize(composed)).automaton
    safe_moves = {(src, label): dst for src, label, dst in safe.transitions}
    safe_initial = safe.initial_states[0] if safe.initial_states else None

    def safe_state(string):
        here = safe_initial
        for symbol in string:
            here = safe_moves.get((here, symbol))
        return here

    decorations = decoration_table(m.components)
    edges = {st.name: [] for st in m.supervisor.states}
    for src, label, dst in m.supervisor.transitions:
        edges[src].append((decorations[label], dst))
    genuine = sorted(language_upto(composed, depth), key=lambda s: (len(s), s))
    violations, chains = set(), 0
    frontier = {(): {(m.supervisor.initial_states[0], (), 0)}}
    for string in genuine[1:]:
        symbol, sources, results = string[-1], frontier.get(string[:-1], set()), set()
        for state, emitted, erased in sources:
            stack = [(state, emitted, erased, frozenset({state}), False)]
            while stack:
                here, out, count, visited, moved = stack.pop()
                for dec, dst in edges[here]:
                    if dec.kind == SYSTEM and not moved:
                        if dec.base == symbol:
                            stack.append((dst, out, count, frozenset({dst}), True))
                    elif not moved:
                        continue
                    elif dec.kind == INSERT and dst not in visited:
                        stack.append((dst, out + (dec.base,), 0, visited | {dst}, True))
                    elif dec.kind in (STOP, ERASE):
                        stack.append((dst, out, count + (dec.kind == ERASE), frozenset({dst}), True))
                    elif dec.kind in (DELIVER, DELIVER_ERASED):
                        chains += 1
                        results.add((dst, out + (dec.base,) if dec.kind == DELIVER else out, count))
        if sources and not results:
            violations.add(f"no admissible decision chain after {'.'.join(string)}")
        for state, emitted, erased in results:
            if erased > m.max_erasures:
                violations.add(f"erasure budget exceeded after {'.'.join(string)} at {state}")
            if safe_state(emitted) is None:
                shown = ".".join(emitted) if emitted else EPSILON
                violations.add(f"unsafe output {shown} after {'.'.join(string)} at {state}")
        if results:
            frontier[string] = results
    return tuple(sorted(violations)), chains


def _bounded_private_safety(m, systems, depth):
    """The violations ``check_private_safety`` finds over the genuine strings
    up to ``depth``: the decision chains of each string walked from the keys
    its prefix reached, and one pass-through session per maximal string."""
    composed = compose_all(systems)
    safe = desired_observer(determinize(composed)).automaton
    safe_moves = {(src, label): dst for src, label, dst in safe.transitions}
    decorations = decoration_table(m.components)
    supervisor = m.supervisor
    edges = {st.name: [] for st in supervisor.states}
    for src, label, dst in supervisor.transitions:
        edges[src].append((decorations[label], dst))
    over = m.max_erasures + 1
    genuine = sorted(language_upto(composed, depth), key=lambda s: (len(s), s))
    violations = []
    safe_initial = safe.initial_states[0] if safe.initial_states else None
    # Per consumed prefix: (supervisor state, safe state, run) -> emitted witness.
    frontier = {(): {(supervisor.initial_states[0], safe_initial, 0): ()}}
    for string in genuine:
        if string == ():
            continue
        symbol = string[-1]
        sources = frontier.get(string[:-1], {})
        results = {}
        reached = [(key + (False,), out) for key, out in sources.items()]
        seen = {key for key, _ in reached}
        for (here, view, run, arrived), out in reached:
            for dec, dst in edges[here]:
                if (dec.kind == SYSTEM) == arrived or (not arrived and dec.base != symbol):
                    continue
                if dec.kind in (INSERT, DELIVER):
                    nxt_out, nxt_view = out + (dec.base,), safe_moves.get((view, dec.base))
                else:
                    nxt_out, nxt_view = out, view
                key = (dst, nxt_view, min(run_after(dec.kind, run), over))
                if dec.kind in (DELIVER, DELIVER_ERASED):
                    results.setdefault(key, nxt_out)
                elif (moved := key + (True,)) not in seen:
                    seen.add(moved)
                    reached.append((moved, nxt_out))
        if sources and not results:
            violations.append(f"no admissible decision chain after {'.'.join(string)}")
        for (state, view, run), emitted in results.items():
            if run > m.max_erasures:
                violations.append(f"erasure budget exceeded after {'.'.join(string)} at {state}")
            if view is None:
                shown = ".".join(emitted) if emitted else EPSILON
                violations.append(f"unsafe output {shown} after {'.'.join(string)} at {state}")
        if results:
            frontier[string] = results
    extended = {s[:-1] for s in genuine if s}
    for string in [s for s in genuine if s and s not in extended]:
        session = open_session(m, policy="pass-through")
        try:
            for symbol in string:
                step(session, symbol)
        except StepError as err:
            violations.append(f"session stranded after {'.'.join(string)}: {err}")
            continue
        view = safe_initial
        for symbol in session.emitted:
            view = safe_moves.get((view, symbol))
        if view is None:
            shown = ".".join(session.emitted) if session.emitted else EPSILON
            violations.append(f"unsafe session output {shown} after {'.'.join(string)}")
        streak = 0
        for label in session.trace:
            streak = run_after(decorations[label].kind, streak)
            if streak > m.max_erasures:
                violations.append(f"session exceeded the erasure budget after {'.'.join(string)}")
    return tuple(sorted(set(violations)))


def _random_tpos():
    """Each largest TPO of ``random_system`` seeds 0-59 and its pruning at
    k = 0, 1 and 2: 240 TPOs with the system each is checked against."""
    for seed in range(60):
        g = random_system(RandomSpec(seed=seed))
        t = largest_tpo(g)
        yield seed, g, t
        for k in (0, 1, 2):
            yield seed, g, prune_to_aes(t, k)


def test_exact_check_complete_agrees_with_the_bounded_reference():
    answers = []
    for seed, g, t in _random_tpos():
        exact = check_complete(t, g)
        assert exact == _bounded_check_complete(t, g, 6), f"seed {seed}"
        answers.append(exact)
    assert len(answers) == 240
    # both answers occur, so the agreement is not vacuous
    assert True in answers and False in answers


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_checks_agree_with_the_references_on_the_suites(seed):
    for spec in suite_specs("modular-inclusion", seed):
        systems = list(random_pair(spec))
        assert check_modular_inclusion(systems) == _bounded_modular_inclusion(systems, 12) == (True, ())
    for spec in suite_specs("private-safety", seed):
        systems = list(random_pair(spec))
        m = synthesize_modular_edit_structure(systems, max_erasures=1)
        if m.is_empty():
            continue
        report = check_private_safety(m, systems)
        violations, chains = _chain_walk(m, systems, 5)
        assert report.violations == violations == _bounded_private_safety(m, systems, 5) == ()
        # the walk reaches each delivery once per key, not once per chain
        assert report.chains_checked <= chains


def test_exact_private_safety_agrees_with_the_bounded_reference_on_the_fixtures(ring):
    # the depths the fixtures' own tests used before the check became exact
    cases = [(ring(seed, size), 4) for size in (3, 4) for seed in range(12)]
    cases += [([demo_g1()], 5)] + [([random_system(RandomSpec(seed=seed))], 3) for seed in range(20)]
    non_empty = 0
    for systems, depth in cases:
        m = synthesize_modular_edit_structure(systems, max_erasures=1)
        report = check_private_safety(m, systems)
        if report.empty:
            continue
        non_empty += 1
        assert report.violations == _bounded_private_safety(m, systems, depth) == ()
    assert non_empty >= 30


def _chain(events, name):
    """A chain over ``events`` in order, one fresh state per event."""
    return Automaton(
        name=name,
        events=tuple(Event(e) for e in sorted(set(events))),
        states=tuple(State(f"s{i}", initial=i == 0) for i in range(len(events) + 1)),
        transitions=tuple((f"s{i}", e, f"s{i + 1}") for i, e in enumerate(events)),
    )


def test_check_complete_sees_a_missing_arrival_beyond_the_old_depth():
    g = _chain("aaaaaab", "a6b")
    t = largest_tpo(g)
    arrivals = [tr for tr in t.transitions if tr[1] == "yz" and tr[2] == "b"]
    assert arrivals
    t = t._replace(transitions=[tr for tr in t.transitions if tr not in arrivals])
    assert _bounded_check_complete(t, g, 6)
    assert not check_complete(t, g)


def test_modular_inclusion_sees_a_missing_transition_beyond_the_old_depth(monkeypatch):
    # each event costs an arrival, a decision and a delivery, so the walk
    # meets the last event's arrival only after 15 moves
    systems = [_chain("aaaaab", "left"), _chain("c", "right")]
    original = oracle.largest_tpo

    def without_last_arrival(g, name="tpo"):
        t = original(g, name)
        last = max(i for i, tr in enumerate(t.transitions) if tr[1] == "yz" and tr[2] == "b")
        return t._replace(transitions=t.transitions[:last] + t.transitions[last + 1 :])

    monkeypatch.setattr(oracle, "largest_tpo", without_last_arrival)
    assert _bounded_modular_inclusion(systems, 12) == (True, ())
    ok, trace = check_modular_inclusion(systems)
    assert not ok
    assert trace[-1] == "b"
    assert len(trace) > 12


def test_private_safety_checks_outputs_round_insertion_cycles():
    systems = list(demo_pair())
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    target = "((({{q1,q2}},{q0}),gamma)|({s0},{{s1,s2}})|K:x1)"
    loop = (target, "ins:gamma@gamma", target)
    assert any(tr[2] == target and tr[1] == "ins:gamma@gamma" for tr in m.supervisor.transitions)
    looped = dataclasses.replace(
        m,
        plant=dataclasses.replace(m.plant, transitions=m.plant.transitions + (loop,)),
        supervisor=dataclasses.replace(m.supervisor, transitions=m.supervisor.transitions + (loop,)),
    )
    assert _chain_walk(looped, systems, 6)[0] == ()
    violations = check_private_safety(looped, systems).violations
    assert len(violations) == 2
    assert all(v.startswith("unsafe output ") for v in violations)


def _rounds(*rounds):
    """A supervisor of Y states ``y*``, one round per ``(source, event,
    target, insertions)``: the arrival, the insertions, a stop and the
    delivery."""
    edges = []
    for src, event, dst, inserted in rounds:
        here = f"{src}{event}"
        edges.append((src, event, here))
        for symbol in inserted:
            edges.append((here, f"ins:{symbol}@{event}", here + symbol))
            here += symbol
        edges += [(here, f"stop@{event}", here + "!"), (here + "!", f"out:{event}@{event}", dst)]
    return edges


def test_private_safety_sees_an_unsafe_output_beyond_the_old_depth():
    # the genuine strings are the prefixes of a^6 and of x.a; the hand-built
    # supervisor passes every event through except the sixth a, which it
    # answers with an inserted x: a^5.x.a is no genuine string
    g = Automaton(
        name="g",
        events=(Event("a"), Event("x")),
        states=tuple(State(f"s{i}", initial=i == 0) for i in range(7)) + (State("t"), State("u")),
        transitions=tuple((f"s{i}", "a", f"s{i + 1}") for i in range(6)) + (("s0", "x", "t"), ("t", "a", "u")),
    )
    m = synthesize_modular_edit_structure([g], max_erasures=1)
    edges = _rounds(
        *((f"y{i}", "a", f"y{i + 1}", "x" if i == 5 else "") for i in range(6)),
        ("y0", "x", "yx", ""),
        ("yx", "a", "yxa", ""),
    )
    table = decoration_table(m.components)
    names = list(dict.fromkeys(name for src, _, dst in edges for name in (src, dst)))
    supervisor = Automaton(
        name="hand-built",
        events=tuple(table[label].event() for label in sorted({label for _, label, _ in edges})),
        states=tuple(State(name, initial=name == "y0", marked=name.startswith("y")) for name in names),
        transitions=tuple(edges),
    )
    rigged = dataclasses.replace(m, supervisor=supervisor)
    assert _bounded_private_safety(rigged, [g], 5) == ()
    assert check_private_safety(rigged, [g]).violations == (
        "unsafe output a.a.a.a.a.x.a after a.a.a.a.a.a at y6",
        "unsafe session output a.a.a.a.a.x.a after a.a.a.a.a.a",
    )
