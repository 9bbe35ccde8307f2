"""The runtime against a reference copy of its earlier two-pass ``step``.

The reference keeps the override loop and the policy loop apart and reads
the step's decisions back from the trace.  The runtime decides in one loop;
both must give the same results, errors, traces and random draws.
"""

import random
from collections import deque

from opacedit import StepError, demo_pair, open_session, step, synthesize_modular_edit_structure
from opacedit.oracle import RandomSpec, random_pair
from opacedit.runtime import POLICIES, StepResult
from opacedit.transform import DELIVER, DELIVER_ERASED, ERASE, INSERT, STOP, SYSTEM


def _enabled(session, kinds):
    return [item for item in session.outgoing(session.current) if item[1].kind in kinds]


def _fire(session, edge, emitted):
    label, dec, target = edge
    session.trace.append(label)
    session.current = target
    if dec.kind == INSERT:
        emitted.append(dec.base)
    elif dec.kind == DELIVER:
        emitted.append(dec.base)


def _chain_to_decision(session, want):
    start = session.current
    parents = {start: None}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for edge in session.outgoing(here):
            label, dec, target = edge
            if dec.kind in want:
                chain = [edge]
                cursor = here
                while parents[cursor] is not None:
                    prev, via = parents[cursor]
                    chain.insert(0, via)
                    cursor = prev
                return chain
        for edge in session.outgoing(here):
            label, dec, target = edge
            if dec.kind == INSERT and target not in parents:
                parents[target] = (here, edge)
                queue.append(target)
    return None


def _policy_decisions(session, emitted):
    inserted = 0
    while not session.at_y():
        deliveries = _enabled(session, (DELIVER, DELIVER_ERASED))
        if deliveries:
            _fire(session, deliveries[0], emitted)
            continue
        if session.policy == "pass-through":
            chain = _chain_to_decision(session, (STOP,))
            if chain is None:
                chain = _chain_to_decision(session, (ERASE,))
            if chain is None:
                raise StepError(f"no decision available at {session.current}")
            for edge in chain:
                _fire(session, edge, emitted)
            continue
        decisions = _enabled(session, (INSERT, STOP, ERASE))
        if inserted >= session.insertion_budget:
            closers = [d for d in decisions if d[1].kind in (STOP, ERASE)]
            if closers:
                decisions = closers
            else:
                chain = _chain_to_decision(session, (STOP, ERASE))
                if chain is None:
                    raise StepError(f"no decision available at {session.current}")
                for edge in chain:
                    _fire(session, edge, emitted)
                continue
        if not decisions:
            raise StepError(f"no decision available at {session.current}")
        if session.policy == "random":
            edge = session.rng.choice(decisions)
        else:
            edge = decisions[0]
        if edge[1].kind == INSERT:
            inserted += 1
        _fire(session, edge, emitted)


def _reference_step(session, event, overrides=None):
    saved_state, saved_depth = session.current, len(session.trace)
    emitted = []
    try:
        if not session.at_y():
            raise StepError(f"session is mid-decision at {session.current}")
        arrivals = [
            item
            for item in session.outgoing(session.current)
            if item[1].kind == SYSTEM and item[1].base == event
        ]
        if not arrivals:
            if event not in session._decorations:
                raise StepError(f"unknown event {event!r}")
            raise StepError(f"event {event!r} is not enabled at {session.current}")
        _fire(session, arrivals[0], emitted)
        for forced in overrides or ():
            while not session.at_y():
                deliveries = _enabled(session, (DELIVER, DELIVER_ERASED))
                if not deliveries:
                    break
                _fire(session, deliveries[0], emitted)
            if session.at_y():
                raise StepError(f"decision {forced!r} comes after the step completed")
            enabled = {item[0]: item for item in _enabled(session, (INSERT, STOP, ERASE))}
            if forced not in enabled:
                choices = ", ".join(sorted(enabled)) or "none"
                raise StepError(
                    f"decision {forced!r} is not permitted at {session.current} (enabled: {choices})"
                )
            _fire(session, enabled[forced], emitted)
        _policy_decisions(session, emitted)
    except StepError:
        session.current = saved_state
        del session.trace[saved_depth:]
        raise
    session.consumed.append(event)
    session.emitted.extend(emitted)
    decision_kinds = (INSERT, STOP, ERASE)
    decisions = tuple(
        label
        for label in session.trace[saved_depth:]
        if session._decorations[label].kind in decision_kinds
    )
    return StepResult(emitted=tuple(emitted), state=session.current, decisions=decisions)


def _outcome(step_fn, session, event, overrides):
    try:
        return step_fn(session, event, overrides)
    except StepError as exc:
        return f"StepError: {exc}"


def _random_overrides(session, event, rng, labels):
    """Up to three decision names along a random walk after ``event``'s
    arrival, each replaced by an arbitrary supervisor label one time in five."""
    arrivals = [
        item
        for item in session.outgoing(session.current)
        if item[1].kind == SYSTEM and item[1].base == event
    ]
    here = arrivals[0][2] if arrivals else session.current
    names = []
    for _ in range(rng.randint(1, 3)):
        edges = session.outgoing(here)
        deliveries = [e for e in edges if e[1].kind in (DELIVER, DELIVER_ERASED)]
        if deliveries:
            here = deliveries[0][2]
            edges = session.outgoing(here)
        decisions = [e for e in edges if e[1].kind in (INSERT, STOP, ERASE)]
        if not decisions or rng.random() < 0.2:
            names.append(rng.choice(labels))
            continue
        edge = rng.choice(decisions)
        names.append(edge[0])
        here = edge[2]
    return names


def _drive(m, policy, seed, steps=25):
    """Steps on two sessions opened alike, one run by the reference; the
    number of steps that succeeded."""
    ours, theirs = open_session(m, policy, seed), open_session(m, policy, seed)
    rng = random.Random(f"{policy}/{seed}")
    labels = sorted({label for _, label, _ in m.supervisor.transitions}) + ["stop@nonsense"]
    events = sorted({dec.base for dec in ours._decorations.values() if dec.kind == SYSTEM})
    done = 0
    for _ in range(steps):
        genuine = sorted({dec.base for _, dec, _ in ours.outgoing(ours.current) if dec.kind == SYSTEM})
        event = rng.choice(genuine if genuine and rng.random() < 0.9 else events + ["nonsense"])
        overrides = _random_overrides(ours, event, rng, labels) if rng.random() < 0.3 else None
        got = _outcome(step, ours, event, overrides)
        want = _outcome(_reference_step, theirs, event, overrides)
        assert got == want, (policy, seed, event, overrides)
        assert (ours.current, ours.trace, ours.emitted, ours.consumed) == (
            theirs.current,
            theirs.trace,
            theirs.emitted,
            theirs.consumed,
        )
        assert ours.rng.getstate() == theirs.rng.getstate()
        done += isinstance(got, StepResult)
    return done


def test_step_matches_two_pass_reference(ring):
    families = (
        [list(demo_pair())]
        + [list(random_pair(RandomSpec(seed=seed))) for seed in range(20)]
        + [ring(seed) for seed in range(12)]
        + [ring(seed, 4) for seed in range(4)]
    )
    structures = [
        m
        for systems in families
        for k in (0, 1, 2)
        if not (m := synthesize_modular_edit_structure(systems, k)).is_empty()
    ]
    assert len(structures) >= 45
    succeeded = sum(
        _drive(m, policy, seed) for m in structures for policy in POLICIES for seed in range(3)
    )
    assert succeeded >= len(structures) * len(POLICIES) * 3 * 10
