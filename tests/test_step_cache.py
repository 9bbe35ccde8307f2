"""The step cache that the sessions of one structure share.

A ``pass-through`` or ``lexicographic`` step without overrides is answered
from ``ModularEditStructure.runtime_tables.steps`` once it has succeeded.
These tests check that the cache answers exactly what a search would, and
that it changes nothing else: errors, rollback, random draws and steps whose
insertion budget changes.
"""

import random
from dataclasses import replace

import pytest
from test_runtime_reference import _outcome, _reference_step

from opacedit import (
    StepError,
    open_session,
    parse_document,
    serialize_document,
    step,
    synthesize_modular_edit_structure,
)
from opacedit.oracle import RandomSpec, random_pair
from opacedit.runtime import StepResult
from opacedit.transform import SYSTEM

CACHED = ("pass-through", "lexicographic")


@pytest.fixture(scope="module")
def pair_large():
    """The 24-state, 6-letter ``random_pair`` of the benchmark, k = 1."""
    systems = list(random_pair(RandomSpec(seed=2, max_states=24, alphabet_size=6)))
    return synthesize_modular_edit_structure(systems, max_erasures=1)


def _uncached(m):
    """The same structure with no runtime tables built yet."""
    return replace(m)


def _genuine(session):
    return sorted({dec.base for _, dec, _ in session.outgoing(session.current) if dec.kind == SYSTEM})


def _key(session, event):
    return (session.policy, session.insertion_budget, session.current, event)


def _snapshot(session, result):
    """A step's result and where it left the session; a session's last
    snapshot holds its whole trace, emitted string and consumed events."""
    return (result, session.current, len(session.trace), len(session.emitted), len(session.consumed))


def _final(session):
    return (session.current, session.trace, session.emitted, session.consumed)


def _walks(m, policy, seed, sessions=4, steps=60):
    """A seeded walk of genuine events per fresh session, the snapshot after
    each step and each session at its end."""
    rng = random.Random(seed)
    walks, snapshots, finals = [], [], []
    for _ in range(sessions):
        s = open_session(m, policy)
        events = []
        while len(events) < steps and _genuine(s):
            events.append(rng.choice(_genuine(s)))
            snapshots.append(_snapshot(s, step(s, events[-1])))
        walks.append(events)
        finals.append(_final(s))
    return walks, snapshots, finals


def test_second_pass_is_answered_from_cache(pair_large, ring):
    for built in (pair_large, synthesize_modular_edit_structure(ring(0), max_erasures=1)):
        # every step searched afresh on a parsed copy of the document
        parsed = parse_document(serialize_document(built))
        for policy in CACHED:
            m = _uncached(built)
            walks, first, first_finals = _walks(m, policy, seed=7)
            cache = m.runtime_tables.steps
            size = len(cache)
            assert 0 < size < len(first)
            second, searched, finals, searched_finals = [], [], [], []
            for events in walks:
                s, fresh = open_session(m, policy), open_session(parsed, policy)
                for event in events:
                    labels, stored = cache[_key(s, event)]
                    result = step(s, event)
                    assert result is stored
                    assert s.trace[-len(labels):] == list(labels)
                    second.append(_snapshot(s, result))
                    searched.append(_snapshot(fresh, step(fresh, event)))
                    parsed.runtime_tables.steps.clear()
                finals.append(_final(s))
                searched_finals.append(_final(fresh))
            assert len(cache) == size
            assert second == first == searched
            assert finals == first_finals == searched_finals


def _errors_at_start(m, event_overrides):
    """Each ``(event, overrides)`` stepped on a new session at the initial
    state; the error text, and the session afterwards."""
    out = []
    for event, overrides in event_overrides:
        s = open_session(m, "pass-through")
        got = _outcome(step, s, event, overrides)
        out.append((got, s.current, s.trace, s.emitted, s.consumed))
    return out


def test_cached_key_keeps_step_errors(structure):
    warm, cold = _uncached(structure), _uncached(structure)
    s = open_session(warm, "pass-through")
    start, enabled = s.current, _genuine(s)
    cases = [("nonsense", None)]
    for event in enabled:
        decisions = list(step(open_session(warm, "pass-through"), event).decisions)
        assert _key(s, event) in warm.runtime_tables.steps
        cases += [(event, ["stop@nonsense"]), (event, decisions + decisions[-1:])]
    cases += [(event, ["ins:alpha@gamma"]) for event in enabled]  # alpha is never safe
    disabled = {d.base for d in s._decorations.values() if d.kind == SYSTEM} - set(enabled)
    assert disabled
    cases += [(event, None) for event in sorted(disabled)]
    got = _errors_at_start(warm, cases)
    assert got == _errors_at_start(cold, cases)
    for outcome, current, trace, emitted, consumed in got:
        assert outcome.startswith("StepError: ")
        assert (current, trace, emitted, consumed) == (start, [], [], [])
    assert cold.runtime_tables.steps == {}


def test_failed_steps_leave_no_entry(structure):
    m = _uncached(structure)
    mid_decision = next(st.name for st in m.supervisor.states if not st.marked)
    succeeded = set()
    for policy in CACHED:
        s = open_session(m, policy)
        for event in ("nonsense", "stop@beta"):
            with pytest.raises(StepError):
                step(s, event)
        succeeded.add(_key(s, "gamma"))
        step(s, "gamma")
        with pytest.raises(StepError, match="is not enabled"):
            step(s, "gamma")
        s.current = mid_decision
        with pytest.raises(StepError, match="mid-decision"):
            step(s, "gamma")
    assert set(m.runtime_tables.steps) == succeeded


def test_random_steps_bypass_cache(structure, ring):
    for built in (structure, synthesize_modular_edit_structure(ring(0), max_erasures=1)):
        warm, cold = _uncached(built), _uncached(built)
        for policy in CACHED:
            _walks(warm, policy, seed=3)
        filled = dict(warm.runtime_tables.steps)
        for seed in range(4):
            ours, theirs = open_session(warm, "random", seed), open_session(cold, "random", seed)
            rng = random.Random(seed)
            while len(ours.consumed) < 30 and _genuine(ours):
                event = rng.choice(_genuine(ours))
                assert step(ours, event) == step(theirs, event)
                assert (ours.current, ours.trace, ours.emitted) == (theirs.current, theirs.trace, theirs.emitted)
                assert ours.rng.getstate() == theirs.rng.getstate()
        assert warm.runtime_tables.steps == filled
        assert cold.runtime_tables.steps == {}


def test_budget_changes_between_lexicographic_steps_match_reference(pair_large, ring):
    for built in (pair_large, synthesize_modular_edit_structure(ring(0), max_erasures=1)):
        m = _uncached(built)
        budgets = (0, 1, 2, m.runtime_tables.insertion_budget)
        for _ in range(2):  # the second run meets every key cached
            rng = random.Random(11)
            ours = theirs = None
            for _ in range(120):
                if ours is None or not _genuine(ours):
                    ours, theirs = open_session(m, "lexicographic"), open_session(m, "lexicographic")
                ours.insertion_budget = theirs.insertion_budget = rng.choice(budgets)
                event = rng.choice(_genuine(ours))
                got = _outcome(step, ours, event, None)
                assert isinstance(got, StepResult)
                assert got == _outcome(_reference_step, theirs, event, None)
                assert (ours.current, ours.trace, ours.emitted, ours.consumed) == (
                    theirs.current,
                    theirs.trace,
                    theirs.emitted,
                    theirs.consumed,
                )
        # the walk met a state and event whose answer depends on the budget
        answers = {}
        for (_, _, state, event), (_, result) in m.runtime_tables.steps.items():
            answers.setdefault((state, event), set()).add(result)
        assert any(len(results) > 1 for results in answers.values())
