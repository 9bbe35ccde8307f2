"""Stepping the synthesized structure: sessions, policies, overrides."""

import pytest
from languages import language_upto

from opacedit import (
    StepError,
    demo_composed,
    desired_observer,
    determinize,
    open_session,
    session_trace,
    step,
    synthesize_modular_edit_structure,
)
from opacedit import Automaton, Event, State


def test_erase_stop_insert_narrative(structure):
    """Erase gamma, pass beta through, then insert gamma and erase alpha."""
    s = open_session(structure, policy="pass-through")
    r1 = step(s, "gamma", overrides=["erz:gamma@gamma"])
    assert r1.emitted == ()
    r2 = step(s, "beta", overrides=["stop@beta"])
    assert r2.emitted == ("beta",)
    r3 = step(s, "alpha", overrides=["ins:gamma@alpha", "erz:alpha@alpha"])
    assert r3.emitted == ("gamma",)
    assert tuple(s.consumed) == ("gamma", "beta", "alpha")
    assert tuple(s.emitted) == ("beta", "gamma")


def test_emitted_string_stays_safe(structure):
    g = demo_composed()
    safe = desired_observer(determinize(g))
    safe_language = language_upto(safe.automaton, 8)
    s = open_session(structure, policy="pass-through")
    for event in ("gamma", "beta", "alpha"):
        step(s, event)
        assert tuple(s.emitted) in safe_language


def test_policies_complete_every_decision(structure):
    for policy in ("pass-through", "lexicographic"):
        s = open_session(structure, policy=policy)
        for event in ("gamma", "beta", "alpha"):
            result = step(s, event)
            assert result.state in structure.supervisor.marked_states


def test_random_policy_is_seed_deterministic(structure):
    runs = []
    for _ in range(2):
        s = open_session(structure, policy="random", seed=99)
        emitted = []
        for event in ("gamma", "beta", "alpha"):
            emitted.append(step(s, event).emitted)
        runs.append(emitted)
    assert runs[0] == runs[1]


def test_unknown_event_rejected(structure):
    s = open_session(structure, policy="pass-through")
    with pytest.raises(StepError, match="unknown event 'nonsense'"):
        step(s, "nonsense")


def test_disabled_event_rejected(structure):
    s = open_session(structure, policy="pass-through")
    step(s, "gamma")
    state_before = s.current
    with pytest.raises(StepError, match="event 'gamma' is not enabled"):
        step(s, "gamma")  # gamma cannot occur twice in a row in the fixture
    assert s.current == state_before


@pytest.mark.parametrize("name", ["stop@beta", "erz:gamma@gamma", "ins:alpha@beta"])
def test_decorated_name_typed_as_event_is_not_enabled(structure, name):
    # declared by a component, so known, but never a genuine arrival
    s = open_session(structure, policy="pass-through")
    with pytest.raises(StepError, match=f"event {name!r} is not enabled"):
        step(s, name)
    assert s.trace == []


def test_invalid_override_rolls_back(structure):
    s = open_session(structure, policy="pass-through")
    state_before = s.current
    with pytest.raises(StepError):
        step(s, "gamma", overrides=["ins:alpha@gamma"])  # alpha is never safe
    assert s.current == state_before
    assert not s.emitted


def test_session_trace_records_decisions(structure):
    s = open_session(structure, policy="pass-through")
    step(s, "gamma", overrides=["erz:gamma@gamma"])
    consumed, emitted, decisions = session_trace(s)
    assert consumed == ("gamma",)
    assert emitted == ()
    assert decisions == ("gamma", "erz:gamma@gamma", "drop:gamma@gamma")


def test_bad_policy_rejected(structure):
    with pytest.raises(StepError):
        open_session(structure, policy="clairvoyant")


def test_empty_structure_rejected():
    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    m = synthesize_modular_edit_structure([exposed], max_erasures=1)
    with pytest.raises(StepError):
        open_session(m)
