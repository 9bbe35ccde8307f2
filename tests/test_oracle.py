"""Randomized equivalence oracles and their discriminative power."""

import dataclasses
import json

import pytest

from opacedit import (
    Automaton,
    Event,
    RandomSpec,
    State,
    StepError,
    check_desired_observer_sync,
    check_modular_inclusion,
    check_observer_sync,
    check_private_safety,
    check_supervisor_equals_aes,
    check_tpo_abstraction,
    demo_pair,
    open_session,
    random_pair,
    random_system,
    run_suite,
    step,
    synthesize_modular_edit_structure,
)


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(seed=0, max_states=0)
    with pytest.raises(ValueError):
        RandomSpec(seed=0, alphabet_size=0)
    with pytest.raises(ValueError):
        RandomSpec(seed=0, alphabet_size=27)
    with pytest.raises(ValueError):
        RandomSpec(seed=0, tau_density=1.5)


def test_random_system_is_seed_deterministic():
    a = random_system(RandomSpec(seed=42))
    b = random_system(RandomSpec(seed=42))
    assert a == b
    c = random_system(RandomSpec(seed=43))
    assert a != c


def test_random_pair_shares_middle_events():
    left, right = random_pair(RandomSpec(seed=5, alphabet_size=3))
    left_names = {ev.name for ev in left.events}
    right_names = {ev.name for ev in right.events}
    assert left_names & right_names  # at least one shared event
    assert left_names != right_names


def test_observer_sync_holds_on_fixture():
    a, b = demo_pair()
    assert check_observer_sync(a, b)
    assert check_desired_observer_sync(a, b)


def test_observer_sync_fails_with_unobservable_shared_event():
    # with a shared unobservable event the observer of the product is finer
    # than the product of observers, so the oracle must say no
    a = Automaton(
        name="A",
        events=(Event("s", observable=False), Event("a")),
        states=(State("p0", initial=True), State("p1"), State("p2")),
        transitions=(("p0", "s", "p1"), ("p1", "a", "p2")),
    )
    b = Automaton(
        name="B",
        events=(Event("s", observable=False), Event("b")),
        states=(State("r0", initial=True), State("r1"), State("r2")),
        transitions=(("r0", "b", "r1"), ("r1", "s", "r2")),
    )
    assert not check_observer_sync(a, b)


def test_tpo_abstraction_holds_on_sample_seeds():
    for seed in (1, 2, 3, 4, 5):
        assert check_tpo_abstraction(random_system(RandomSpec(seed=seed)))


def test_supervisor_equals_aes_on_sample_seeds():
    for seed in (1, 2, 3):
        g = random_system(RandomSpec(seed=seed))
        for k in (0, 1, 2):
            assert check_supervisor_equals_aes(g, max_erasures=k)


def test_modular_inclusion_on_fixture():
    ok, trace = check_modular_inclusion(list(demo_pair()), depth=10)
    assert ok
    assert trace == ()


def test_private_safety_on_fixture():
    systems = list(demo_pair())
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    report = check_private_safety(m, systems, depth=6)
    assert not report.violations
    assert not report.empty
    assert report.strings_checked > 0
    assert report.sessions_checked > 0


@pytest.mark.parametrize("size, floor", [(3, 8), (4, 7)])
def test_private_safety_on_rings(ring, size, floor):
    non_empty = 0
    for seed in range(12):
        systems = ring(seed, size)
        m = synthesize_modular_edit_structure(systems, max_erasures=1)
        report = check_private_safety(m, systems, depth=4)
        assert report.violations == (), f"ring of {size}, seed {seed}"
        non_empty += not report.empty
    assert non_empty >= floor


def _hidden(g, name):
    events = tuple(dataclasses.replace(ev, observable=False) if ev.name == name else ev for ev in g.events)
    return dataclasses.replace(g, events=events)


def test_private_unobservable_event_stays_private():
    # ``a`` is the left component's private letter; once unobservable the
    # edit function can neither see it nor replay it for the other component
    non_empty = 0
    for seed in range(40):
        left, right = random_pair(RandomSpec(seed=seed, max_states=4, alphabet_size=3))
        systems = [_hidden(left, "a"), right]
        m = synthesize_modular_edit_structure(systems, max_erasures=1)
        report = check_private_safety(m, systems, depth=5)
        assert report.violations == (), f"seed {seed}"
        if report.empty:
            continue
        non_empty += 1
        with pytest.raises(StepError, match="unknown event 'a'"):
            step(open_session(m), "a")
    assert non_empty >= 20


def test_private_safety_flags_unsafe_supervisor():
    # replacing the supervisor with the unpruned plant must trip the oracle:
    # the plant still contains the decision paths synthesis had to remove
    systems = list(demo_pair())
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    rigged = dataclasses.replace(m, supervisor=m.plant)
    report = check_private_safety(rigged, systems, depth=6)
    assert report.violations


def test_private_safety_vacuous_on_empty_supervisor():
    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    m = synthesize_modular_edit_structure([exposed], max_erasures=1)
    report = check_private_safety(m, [exposed], depth=4)
    assert report.empty
    assert not report.violations


def test_run_suite_reproducible():
    first = run_suite("observer-sync", seed=3, count=10)
    second = run_suite("observer-sync", seed=3, count=10)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["passed"] == 10


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonexistent", seed=0)
