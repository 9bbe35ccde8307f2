"""Randomized equivalence oracles and their discriminative power."""

import dataclasses
import json

import pytest

import opacedit.oracle as oracle
from opacedit import (
    Automaton,
    Event,
    RandomSpec,
    State,
    StepError,
    build_constraint_automaton,
    check_desired_observer_sync,
    check_modular_inclusion,
    check_observer_sync,
    check_private_safety,
    check_supervisor_equals_aes,
    check_tpo_abstraction,
    demo_composed,
    demo_g1,
    demo_pair,
    largest_tpo,
    open_session,
    product_plant,
    prune_to_aes,
    random_pair,
    random_system,
    run_suite,
    step,
    supremal_controllable_nonblocking,
    synthesize_modular_edit_structure,
    transform_monolithic,
)
from opacedit.abstraction import abstract_component
from opacedit.oracle import _aes_canonical, _supervisor_canonical, tpo_bisimilar
from opacedit.tpo import W
from opacedit.transform import decoration_table


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
    ok, trace = check_modular_inclusion(list(demo_pair()))
    assert ok
    assert trace == ()


def _without_transition(t, i):
    """``t`` with its ``i``-th transition dropped."""
    return t._replace(transitions=t.transitions[:i] + t.transitions[i + 1 :])


def test_tpo_bisimilar_flags_a_dropped_transition():
    t = largest_tpo(demo_composed())
    assert tpo_bisimilar(t, t)
    assert not tpo_bisimilar(t, _without_transition(t, 0))
    assert not tpo_bisimilar(_without_transition(t, len(t.transitions) - 1), t)


def test_tpo_bisimilar_flags_a_changed_kind():
    # the target keeps its outgoing moves; only its kind differs
    t = largest_tpo(demo_composed())
    target = t.transitions[0][3]
    states = list(t.states)
    states[target] = (W, *states[target][1:])
    assert not tpo_bisimilar(t, t._replace(states=states))


def test_supervisor_canonical_differs_from_an_aes_at_another_bound():
    t = largest_tpo(demo_composed())
    encoded = transform_monolithic(t)
    plant = product_plant([encoded], build_constraint_automaton(1, [encoded]))
    supervisor = _supervisor_canonical(supremal_controllable_nonblocking(plant.automaton), encoded.decorations)
    assert supervisor == _aes_canonical(prune_to_aes(t, 1))
    other = prune_to_aes(t, 2)
    assert other.states
    assert supervisor != _aes_canonical(other)


def test_modular_inclusion_flags_a_missing_monolithic_transition(monkeypatch):
    original = oracle.largest_tpo
    monkeypatch.setattr(oracle, "largest_tpo", lambda g, name="tpo": _without_transition(original(g, name), 0))
    ok, trace = check_modular_inclusion(list(demo_pair()))
    assert not ok
    assert trace


def test_private_safety_on_fixture():
    systems = list(demo_pair())
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    report = check_private_safety(m, systems)
    assert not report.violations
    assert not report.empty
    assert report.keys_checked > 0
    assert report.steps_checked > 0


@pytest.mark.parametrize("size, floor", [(3, 8), (4, 7)])
def test_private_safety_on_rings(ring, size, floor):
    non_empty = 0
    for seed in range(12):
        systems = ring(seed, size)
        m = synthesize_modular_edit_structure(systems, max_erasures=1)
        report = check_private_safety(m, systems)
        assert report.violations == (), f"ring of {size}, seed {seed}"
        non_empty += not report.empty
    assert non_empty >= floor


def test_private_safety_on_single_components():
    g = demo_g1()
    m = synthesize_modular_edit_structure([g], max_erasures=1)
    report = check_private_safety(m, [g])
    assert report.violations == ()
    assert not report.empty
    non_empty = 0
    for seed in range(20):
        g = random_system(RandomSpec(seed=seed))
        m = synthesize_modular_edit_structure([g], max_erasures=1)
        report = check_private_safety(m, [g])
        assert report.violations == (), f"seed {seed}"
        non_empty += not report.empty
    assert non_empty >= 14


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
        report = check_private_safety(m, systems)
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
    report = check_private_safety(rigged, systems)
    assert report.violations


def _hand_built_structure(edges, max_erasures=1):
    """The demo pair's structure with its supervisor replaced by ``edges``,
    which may use only events the components declare; ``y`` is the one
    initial and marked state."""
    systems = list(demo_pair())
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    table = decoration_table(m.components)
    names = list(dict.fromkeys(name for src, _, dst in edges for name in (src, dst)))
    supervisor = Automaton(
        name="hand-built",
        events=tuple(table[label].event() for label in sorted({label for _, label, _ in edges})),
        states=tuple(State(name, initial=name == "y", marked=name == "y") for name in names),
        transitions=tuple(edges),
    )
    return dataclasses.replace(m, supervisor=supervisor, max_erasures=max_erasures), systems


_PASS_BETA = [("y", "beta", "zb"), ("zb", "stop@beta", "wb"), ("wb", "out:beta@beta", "y")]


def test_private_safety_flags_unsafe_outputs_and_stranded_sessions():
    # gamma is answered with "alpha gamma", which leaves the safe language, and
    # alpha is never enabled, so a string ending in alpha has no decision chain
    m, systems = _hand_built_structure(
        [
            ("y", "gamma", "z"),
            ("z", "ins:alpha@gamma", "z2"),
            ("z2", "stop@gamma", "w"),
            ("w", "out:gamma@gamma", "y"),
            *_PASS_BETA,
        ]
    )
    violations = check_private_safety(m, systems).violations
    # each message names the shortest genuine string that reaches its key
    assert "unsafe output alpha.gamma after gamma at y" in violations
    assert "unsafe session output alpha.gamma after gamma" in violations
    assert "no admissible decision chain after beta.gamma.alpha" in violations
    assert "session stranded after beta.gamma.alpha: event 'alpha' is not enabled at y" in violations


def test_private_safety_flags_sessions_over_the_erasure_budget():
    m, systems = _hand_built_structure(
        [("y", "gamma", "z"), ("z", "erz:gamma@gamma", "w"), ("w", "drop:gamma@gamma", "y"), *_PASS_BETA],
        max_erasures=0,
    )
    violations = check_private_safety(m, systems).violations
    assert "erasure budget exceeded after gamma at y" in violations
    assert "session exceeded the erasure budget after gamma" in violations


def test_private_safety_vacuous_on_empty_supervisor():
    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    m = synthesize_modular_edit_structure([exposed], max_erasures=1)
    report = check_private_safety(m, [exposed])
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


# How many instances of each suite at the CI seeds are not trivially true: a
# non-empty supervisor to replay, a non-empty AES to compare, no empty desired
# observer to make the inclusion vacuous.  A generator or spec change that
# lowers a count makes the suite check less.


@pytest.mark.parametrize("seed, floor", [(0, 9), (1, 5), (2, 8)])
def test_private_safety_suite_checks_nonempty_supervisors(seed, floor):
    specs = oracle.suite_specs("private-safety", seed)
    structures = [
        synthesize_modular_edit_structure(list(random_pair(spec)), max_erasures=1) for spec in specs
    ]
    assert len(specs) == 10
    assert sum(not m.is_empty() for m in structures) >= floor


@pytest.mark.parametrize("seed, floor", [(0, 15), (1, 22), (2, 21)])
def test_supervisor_aes_suite_checks_nonempty_aes(seed, floor):
    specs = oracle.suite_specs("supervisor-aes", seed)
    # ``run_suite`` bounds instance i by i % 3 erasures.
    aes = [prune_to_aes(largest_tpo(random_system(spec)), i % 3) for i, spec in enumerate(specs)]
    assert len(specs) == 25
    assert sum(t.initial is not None for t in aes) >= floor


@pytest.mark.parametrize("seed, floor", [(0, 9), (1, 6), (2, 9)])
def test_modular_inclusion_suite_checks_nonvacuous_instances(seed, floor):
    specs = oracle.suite_specs("modular-inclusion", seed)
    observed = [
        not any(abstract_component(g).h_obd.is_empty() for g in random_pair(spec)) for spec in specs
    ]
    assert len(specs) == 10
    assert sum(observed) >= floor
