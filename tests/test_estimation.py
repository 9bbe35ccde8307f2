"""Observers, desired observers and the opacity verdict."""

from opacedit import (
    Automaton,
    Event,
    State,
    TAU,
    check_current_state_opacity,
    desired_observer,
    determinize,
    unobservable_reach,
)

A = "{(q0,s0)}"
B = "{(q0,s1),(q0,s2)}"
C = "{(q1,s0),(q2,s0)}"
D = "{(q1,s1),(q1,s2),(q2,s1),(q2,s2)}"
E = "{(q3,s3)}"


def test_unobservable_reach_follows_tau(g1):
    assert unobservable_reach(g1, {"q1"}) == frozenset({"q1", "q2"})
    assert unobservable_reach(g1, {"q0"}) == frozenset({"q0"})


def test_g1_observer_estimates(g1):
    obs = determinize(g1)
    assert sorted(st.name for st in obs.automaton.states) == ["{q0}", "{q1,q2}", "{q3}"]
    assert obs.initial == "{q0}"
    assert "{q3}" in obs.automaton.secret_states


def test_composed_observer_estimates(composed):
    obs = determinize(composed)
    assert sorted(st.name for st in obs.automaton.states) == sorted([A, B, C, D, E])
    assert obs.initial == A
    assert E in obs.automaton.secret_states
    assert D not in obs.automaton.secret_states


def test_desired_observer_removes_secret_only(composed):
    obs = determinize(composed)
    safe = desired_observer(obs)
    kept = {st.name for st in safe.automaton.states}
    assert E not in kept
    assert kept <= {st.name for st in obs.automaton.states}


def test_opacity_witnesses(g1, g2, composed):
    r1 = check_current_state_opacity(g1)
    assert not r1.opaque
    assert [w for w, _ in r1.witnesses] == [("gamma", "alpha")]

    r2 = check_current_state_opacity(g2)
    assert not r2.opaque
    assert [w for w, _ in r2.witnesses] == [("beta", "alpha")]

    rc = check_current_state_opacity(composed)
    assert not rc.opaque
    assert ("beta", "gamma", "alpha") in [w for w, _ in rc.witnesses]


def test_all_non_secret_mutant_is_opaque(composed):
    mutant = Automaton(
        name="mutant",
        events=composed.events,
        states=tuple(
            State(s.name, initial=s.initial, marked=s.marked, secret=False)
            for s in composed.states
        ),
        transitions=composed.transitions,
    )
    assert check_current_state_opacity(mutant).opaque


def test_opaque_when_secrets_never_alone():
    # a secret state that always shares its estimate with a non-secret one
    g = Automaton(
        name="shadowed",
        events=(Event("a"),),
        states=(
            State("s0", initial=True),
            State("s1", secret=True),
            State("s2"),
        ),
        transitions=(("s0", "a", "s1"), ("s0", "a", "s2")),
    )
    assert check_current_state_opacity(g).opaque


def test_empty_desired_observer_when_initially_exposed():
    g = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    obs = determinize(g)
    assert desired_observer(obs).is_empty()
    assert not check_current_state_opacity(g).opaque


def test_tau_loop_does_not_stall_estimation():
    g = Automaton(
        name="loop",
        events=(Event("a"),),
        states=(State("s0", initial=True), State("s1")),
        transitions=(("s0", TAU, "s1"), ("s1", TAU, "s0"), ("s1", "a", "s1")),
    )
    obs = determinize(g)
    assert obs.initial == "{s0,s1}"
