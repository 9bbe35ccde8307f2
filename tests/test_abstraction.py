"""Opacity-preserving abstraction: partitions, quotients, the bundle."""

from hypothesis import given, settings
from hypothesis import strategies as st
from languages import language_upto

from opacedit import (
    Automaton,
    Event,
    RandomSpec,
    State,
    TAU,
    abstract_component,
    bisimulation_partition,
    determinize,
    opaque_bisimulation_partition,
    opaque_observation_equivalence_partition,
    quotient,
    random_system,
)


def blocks_as_sets(partition):
    return {frozenset(block) for block in partition.blocks}


def test_g1_opaque_observation_equivalence(g1):
    part = opaque_observation_equivalence_partition(g1)
    assert blocks_as_sets(part) == {
        frozenset({"q0"}),
        frozenset({"q1", "q2"}),
        frozenset({"q3"}),
    }


def test_g1_quotient_has_three_states(g1):
    part = opaque_observation_equivalence_partition(g1)
    q = quotient(g1, part)
    assert len(q.states) == 3
    assert language_upto(q, 4) == language_upto(g1, 4)


def test_secret_never_merges_with_non_secret():
    # two states with identical behaviour but different secrecy stay apart
    g = Automaton(
        name="split",
        events=(Event("a"),),
        states=(
            State("s0", initial=True),
            State("s1", secret=True),
            State("s2"),
        ),
        transitions=(("s0", "a", "s1"), ("s0", "a", "s2")),
    )
    part = opaque_observation_equivalence_partition(g)
    index = part.block_index
    assert index["s1"] != index["s2"]


def test_tau_successors_collapse():
    # a tau move to an equivalent continuation merges the two states
    g = Automaton(
        name="collapse",
        events=(Event("a"),),
        states=(State("s0", initial=True), State("s1"), State("s2")),
        transitions=(("s0", TAU, "s1"), ("s0", "a", "s2"), ("s1", "a", "s2")),
    )
    part = opaque_observation_equivalence_partition(g)
    index = part.block_index
    assert index["s0"] == index["s1"]


def test_bundle_desired_observer_drops_unsafe_estimates(g1):
    bundle = abstract_component(g1)
    kept = {st.name for st in bundle.h_obd.automaton.states}
    assert kept <= {st.name for st in bundle.h_ob.automaton.states}
    assert not bundle.h_obd.automaton.secret_states


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_abstraction_preserves_observable_language(seed):
    g = random_system(RandomSpec(seed=seed, max_states=5, alphabet_size=3))
    part = opaque_observation_equivalence_partition(g)
    q = quotient(g, part)
    assert language_upto(q, 4) == language_upto(g, 4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_opaque_bisimulation_never_mixes_secret_and_safe_estimates(seed):
    # why an observer state's secret flag is exact on h_ob
    bundle = abstract_component(random_system(RandomSpec(seed=seed, max_states=5, alphabet_size=3)))
    observer = determinize(bundle.abstracted)
    secret = observer.automaton.secret_states
    for block in opaque_bisimulation_partition(observer).blocks:
        assert block <= secret or not block & secret


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bisimulation_is_coarser_than_identity(seed):
    g = random_system(RandomSpec(seed=seed, max_states=5, alphabet_size=3))
    part = bisimulation_partition(g)
    assert sum(len(b) for b in part.blocks) == len(g.states)
