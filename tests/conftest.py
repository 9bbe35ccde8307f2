"""Shared fixtures: the two-component reference system and its synthesis,
and a generator of random rings of components."""

import random

import pytest

from opacedit import (
    Automaton,
    Event,
    build_largest_tpo,
    demo_composed,
    demo_g1,
    demo_g2,
    demo_pair,
    desired_observer,
    determinize,
    synthesize_modular_edit_structure,
)
from opacedit.oracle import RandomSpec, random_system


@pytest.fixture
def g1():
    return demo_g1()


@pytest.fixture
def g2():
    return demo_g2()


@pytest.fixture
def pair():
    return list(demo_pair())


@pytest.fixture
def composed():
    return demo_composed()


@pytest.fixture(scope="session")
def structure():
    """Modular edit structure for the reference pair with k=1."""
    return synthesize_modular_edit_structure(list(demo_pair()), max_erasures=1)


@pytest.fixture(scope="session")
def mono_tpo():
    """Largest TPO of the composed reference system."""
    g = demo_composed()
    obs = determinize(g)
    return build_largest_tpo(desired_observer(obs), obs)


def _ring(seed, size=3):
    """``size`` random components in a ring: letters ``a``, ``b``, ``c`` of
    component ``i`` become a private event, the event shared with its left
    neighbour and the event shared with its right neighbour."""
    rng = random.Random(seed)
    links = [f"l{(i - 1) % size}{i}" for i in range(size)]
    systems = []
    for i in range(size):
        g = random_system(RandomSpec(seed=rng.randrange(2**32), max_states=5), name=f"c{i}")
        names = {"a": f"p{i}", "b": links[i], "c": links[(i + 1) % size]}
        systems.append(
            Automaton(
                name=g.name,
                events=tuple(Event(names[ev.name]) for ev in g.events),
                states=g.states,
                transitions=tuple((s, names.get(l, l), d) for s, l, d in g.transitions),
            )
        )
    return systems


@pytest.fixture
def ring():
    """The ring builder ``ring(seed, size=3)``."""
    return _ring
