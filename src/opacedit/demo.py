"""Built-in two-component demo system.

Two symmetric components share the event ``alpha``.  Each can take one private
step (``gamma`` for the first, ``beta`` for the second), hesitate internally,
and then fire the shared event into its secret state.  Neither component is
opaque on its own and the composition is not either, which makes the pair a
useful end-to-end fixture: the desired observer, TPOs, modular encoding and
the synthesized edit structure all stay small enough to inspect by hand.
"""

from __future__ import annotations

from .automata import Automaton, Event, State, compose_all


def demo_g1() -> Automaton:
    return Automaton(
        name="G1",
        events=(Event("gamma"), Event("alpha")),
        states=(
            State("q0", initial=True),
            State("q1"),
            State("q2"),
            State("q3", secret=True),
        ),
        transitions=(
            ("q0", "gamma", "q1"),
            ("q1", "tau", "q2"),
            ("q1", "alpha", "q3"),
            ("q2", "alpha", "q3"),
        ),
    )


def demo_g2() -> Automaton:
    return Automaton(
        name="G2",
        events=(Event("beta"), Event("alpha")),
        states=(
            State("s0", initial=True),
            State("s1"),
            State("s2"),
            State("s3", secret=True),
        ),
        transitions=(
            ("s0", "beta", "s1"),
            ("s1", "tau", "s2"),
            ("s1", "alpha", "s3"),
            ("s2", "alpha", "s3"),
        ),
    )


def demo_pair() -> tuple[Automaton, Automaton]:
    return demo_g1(), demo_g2()


def demo_composed() -> Automaton:
    return compose_all([demo_g1(), demo_g2()])
