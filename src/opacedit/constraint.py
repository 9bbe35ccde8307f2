"""The edit-constraint specification: at most ``max_erasures`` erasures in a
row, where only an insertion wipes the slate clean.

The specification automaton is a chain ``x_1 ... x_{k+2}``: every erase event
steps the chain forward, every insert event resets to ``x_1`` (and self-loops
there).  The final state ``x_{k+2}`` is unmarked with no outgoing transitions,
so reaching it (one erasure too many) is a dead end that synthesis prunes.
Stop decisions do not appear in the constraint alphabet: delivering a genuine
event neither consumes nor restores erasure budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .automata import Automaton, Event, State, Transition
from .transform import ERASE, INSERT, TransformedAutomaton, decoration_table


@dataclass(frozen=True)
class ConstraintSpec:
    inserts: tuple[str, ...]
    erasures: tuple[str, ...]


def constraint_alphabet(components: Sequence[TransformedAutomaton]) -> ConstraintSpec:
    """Collect every insert and erase decoration declared by the components."""
    table = decoration_table(components)
    inserts = tuple(sorted(name for name, dec in table.items() if dec.kind == INSERT))
    erasures = tuple(sorted(name for name, dec in table.items() if dec.kind == ERASE))
    return ConstraintSpec(inserts=inserts, erasures=erasures)


def build_constraint_automaton(
    max_erasures: int,
    components: Sequence[TransformedAutomaton],
    name: str = "K",
) -> Automaton:
    """Build the erasure-budget specification over the components' decisions.

    ``max_erasures`` is the number of consecutive erasures allowed; the chain
    has ``max_erasures + 2`` states and only the last one is unmarked.  Its
    events are insert and erase decisions, so all of them are controllable.
    """
    if max_erasures < 0:
        raise ValueError("max_erasures must be nonnegative")
    spec = constraint_alphabet(components)
    k = max_erasures
    states = tuple(
        State(name=f"x{i}", initial=(i == 1), marked=(i <= k + 1), secret=False)
        for i in range(1, k + 3)
    )
    transitions: list[Transition] = []
    for i in range(1, k + 2):
        for erz in spec.erasures:
            transitions.append((f"x{i}", erz, f"x{i + 1}"))
        for ins in spec.inserts:
            transitions.append((f"x{i}", ins, "x1"))
    events = tuple(Event(name=n) for n in sorted(spec.inserts + spec.erasures))
    return Automaton(name=name, events=events, states=states, transitions=tuple(transitions))
