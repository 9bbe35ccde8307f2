"""Seeded inputs for the benchmark workloads.

Every workload has a fixed base instance, chosen for a property stated in its
``why`` in ``BENCHMARK.json``.  The ``--seed`` of a run does not pick a
different instance: it picks an isomorphic copy of the base instance.  The
copy permutes event names (within names of equal length), renames every state
to a fixed-width name in a random order, and shuffles the listing order of
states, transitions and events.
Work and sizes are therefore the same for every seed, so the run-to-run
spread that the benchmark gates on is measurement noise rather than instance
size, and every count the program reports (states, transitions, document
bytes) can be pinned once and checked on every seed.  What the seed does
change is what the program receives: names, listing order, and for
``edit-stream`` the random walk of genuine events.

The module only builds inputs; it never calls the synthesis pipeline, except
in ``find_chain3``, which re-derives the pinned chain instance.
"""

from __future__ import annotations

import random
from collections import defaultdict

from opacedit.automata import Automaton, Event, State
from opacedit.oracle import RandomSpec, random_pair, random_system

PAIR_SPEC = RandomSpec(seed=2, max_states=24, alphabet_size=6)
MAX_ERASURES = 1

# chain3: position in the chain stream of the first instance with the property
# below, as found by ``find_chain3`` (see ``find_chain3.py``).
CHAIN3_INDEX = 23
CHAIN3_MIN_PRODUCT = 2000

# Counts the seed program produces on the base instances (and so on every
# seeded copy).  ``artifact_bytes`` is the UTF-8 size of the structure
# document.  A mismatch is reported as a failed operation.
PINNED = {
    "pair-large": {
        "empty": False,
        "plant_states": 2573,
        "plant_transitions": 3941,
        "supervisor_states": 876,
        "supervisor_transitions": 1437,
        "events": 78,
        "artifact_bytes": 17101035,
    },
    "chain3": {
        "empty": False,
        "plant_states": 2690,
        "plant_transitions": 4488,
        "supervisor_states": 1159,
        "supervisor_transitions": 2111,
        "events": 73,
        "artifact_bytes": 3808527,
    },
    "demo-cli": {
        "empty": False,
        "plant_states": 65,
        "plant_transitions": 77,
        "supervisor_states": 33,
        "supervisor_transitions": 39,
        "events": 25,
        "artifact_bytes": 66923,
    },
}

DEMO_INPUTS = ("data/demo_g1.json", "data/demo_g2.json")

# The README's forced-decision session on the demo pair, with the transcript
# it documents.  Hand-written reference, not output of the program.
DEMO_STEP_INPUT = (
    "event gamma ! erz:gamma@gamma\n"
    "event beta ! stop@beta\n"
    "event alpha ! ins:gamma@alpha,erz:alpha@alpha\n"
)
DEMO_STEP_TRANSCRIPT = (
    "state (({q0},{q0})|({s0},{s0})|K:x1)\n"
    "emit ε\n"
    "state (({q0},{{q1,q2}})|({s0},{s0})|K:x2)\n"
    "emit beta\n"
    "state (({q0},{{q1,q2}})|({{s1,s2}},{{s1,s2}})|K:x2)\n"
    "emit gamma\n"
    "state (({{q1,q2}},{q3})|({{s1,s2}},{s3})|K:x2)\n"
)


def _rename_events(a: Automaton, names: dict[str, str]) -> Automaton:
    return Automaton(
        name=a.name,
        events=tuple(Event(names[ev.name], ev.observable, ev.controllable) for ev in a.events),
        states=a.states,
        transitions=tuple((src, names.get(label, label), dst) for src, label, dst in a.transitions),
    )


def chain3_systems(index: int = CHAIN3_INDEX) -> list[Automaton]:
    """Instance ``index`` of the chain stream: three components in a ring,
    each a ``random_system`` whose letters ``a``, ``b``, ``c`` become a
    private event, the event shared with its left neighbour and the event
    shared with its right neighbour."""
    rng = random.Random(index)
    links = ("l20", "l01", "l12")
    systems = []
    for i in range(3):
        spec = RandomSpec(seed=rng.randrange(2**32), max_states=5, alphabet_size=3)
        names = {"a": f"p{i}", "b": links[i], "c": links[(i + 1) % 3]}
        systems.append(_rename_events(random_system(spec, name=f"c{i}"), names))
    return systems


def base_systems(workload: str) -> list[Automaton]:
    if workload in ("pair-large", "edit-stream"):
        return list(random_pair(PAIR_SPEC))
    if workload == "chain3":
        return chain3_systems()
    raise ValueError(f"no generated instance for workload {workload!r}")


def isomorphic_copy(systems: list[Automaton], seed: int) -> list[Automaton]:
    """Rename and reorder ``systems`` by ``seed`` without changing their shape.

    Event names are permuted within groups of equal length, consistently over
    all components, so shared events stay shared.  States become ``q`` plus a
    fixed-width number.  Keeping every name's length fixed keeps every name
    the program derives from them, and so the document size, independent of
    the seed.
    """
    rng = random.Random(seed)
    by_length: dict[int, list[str]] = defaultdict(list)
    for name in sorted({ev.name for g in systems for ev in g.events}):
        by_length[len(name)].append(name)
    event_names: dict[str, str] = {}
    for group in by_length.values():
        shuffled = group[:]
        rng.shuffle(shuffled)
        event_names.update(zip(group, shuffled))
    copies = []
    for g in systems:
        width = len(str(len(g.states) - 1))
        numbers = list(range(len(g.states)))
        rng.shuffle(numbers)
        state_names = {st.name: f"q{n:0{width}d}" for st, n in zip(g.states, numbers)}
        states = [
            State(state_names[st.name], st.initial, st.marked, st.secret) for st in g.states
        ]
        transitions = [
            (state_names[src], event_names.get(label, label), state_names[dst])
            for src, label, dst in g.transitions
        ]
        events = [Event(event_names[ev.name], ev.observable, ev.controllable) for ev in g.events]
        for items in (states, transitions, events):
            rng.shuffle(items)
        copies.append(
            Automaton(name=g.name, events=tuple(events), states=tuple(states), transitions=tuple(transitions))
        )
    return copies


def random_walk(observer: Automaton, seed: int, length: int) -> list[list[str]]:
    """A seeded walk of ``length`` genuine events over a deterministic
    observer, cut into segments wherever the walk deadlocks; each segment
    starts again at the initial state."""
    rng = random.Random(seed)
    start = observer.initial_states[0]
    segments: list[list[str]] = [[]]
    here = start
    for _ in range(length):
        enabled = sorted(observer.outgoing(here))
        if not enabled:
            segments.append([])
            here = start
            enabled = sorted(observer.outgoing(here))
            if not enabled:
                raise ValueError("the observer has no move from its initial state")
        label, here = rng.choice(enabled)
        segments[-1].append(label)
    return [segment for segment in segments if segment]


def find_chain3() -> int:
    """First chain-stream position whose instance has non-empty desired
    observers, a product of at least ``CHAIN3_MIN_PRODUCT`` states and a
    non-empty supervisor."""
    from opacedit.synthesis import synthesize_modular_edit_structure

    index = 0
    while True:
        m = synthesize_modular_edit_structure(chain3_systems(index), MAX_ERASURES)
        if (
            not m.diagnostics
            and len(m.plant.states) >= CHAIN3_MIN_PRODUCT
            and not m.is_empty()
        ):
            return index
        index += 1
