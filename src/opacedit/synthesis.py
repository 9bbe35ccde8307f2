"""Supervisor synthesis over the transformed components and the constraint.

The plant is the synchronous product of the encoded components and the
constraint specification, with tuple states retaining which component state
and which constraint state they stand for.  The supremal controllable and
nonblocking supervisor is computed by the standard iterated fixpoint: remove
states that cannot reach a marked state, then states that lose an
uncontrollable event into removed territory, re-trim, repeat.  What remains is
the modular edit structure whose paths are exactly the decision sequences the
runtime may execute.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .abstraction import AbstractionBundle, abstract_component
from .automata import Automaton, InvalidAutomaton, synchronous_product
from .constraint import build_constraint_automaton
from .tpo import Tpo, Y, build_largest_tpo
from .transform import TransformedAutomaton, transform_modular


def _tuple_name(parts: Sequence[str]) -> str:
    return "(" + "|".join(parts[:-1]) + "|K:" + parts[-1] + ")"


@dataclass(frozen=True)
class ProductPlant:
    automaton: Automaton
    tuple_map: Mapping[str, tuple[str, ...]]


def product_plant(
    components: Sequence[TransformedAutomaton],
    spec: Automaton,
    name: str = "plant",
) -> ProductPlant:
    """Synchronous product of the component encodings and the constraint.

    Events move exactly the participants that declare them; the constraint
    participates in every insert and erase decision.  Every part must be
    deterministic.  Tuple states are named ``(c1|c2|...|K:xj)`` and the
    reachable part is kept (see ``automata.synchronous_product``).
    """
    parts = [comp.automaton for comp in components] + [spec]
    for part in parts:
        if not part.is_deterministic:
            raise InvalidAutomaton(f"product part {part.name!r} is not deterministic")
    automaton, tuple_map = synchronous_product(parts, name, _tuple_name)
    return ProductPlant(automaton=automaton, tuple_map=tuple_map)


def supremal_controllable_nonblocking(
    plant: Automaton,
    log: Callable[[str], None] | None = None,
    name: str | None = None,
) -> Automaton:
    """Supremal controllable nonblocking state-subautomaton of ``plant``.

    Iterates coreachability pruning (drop states that cannot reach a marked
    state) before controllability pruning (drop states with an uncontrollable
    transition into dropped territory) until stable, re-trimming reachability
    each round.  The empty automaton is a legal result.

    Successor and predecessor lists are built once per call, so each pass is
    linear in the plant.  Controllability pruning walks uncontrollable
    predecessors one layer at a time from the states just dropped; each layer
    is logged as one ``removed N uncontrollable`` line.
    """
    uncontrollable = {ev.name for ev in plant.events if not ev.controllable}
    succ: dict[str, list[str]] = {st.name: [] for st in plant.states}
    pred: dict[str, list[str]] = {st.name: [] for st in plant.states}
    uncontrollable_pred: dict[str, list[str]] = {st.name: [] for st in plant.states}
    for src, label, dst in plant.transitions:
        succ[src].append(dst)
        pred[dst].append(src)
        if label in uncontrollable:
            uncontrollable_pred[dst].append(src)

    def closure(seeds: Iterable[str], edges: Mapping[str, list[str]], inside: set[str]) -> set[str]:
        """States of ``inside`` reachable from ``seeds`` along ``edges``
        without leaving ``inside``."""
        found = {s for s in seeds if s in inside}
        queue = deque(found)
        while queue:
            for nxt in edges[queue.popleft()]:
                if nxt in inside and nxt not in found:
                    found.add(nxt)
                    queue.append(nxt)
        return found

    def uncontrollable_into(dropped: Iterable[str], inside: set[str]) -> set[str]:
        """States of ``inside`` with an uncontrollable move into ``dropped``."""
        return {src for dst in dropped for src in uncontrollable_pred[dst] if src in inside}

    alive = set(plant.reachable_states())
    iteration = 0
    while True:
        iteration += 1
        changed = False
        coreach = closure(plant.marked_states, pred, alive)
        blocking = alive - coreach
        if blocking:
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(blocking)} blocking")
            alive = coreach
        # Every kept state kept its uncontrollable moves when the last pass
        # ended, so only predecessors of dropped states can have lost one.
        layer = uncontrollable_into(blocking, alive)
        while layer:
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(layer)} uncontrollable")
            alive -= layer
            layer = uncontrollable_into(layer, alive)
        reach = closure(plant.initial_states, succ, alive)
        if reach != alive:
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(alive - reach)} unreachable")
            alive = reach
        if not changed:
            break
    states = tuple(st for st in plant.states if st.name in alive)
    transitions = tuple(t for t in plant.transitions if t[0] in alive and t[2] in alive)
    return Automaton(
        name=name or f"sup({plant.name})",
        events=plant.events,
        states=states,
        transitions=transitions,
    )


@dataclass(frozen=True)
class ModularEditStructure:
    """Everything synthesis produces: the encoded components, the
    constraint, the plant product and the supervisor."""

    components: tuple[TransformedAutomaton, ...]
    constraint: Automaton
    plant: Automaton
    tuple_map: Mapping[str, tuple[str, ...]]
    supervisor: Automaton
    max_erasures: int
    diagnostics: tuple[str, ...] = ()

    @property
    def removed_states(self) -> int:
        return len(self.plant.states) - len(self.supervisor.states)

    def is_empty(self) -> bool:
        return not self.supervisor.states

    def all_y(self, state_name: str) -> bool:
        parts = self.tuple_map[state_name]
        return all(
            self.components[i].origins[parts[i]] == Y for i in range(len(self.components))
        )


def encode_components(
    systems: Sequence[Automaton],
) -> tuple[tuple[AbstractionBundle, ...], tuple[Tpo, ...], tuple[TransformedAutomaton, ...]]:
    """Abstract each component, build the largest TPO of its observers and
    encode the TPOs for modular composition; component ``g`` is encoded as
    ``g.name^T``."""
    bundles = tuple(abstract_component(g) for g in systems)
    tpos = tuple(
        build_largest_tpo(bundle.h_obd, bundle.h_b, name=f"tpo{i}")
        for i, bundle in enumerate(bundles)
    )
    components = transform_modular(
        tpos,
        [bundle.abstracted.events for bundle in bundles],
        names=[f"{g.name}^T" for g in systems],
    )
    return bundles, tpos, components


def synthesize_modular_edit_structure(
    systems: Sequence[Automaton],
    max_erasures: int,
    log: Callable[[str], None] | None = None,
) -> ModularEditStructure:
    """Full pipeline: abstract each component, build its TPO, encode, compose
    with the erasure constraint and synthesize the supervisor.

    An empty supervisor (or an empty desired observer for some component)
    does not raise; it is reported through ``diagnostics`` so callers can
    distinguish "no edit function exists" from bad input.
    """
    bundles, _, components = encode_components(systems)
    diagnostics = [
        f"opacity unenforceable for component {i}: empty desired observer"
        for i, bundle in enumerate(bundles)
        if bundle.h_obd.is_empty()
    ]
    constraint = build_constraint_automaton(max_erasures, components)
    plant = product_plant(components, constraint)
    supervisor = supremal_controllable_nonblocking(plant.automaton, log=log, name="supervisor")
    if not supervisor.states:
        diagnostics.append("no constrained edit function exists: empty supervisor")
    return ModularEditStructure(
        components=components,
        constraint=constraint,
        plant=plant.automaton,
        tuple_map=plant.tuple_map,
        supervisor=supervisor,
        max_erasures=max_erasures,
        diagnostics=tuple(diagnostics),
    )
