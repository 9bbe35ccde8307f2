"""Secrecy-preserving abstraction of components.

Three coarsest partitions are computed by signature refinement:

* strong bisimulation, treating tau like any other label;
* opaque observation equivalence: weak (tau-abstracted) stability that never
  merges secret with non-secret states, computed as strong bisimulation on the
  tau-saturated transition relation;
* opaque bisimulation on observer automata, which additionally never merges
  revealing (secret-only) estimates with safe ones.

Refinement splits blocks by the multiset-free signature ``(label, target
block)`` until stable, which yields the coarsest stable refinement of the
initial partition; block names derive from sorted member names, so results
are reproducible regardless of iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .automata import TAU, Automaton, Partition, quotient
from .estimation import Observer, desired_observer, determinize, unobservable_reach


def _refine(
    states: list[str],
    edges: Mapping[str, Sequence[tuple[str, str]]],
    initial_key: Mapping[str, object],
) -> Partition:
    """Coarsest partition refining ``initial_key`` that is stable under
    ``edges``: equivalent states have, per label, moves into the same blocks."""
    block_of = {}
    key_to_block: dict[object, int] = {}
    for state in states:
        key = initial_key[state]
        if key not in key_to_block:
            key_to_block[key] = len(key_to_block)
        block_of[state] = key_to_block[key]
    while True:
        signatures: dict[str, object] = {}
        for state in states:
            sig = frozenset((label, block_of[dst]) for label, dst in edges[state])
            signatures[state] = (block_of[state], sig)
        new_ids: dict[object, int] = {}
        new_block_of = {}
        for state in states:
            sig = signatures[state]
            if sig not in new_ids:
                new_ids[sig] = len(new_ids)
            new_block_of[state] = new_ids[sig]
        if len(new_ids) == len(set(block_of.values())):
            break
        block_of = new_block_of
    groups: dict[int, set[str]] = {}
    for state, idx in block_of.items():
        groups.setdefault(idx, set()).add(state)
    blocks = sorted((frozenset(group) for group in groups.values()), key=lambda b: sorted(b))
    return Partition(blocks=tuple(blocks))


def bisimulation_partition(a: Automaton) -> Partition:
    """Coarsest strong bisimulation, with tau treated as an ordinary label."""
    edges = {st.name: a.outgoing(st.name) for st in a.states}
    return _refine([st.name for st in a.states], edges, {st.name: True for st in a.states})


def _saturated_edges(a: Automaton) -> dict[str, list[tuple[str, str]]]:
    """Weak transition relation: ``(x, e, y)`` iff ``x (tau*) e (tau*) y`` and
    ``(x, epsilon, y)`` iff ``x (tau*) y``.  Strong stability on this relation
    is exactly observation equivalence."""
    silent = {ev.name for ev in a.events if not ev.observable} | {TAU}
    closure = {st.name: unobservable_reach(a, (st.name,)) for st in a.states}
    edges: dict[str, list[tuple[str, str]]] = {st.name: [] for st in a.states}
    for st in a.states:
        targets: dict[str, set[str]] = {}
        for mid in closure[st.name]:
            for label, dst in a.outgoing(mid):
                if label in silent:
                    continue
                targets.setdefault(label, set()).update(closure[dst])
        for label, reach in targets.items():
            edges[st.name].extend((label, dst) for dst in reach)
        edges[st.name].extend(("", dst) for dst in closure[st.name])
    return edges


def opaque_observation_equivalence_partition(a: Automaton) -> Partition:
    """Coarsest observation equivalence that never merges a secret state with
    a non-secret one."""
    edges = _saturated_edges(a)
    split = {st.name: st.secret for st in a.states}
    return _refine([st.name for st in a.states], edges, split)


def opaque_bisimulation_partition(o: Observer) -> Partition:
    """Coarsest strong bisimulation on an observer that never merges a
    revealing (secret) state with a safe one."""
    base = o.automaton
    edges = {st.name: base.outgoing(st.name) for st in base.states}
    split = {st.name: st.secret for st in base.states}
    return _refine([st.name for st in base.states], edges, split)


@dataclass(frozen=True)
class AbstractionBundle:
    """A component together with its abstraction and derived observers.

    ``abstracted`` is the quotient under opaque observation equivalence;
    ``h_b`` quotients the abstracted observer by plain bisimulation and plays
    the full-information role; ``h_ob`` quotients it by opaque bisimulation
    and ``h_obd`` is its desired (safe) part.  Plain bisimulation may merge a
    secret-only estimate with a safe one, so a state of ``h_b`` is flagged
    secret when some member of its block is.  No stage reads that flag; it
    shows only in the ``observer-bisim.json`` file written by ``abstract``.
    """

    component: Automaton
    partition: Partition
    abstracted: Automaton
    h_ob: Observer
    h_b: Observer
    h_obd: Observer


def abstract_component(g: Automaton) -> AbstractionBundle:
    """Full abstraction pipeline for one component."""
    partition = opaque_observation_equivalence_partition(g)
    abstracted = quotient(g, partition, name=f"{g.name}~")
    observer = determinize(abstracted)
    det = observer.automaton
    h_b = Observer(quotient(det, bisimulation_partition(det), name=f"obs({g.name})"))
    h_ob = Observer(quotient(det, opaque_bisimulation_partition(observer), name=f"obs_o({g.name})"))
    h_obd = desired_observer(h_ob, name=f"obsd({g.name})")
    return AbstractionBundle(
        component=g,
        partition=partition,
        abstracted=abstracted,
        h_ob=h_ob,
        h_b=h_b,
        h_obd=h_obd,
    )
