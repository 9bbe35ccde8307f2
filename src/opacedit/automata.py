"""Nondeterministic finite automata with unobservable moves, and the basic
operations the rest of the library is built on: the synchronous product of
any number of automata (``synchronous_product``, one breadth-first pass over
tuples of local states, behind both ``compose_all`` and the synthesis plant),
restriction to a state subset, quotients by a state partition, natural
projection, observable language up to a length bound and isomorphism of
deterministic automata.

States carry three independent flags (initial, marked, secret).  Events carry
observability and controllability flags.  The label ``tau`` is reserved for
unobservable internal moves: it may appear on transitions but never in the
declared alphabet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import contains
from typing import Callable, Hashable, Iterable, Mapping, Sequence

TAU = "tau"
EPSILON = "ε"


class InvalidAutomaton(ValueError):
    """Raised when automaton components do not form a well-defined automaton."""


def erasure_symbol(event: str) -> str:
    """Edit symbol denoting that ``event`` is suppressed from the output."""
    return f"{event}→{EPSILON}"


@dataclass(frozen=True)
class Event:
    """An alphabet symbol with its observability and controllability flags."""

    name: str
    observable: bool = True
    controllable: bool = True


@dataclass(frozen=True)
class State:
    name: str
    initial: bool = False
    marked: bool = False
    secret: bool = False


Transition = tuple[str, str, str]


@dataclass(frozen=True)
class Automaton:
    """A finite automaton ``(Q, Sigma, ->, Q0)`` with marked and secret subsets.

    ``transitions`` holds ``(source, label, target)`` triples where ``label``
    is either a declared event name or ``tau``.  The structure is immutable;
    derived lookup tables are cached on first use.
    """

    name: str
    events: tuple[Event, ...]
    states: tuple[State, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        seen_events: set[str] = set()
        for ev in self.events:
            if ev.name == TAU:
                raise InvalidAutomaton(f"{self.name!r}: {TAU!r} must not be declared as an event")
            if not ev.name:
                raise InvalidAutomaton(f"{self.name!r}: empty event name")
            if ev.name in seen_events:
                raise InvalidAutomaton(f"{self.name!r}: duplicate event {ev.name!r}")
            seen_events.add(ev.name)
        seen_states: set[str] = set()
        for st in self.states:
            if not st.name:
                raise InvalidAutomaton(f"{self.name!r}: empty state name")
            if st.name in seen_states:
                raise InvalidAutomaton(f"{self.name!r}: duplicate state {st.name!r}")
            seen_states.add(st.name)
        for i, (src, label, dst) in enumerate(self.transitions):
            if src not in seen_states:
                raise InvalidAutomaton(f"{self.name!r}: transitions[{i}] has unknown source {src!r}")
            if dst not in seen_states:
                raise InvalidAutomaton(f"{self.name!r}: transitions[{i}] has unknown target {dst!r}")
            if label != TAU and label not in seen_events:
                raise InvalidAutomaton(f"{self.name!r}: transitions[{i}] has undeclared event {label!r}")

    @cached_property
    def event_map(self) -> Mapping[str, Event]:
        return {ev.name: ev for ev in self.events}

    @cached_property
    def state_map(self) -> Mapping[str, State]:
        return {st.name: st for st in self.states}

    @cached_property
    def initial_states(self) -> tuple[str, ...]:
        return tuple(st.name for st in self.states if st.initial)

    @cached_property
    def marked_states(self) -> frozenset[str]:
        return frozenset(st.name for st in self.states if st.marked)

    @cached_property
    def secret_states(self) -> frozenset[str]:
        return frozenset(st.name for st in self.states if st.secret)

    @cached_property
    def _succ(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for src, label, dst in self.transitions:
            table.setdefault((src, label), []).append(dst)
        return {key: tuple(val) for key, val in table.items()}

    @cached_property
    def _out(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        table: dict[str, list[tuple[str, str]]] = {st.name: [] for st in self.states}
        for src, label, dst in self.transitions:
            table[src].append((label, dst))
        return {key: tuple(val) for key, val in table.items()}

    def successors(self, state: str, label: str) -> tuple[str, ...]:
        return self._succ.get((state, label), ())

    def outgoing(self, state: str) -> tuple[tuple[str, str], ...]:
        return self._out.get(state, ())

    @cached_property
    def is_deterministic(self) -> bool:
        """Single initial state, no tau moves, at most one target per (state, event)."""
        if len(self.initial_states) > 1:
            return False
        if any(label == TAU for _, label, _ in self.transitions):
            return False
        return all(len(targets) <= 1 for targets in self._succ.values())

    def reachable_states(self) -> frozenset[str]:
        seen = set(self.initial_states)
        queue = deque(seen)
        while queue:
            here = queue.popleft()
            for _, dst in self.outgoing(here):
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return frozenset(seen)

    def trim_reachable(self) -> "Automaton":
        """Restrict to states reachable from the initial states."""
        keep = self.reachable_states()
        return restrict(self, keep)


@dataclass(frozen=True)
class Partition:
    """A partition of an automaton's state set into disjoint blocks."""

    blocks: tuple[frozenset[str], ...]

    @cached_property
    def block_index(self) -> Mapping[str, int]:
        table: dict[str, int] = {}
        for i, block in enumerate(self.blocks):
            for member in block:
                if member in table:
                    raise InvalidAutomaton(f"partition blocks overlap at {member!r}")
                table[member] = i
        return table

    def block_of(self, state: str) -> frozenset[str]:
        return self.blocks[self.block_index[state]]


def block_name(block: frozenset[str]) -> str:
    """Canonical printable name of a block: singletons keep the member name."""
    members = sorted(block)
    if len(members) == 1:
        return members[0]
    return "{" + ",".join(members) + "}"


def _merge_events(parts: Sequence[Automaton]) -> tuple[Event, ...]:
    merged: dict[str, Event] = {}
    for part in parts:
        for ev in part.events:
            known = merged.get(ev.name)
            if known is None:
                merged[ev.name] = ev
            elif known != ev:
                raise InvalidAutomaton(
                    f"event {ev.name!r} declared with conflicting flags in {part.name!r}"
                )
    return tuple(sorted(merged.values(), key=lambda ev: ev.name))


def synchronous_product(
    parts: Sequence[Automaton],
    name: str,
    state_name: Callable[[tuple[str, ...]], str],
) -> tuple[Automaton, dict[str, tuple[str, ...]]]:
    """Synchronous product of any number of automata, reachable part only.

    An event moves every part that declares it in lock step (a nondeterministic
    part branches into each combination of successors); events one part
    declares, and each part's ``tau`` moves, interleave.  Every combination of
    initial states is a start state.  A product state is initial or marked iff
    every local state is and secret iff some local state is; it is named
    ``state_name(local_states)``, and the returned map takes each name back to
    its tuple of local states.

    Each event is owned by the first part that declares it, and a state only
    probes the events its owners enable from their local states, in sorted
    name order, before the ``tau`` moves of each part in part order.  An event
    its owner cannot take could never fire, so states and transitions come out
    in the same order as probing every event would give them.
    """
    events = _merge_events(parts)

    # Per event (by position in ``events``): its name and the parts that
    # declare it.  Per part: for each local state, the events it owns and has
    # a move on, as a bit mask over positions (bit k is ``events[k]``), and
    # whether it has any ``tau`` move at all.
    names = [ev.name for ev in events]
    position = {label: k for k, label in enumerate(names)}
    participants: list[list[int]] = [[] for _ in events]
    for i, part in enumerate(parts):
        for ev in part.events:
            participants[position[ev.name]].append(i)
    enabled: list[dict[str, int]] = []
    silent: list[int] = []
    for i, part in enumerate(parts):
        owned = {names[k]: 1 << k for k, who in enumerate(participants) if who[0] == i}
        masks: dict[str, int] = {}
        has_tau = False
        for src, label, _ in part.transitions:
            if label in owned:
                masks[src] = masks.get(src, 0) | owned[label]
            elif label == TAU:
                has_tau = True
        enabled.append(masks)
        if has_tau:
            silent.append(i)

    tuple_map: dict[str, tuple[str, ...]] = {}
    index: dict[tuple[str, ...], str] = {}
    transitions: list[Transition] = []
    queue: deque[tuple[str, ...]] = deque()

    def admit(local: tuple[str, ...]) -> str:
        label = index.get(local)
        if label is None:
            label = index[local] = state_name(local)
            tuple_map[label] = local
            queue.append(local)
        return label

    for start in product(*(part.initial_states for part in parts)):
        admit(start)
    while queue:
        here = queue.popleft()
        src = index[here]
        candidates = 0
        for i, local in enumerate(here):
            candidates |= enabled[i].get(local, 0)
        while candidates:
            lowest = candidates & -candidates
            candidates ^= lowest
            k = lowest.bit_length() - 1
            label = names[k]
            targets = list(here)
            branches: list[tuple[int, tuple[str, ...]]] = []
            for i in participants[k]:
                nxt = parts[i].successors(here[i], label)
                if not nxt:
                    break
                if len(nxt) == 1:
                    targets[i] = nxt[0]
                else:
                    branches.append((i, nxt))
            else:
                if not branches:
                    transitions.append((src, label, admit(tuple(targets))))
                    continue
                for choice in product(*(nxt for _, nxt in branches)):
                    for (i, _), local in zip(branches, choice):
                        targets[i] = local
                    transitions.append((src, label, admit(tuple(targets))))
        for i in silent:
            for local in parts[i].successors(here[i], TAU):
                transitions.append((src, TAU, admit(here[:i] + (local,) + here[i + 1 :])))

    initial = [frozenset(part.initial_states) for part in parts]
    marked = [part.marked_states for part in parts]
    secret = [part.secret_states for part in parts]
    states = tuple(
        State(
            name=label,
            initial=all(map(contains, initial, local)),
            marked=all(map(contains, marked, local)),
            secret=any(map(contains, secret, local)),
        )
        for label, local in tuple_map.items()
    )
    automaton = Automaton(name=name, events=events, states=states, transitions=tuple(transitions))
    return automaton, tuple_map


def compose_all(parts: Sequence[Automaton], name: str | None = None) -> Automaton:
    """Synchronous product of one or more automata (see ``synchronous_product``),
    named ``A||B||...`` by default, with states named ``(x,y,...)``."""
    if not parts:
        raise InvalidAutomaton("cannot compose an empty list of automata")
    if len(parts) == 1:
        return parts[0] if name is None else rename_automaton(parts[0], name)
    automaton, _ = synchronous_product(
        parts,
        "||".join(part.name for part in parts) if name is None else name,
        lambda local: "(" + ",".join(local) + ")",
    )
    return automaton


def rename_automaton(a: Automaton, name: str) -> Automaton:
    return Automaton(name=name, events=a.events, states=a.states, transitions=a.transitions)


def restrict(a: Automaton, keep: Iterable[str], name: str | None = None) -> Automaton:
    """State subautomaton induced by ``keep``: drops all other states and any
    transition touching them."""
    keep = set(keep)
    states = tuple(st for st in a.states if st.name in keep)
    transitions = tuple(t for t in a.transitions if t[0] in keep and t[2] in keep)
    return Automaton(name=name or a.name, events=a.events, states=states, transitions=transitions)


def quotient(a: Automaton, partition: Partition, name: str | None = None) -> Automaton:
    """Quotient automaton over the given partition.  A block is initial, marked
    or secret iff some member is; transitions are lifted blockwise."""
    covered = set(partition.block_index)
    names = {st.name for st in a.states}
    if covered != names:
        missing = sorted(names - covered) + sorted(covered - names)
        raise InvalidAutomaton(f"partition does not cover the state set exactly: {missing[:4]}")
    labels = [block_name(block) for block in partition.blocks]
    states = []
    for i, block in enumerate(partition.blocks):
        members = [a.state_map[m] for m in block]
        states.append(
            State(
                name=labels[i],
                initial=any(m.initial for m in members),
                marked=any(m.marked for m in members),
                secret=any(m.secret for m in members),
            )
        )
    transitions = set()
    for src, label, dst in a.transitions:
        transitions.add((labels[partition.block_index[src]], label, labels[partition.block_index[dst]]))
    return Automaton(
        name=name or f"{a.name}/~",
        events=a.events,
        states=tuple(states),
        transitions=tuple(sorted(transitions)),
    )


def project(string: Sequence[str], keep: Iterable[str]) -> tuple[str, ...]:
    """Natural projection of an event string onto the event subset ``keep``."""
    keep = {ev.name if isinstance(ev, Event) else ev for ev in keep}
    return tuple(symbol for symbol in string if symbol in keep)


def language_upto(a: Automaton, depth: int) -> set[tuple[str, ...]]:
    """All observable strings of length at most ``depth`` generated by ``a``.

    Enumerates raw paths directly (tau moves emit nothing), so it is usable as
    an independent oracle for the subset construction.
    """
    language: set[tuple[str, ...]] = set()
    seen: set[tuple[str, tuple[str, ...]]] = set()
    queue: deque[tuple[str, tuple[str, ...]]] = deque()
    for init in a.initial_states:
        pair = (init, ())
        if pair not in seen:
            seen.add(pair)
            queue.append(pair)
            language.add(())
    while queue:
        state, string = queue.popleft()
        for label, dst in a.outgoing(state):
            if label == TAU:
                nxt = (dst, string)
            elif a.event_map[label].observable:
                if len(string) == depth:
                    continue
                nxt = (dst, string + (label,))
            else:
                nxt = (dst, string)
            if nxt not in seen:
                seen.add(nxt)
                language.add(nxt[1])
                queue.append(nxt)
    return language


def canonical_table(
    initial: Hashable | None,
    edges: Mapping[Hashable, Sequence[tuple[object, Hashable]]],
    flags: Mapping[Hashable, tuple[bool, ...]],
) -> tuple:
    """Canonical form of a deterministic labeled graph, up to state renaming.

    Performs a breadth-first traversal from ``initial`` taking outgoing edges
    in sorted label order, numbering states in discovery order.  Two graphs
    are isomorphic iff their canonical forms are equal.
    """
    if initial is None:
        return (0, (), ())
    index = {initial: 0}
    order = [initial]
    queue = deque([initial])
    table: list[tuple[int, object, int]] = []
    while queue:
        here = queue.popleft()
        out = sorted(edges.get(here, ()), key=lambda pair: repr(pair[0]))
        for label, dst in out:
            if dst not in index:
                index[dst] = len(index)
                order.append(dst)
                queue.append(dst)
            table.append((index[here], label, index[dst]))
    flag_rows = tuple(flags.get(name, ()) for name in order)
    return (len(order), tuple(table), flag_rows)


def deterministic_isomorphic(a: Automaton, b: Automaton) -> bool:
    """True iff two deterministic automata are isomorphic on their reachable
    parts (matching alphabets, transitions and state flags)."""
    for part in (a, b):
        if not part.is_deterministic:
            raise InvalidAutomaton(f"{part.name!r} is not deterministic")
    if set(a.events) != set(b.events):
        return False

    def form(part: Automaton) -> tuple:
        initial = part.initial_states[0] if part.initial_states else None
        edges = {
            st.name: [(label, dst) for label, dst in part.outgoing(st.name)] for st in part.states
        }
        flags = {st.name: (st.initial, st.marked, st.secret) for st in part.states}
        return canonical_table(initial, edges, flags)

    return form(a) == form(b)

