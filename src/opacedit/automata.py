"""Nondeterministic finite automata with unobservable moves, and the basic
operations the rest of the library is built on: the synchronous product of
any number of automata (``synchronous_product``, one breadth-first pass over
tuples of local states, behind both ``compose_all`` and the synthesis plant),
restriction to a state subset, quotients by a state partition, natural
projection and isomorphism of deterministic automata.

States carry three independent flags (initial, marked, secret).  Events carry
observability and controllability flags.  The label ``tau`` is reserved for
unobservable internal moves: it may appear on transitions but never in the
declared alphabet.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import product
from operator import contains
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

TAU = "tau"
EPSILON = "ε"


class InvalidAutomaton(ValueError):
    """Raised when automaton components do not form a well-defined automaton."""


def erasure_symbol(event: str) -> str:
    """Edit symbol denoting that ``event`` is suppressed from the output."""
    return f"{event}→{EPSILON}"


def pauses_collector(build: Callable) -> Callable:
    """``build`` with the cyclic collector paused, then left as the caller had it, on error too."""

    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@dataclass(frozen=True, slots=True)
class Event:
    """An alphabet symbol with its observability and controllability flags."""

    name: str
    observable: bool = True
    controllable: bool = True


class State(NamedTuple):
    """A state: its name and three flags.  An immutable tuple, so a changed
    copy is ``st._replace(...)``."""

    name: str
    initial: bool = False
    marked: bool = False
    secret: bool = False


Transition = tuple[str, str, str]


@dataclass(frozen=True)
class Automaton:
    """A finite automaton ``(Q, Sigma, ->, Q0)`` with marked and secret subsets.

    ``transitions`` holds ``(source, label, target)`` triples where ``label``
    is either a declared event name or ``tau``.  The structure is immutable.
    Derived values are cached on first use and live as long as the automaton:
    ``event_map``, ``state_map``, the initial, marked and secret states,
    ``is_deterministic`` (only the answer), and the table behind
    ``outgoing`` (``_out``).  That table is cached only by analyses:
    ``reachable_states`` and ``trim_reachable``,
    ``deterministic_isomorphic``, the walks of ``estimation`` and
    ``abstraction``, and the checks in ``tpo`` and ``oracle``.  The
    synthesis back end caches none: ``synchronous_product`` and
    ``synthesis.supremal_controllable_nonblocking`` build their own tables
    and drop them on return, so the parts of a product, the plant and the
    supervisor keep none.
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
            if not type(ev.observable) is type(ev.controllable) is bool:
                raise InvalidAutomaton(f"{self.name!r}: event {ev.name!r} has a flag that is not a bool")
            seen_events.add(ev.name)
        seen_states: set[str] = set()
        for st in self.states:
            if not st.name:
                raise InvalidAutomaton(f"{self.name!r}: empty state name")
            if st.name in seen_states:
                raise InvalidAutomaton(f"{self.name!r}: duplicate state {st.name!r}")
            if not type(st.initial) is type(st.marked) is type(st.secret) is bool:
                raise InvalidAutomaton(f"{self.name!r}: state {st.name!r} has a flag that is not a bool")
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
    def _out(self) -> Mapping[str, tuple[tuple[str, str], ...]]:
        table: dict[str, list[tuple[str, str]]] = {st.name: [] for st in self.states}
        for src, label, dst in self.transitions:
            table[src].append((label, dst))
        return {key: tuple(val) for key, val in table.items()}

    def outgoing(self, state: str) -> tuple[tuple[str, str], ...]:
        return self._out.get(state, ())

    @cached_property
    def is_deterministic(self) -> bool:
        """Single initial state, no tau moves, at most one target per (state, event)."""
        if len(self.initial_states) > 1:
            return False
        # One target per (state, label) exactly when each label has as many
        # sources as transitions.  The sets are dropped once counted, and
        # only the answer is cached.
        sources: dict[str, set[str]] = {}
        for src, label, _ in self.transitions:
            seen = sources.get(label)
            if seen is None:
                seen = sources[label] = set()
            seen.add(src)
        return TAU not in sources and sum(map(len, sources.values())) == len(self.transitions)

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
    initial states is a start tuple.  A product state is initial iff it was
    admitted as a start tuple, marked iff every local state is and secret iff
    some local state is; it is named ``state_name(local_states)``, and the
    returned map takes each name back to its tuple of local states.

    A state's candidate events are those every participant can take: per part,
    the events it enables at its local state and the events it does not
    declare, intersected over the parts.  Every candidate fires, so no probe
    fails.  Candidates are taken in sorted name order, before the ``tau``
    moves of each part in part order, so states and transitions come out in
    the order that probing every event would give them.  The tables the moves
    read are built here, a part's moves at a local state when a product state
    first reaches it, and dropped on return, so no part keeps one.
    """
    events = _merge_events(parts)

    # Each part's ``tau`` moves count as one more event that only that part
    # declares, placed after the named events in part order.  Per event (by
    # position): its label and the parts that declare it.  Per part: the bit
    # of each label it moves on (bit k is event k), the mask of the events it
    # does not declare, and its transitions grouped by source.
    labels = [ev.name for ev in events] + [TAU] * len(parts)
    position = {ev.name: k for k, ev in enumerate(events)}
    everything = (1 << len(labels)) - 1
    participants: list[list[int]] = [[] for _ in events] + [[i] for i in range(len(parts))]
    bits: list[dict[str, int]] = []
    undeclared: list[int] = []
    outgoing: list[dict[str, list[Transition]]] = []
    for i, part in enumerate(parts):
        bit = {TAU: 1 << (len(events) + i)}
        for ev in part.events:
            participants[position[ev.name]].append(i)
            bit[ev.name] = 1 << position[ev.name]
        bits.append(bit)
        undeclared.append(everything ^ sum(bit.values()))
        out: dict[str, list[Transition]] = {}
        for move in part.transitions:
            row = out.get(move[0])
            if row is None:
                out[move[0]] = [move]
            else:
                row.append(move)
        outgoing.append(out)

    # Per part, for each local state some product state has reached: the mask
    # of the events the part can take there (those it enables and those it
    # does not declare), and its targets per label in transition order.
    reached: list[dict[str, tuple[int, dict[str, tuple[str, ...]]]]] = [{} for _ in parts]

    def moves_at(i: int, local: str) -> tuple[int, dict[str, tuple[str, ...]]]:
        bit = bits[i]
        mask = undeclared[i]
        targets: dict[str, tuple[str, ...]] = {}
        for _, label, dst in outgoing[i].get(local, ()):
            mask |= bit[label]
            known = targets.get(label)
            targets[label] = (dst,) if known is None else known + (dst,)
        reached[i][local] = found = (mask, targets)
        return found

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
    starts = len(tuple_map)
    while queue:
        here = queue.popleft()
        src = index[here]
        candidates = everything
        moves = []
        for i, local in enumerate(here):
            mask, targets = reached[i].get(local) or moves_at(i, local)
            candidates &= mask
            moves.append(targets)
        while candidates:
            lowest = candidates & -candidates
            candidates ^= lowest
            k = lowest.bit_length() - 1
            label = labels[k]
            step = list(here)
            branches: list[tuple[int, tuple[str, ...]]] = []
            for i in participants[k]:
                nxt = moves[i][label]
                if len(nxt) == 1:
                    step[i] = nxt[0]
                else:
                    branches.append((i, nxt))
            if not branches:
                transitions.append((src, label, admit(tuple(step))))
                continue
            for choice in product(*(nxt for _, nxt in branches)):
                for (i, _), local in zip(branches, choice):
                    step[i] = local
                transitions.append((src, label, admit(tuple(step))))

    marked = [part.marked_states for part in parts]
    secret = [part.secret_states for part in parts]
    states = tuple(
        State(label, n < starts, all(map(contains, marked, local)), any(map(contains, secret, local)))
        for n, (label, local) in enumerate(tuple_map.items())
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

