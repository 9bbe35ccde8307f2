"""Encoding TPOs as plant automata for supervisory control.

Each TPO transition class becomes a decorated event: the pending event is the
context, so identical decisions taken under different pending events stay
distinguishable.  System arrivals and deliveries are uncontrollable; insert,
stop and erase decisions are controllable.  Y states are marked; the result
is deterministic by construction.

``transform_modular`` encodes TPOs (``tpo.Tpo``) as ``tpo.build_largest_tpo``
gives them, reading each state's fields by position; ``transform_monolithic``
is its one-component case.

A decorated event's ``kind`` is the TPO transition class of its move; how its
name is spelled and whether it is controllable are read from ``tpo.MOVES``,
the one table of the six moves.

The encoding rejects a system event name with an ``@`` or an ``ins:``,
``erz:``, ``out:`` or ``drop:`` prefix, so names and decorations correspond one
to one; only the document reader parses names back.

In the modular encoding each component additionally self-loops, at Y states,
on the plain system events that are local to other components, and enlarges
its alphabet with the decorated shared events contextualized by foreign-local
events; those decorated events get no transitions, so in a synchronous product
nobody can take such a decision.  The monolithic encoding is the modular one
with a single component, where neither addition applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .automata import (
    EPSILON,
    Automaton,
    Event,
    InvalidAutomaton,
    State,
    Transition,
    erasure_symbol,
)
from .tpo import (
    ARRIVAL, DECISION, DELIVER, DELIVER_ERASED, DELIVERY, ERASE, INSERT, MOVES, STOP, SYSTEM, Tpo, Y, Z,
    render_names,
)

# A system event is spelled by its own name, any other move as prefix, base
# (a stop has none), "@" and context.
_KIND_OF_PREFIX = {move.prefix: kind for kind, move in MOVES.items() if move.role != ARRIVAL}


@dataclass(frozen=True)
class DecoratedEvent:
    """An edit decision or system move, tagged with its pending-event context."""

    kind: str
    base: str
    context: str | None = None

    @property
    def name(self) -> str:
        move = MOVES.get(self.kind)
        if move is None:
            raise ValueError(f"unknown decoration kind {self.kind!r}")
        if move.role == ARRIVAL:
            return self.base
        return f"{move.prefix}{'' if self.kind == STOP else self.base}@{self.context}"

    @property
    def controllable(self) -> bool:
        return MOVES[self.kind].controllable

    def event(self) -> Event:
        return Event(name=self.name, observable=True, controllable=self.controllable)


def parse_decorated(name: str) -> DecoratedEvent:
    """Inverse of ``DecoratedEvent.name``; malformed decorations are errors
    rather than being read back as plain system events.  The prefix is read
    from the part before the first ``@``: up to its first ``:``, or all of it
    for a stop.  A ``:`` prefix reserves a name even without an ``@``."""
    head, at, context = name.partition("@")
    prefix, colon, base = head.partition(":")
    kind = _KIND_OF_PREFIX.get(prefix + colon)
    if kind is None or not (at or colon):
        if at:
            raise ValueError(f"malformed decorated event {name!r}")
        return DecoratedEvent(kind=SYSTEM, base=name)
    if not context or not (base or kind == STOP):
        raise ValueError(f"malformed decorated event {name!r}")
    return DecoratedEvent(kind=kind, base=base or EPSILON, context=context)


def is_plain_event_name(name: str) -> bool:
    """True iff ``name`` reads back as the system event of that name, so that
    no decorated event can be spelled like it."""
    try:
        return parse_decorated(name) == DecoratedEvent(kind=SYSTEM, base=name)
    except ValueError:
        return False


def run_label(d: DecoratedEvent) -> tuple[str, str]:
    """(transition class, TPO label) pair used to align plant traces with TPO
    runs: the label is the decoration's base, except that a stop has none and
    an erasure shows its erasure symbol."""
    label = EPSILON if d.kind == STOP else erasure_symbol(d.base) if d.kind == ERASE else d.base
    return (d.kind, label)


@dataclass(frozen=True)
class TransformedAutomaton:
    """A TPO encoded as a plant automaton plus its bookkeeping: the origin
    kind (Y/Z/W) of every state and the decoration of every event."""

    automaton: Automaton
    origins: Mapping[str, str]
    decorations: Mapping[str, DecoratedEvent]


def decoration_table(components: Iterable[TransformedAutomaton]) -> dict[str, DecoratedEvent]:
    """The decoration of every event any of ``components`` declares; a
    product of the components and their constraint has no other events."""
    table: dict[str, DecoratedEvent] = {}
    for comp in components:
        table.update(comp.decorations)
    return table


def _decorate(cls: str, label: str, pending: str | None) -> DecoratedEvent:
    """A decision's context is the pending event, a delivery's its own label;
    an erasure's base is the pending event it erases."""
    role = MOVES[cls].role
    base = EPSILON if cls == STOP else pending if cls == ERASE else label
    context = pending if role == DECISION else label if role == DELIVERY else None
    return DecoratedEvent(kind=cls, base=base, context=context)


def transform_monolithic(t: Tpo, name: str | None = None) -> TransformedAutomaton:
    """Encode one TPO as a plant automaton: the one-component case of
    ``transform_modular``, whose alphabet is the TPO's own."""
    return transform_modular([t], [t.events], names=[name or f"{t.name}^T"])[0]


def transform_modular(
    ts: Sequence[Tpo],
    alphabets: Sequence[Iterable[Event]],
    names: Sequence[str] | None = None,
) -> tuple[TransformedAutomaton, ...]:
    """Encode each component TPO as a plant automaton for modular
    composition; component ``i`` is named ``names[i]``, by default its TPO's
    name with ``^T``.

    The alphabet contains, besides the actual transitions' events, every
    decorated decision that is possible in principle for the TPO: inserts of
    any alphabet event and stops/erasures at every pending context, plus the
    deliveries that occur.  Carrying these alphabet-only decisions matters in
    products: a decision shared with another component must synchronize, so a
    component that cannot take it blocks it.

    Per component ``i`` the other components add two things: observable
    system events local to them self-loop at every Y state (so foreign
    activity cannot block ``i``), and the shared events contextualized by their
    local events enter the alphabet as insert/deliver/deliver-erased
    decorations with no transitions (so such decisions are disabled in the
    product rather than taken unilaterally).  With a single component neither
    applies, which is the monolithic encoding.

    Components may share an event only if both declare it observable and with
    the same flags: with a shared unobservable event the observer of the
    product is finer than the product of the observers, and the edit function
    is unsafe.  An unobservable event stays private to its component and
    invisible to the edit function.
    """
    names = names or [f"{t.name}^T" for t in ts]
    declared = [{ev.name: ev for ev in alphabet} for alphabet in alphabets]
    for i, events in enumerate(declared):
        reserved = sorted(label for label in events if not is_plain_event_name(label))
        if reserved:
            raise InvalidAutomaton(
                f"component {i}: event name {reserved[0]!r} is reserved: names may not contain"
                " '@' or start with 'ins:', 'erz:', 'out:' or 'drop:'"
            )
        if not {ev.name for ev in ts[i].events} <= events.keys():
            raise InvalidAutomaton(f"component {i}: TPO alphabet not covered by declared alphabet")
        for j in range(i):
            for label in sorted(events.keys() & declared[j].keys()):
                if events[label] != declared[j][label]:
                    raise InvalidAutomaton(
                        f"event {label!r} declared with conflicting flags in components {j} and {i}"
                    )
                if not events[label].observable:
                    raise InvalidAutomaton(
                        f"event {label!r} is unobservable and shared by components {j} and {i}:"
                        " a shared event must be observable"
                    )
    sigma = [{label for label, ev in events.items() if ev.observable} for events in declared]
    results = []
    for i, t in enumerate(ts):
        rendered = render_names(t.states)
        # The pending event of each state; only a Z state has one.
        pending = [fields[3] if fields[0] == Z else None for fields in t.states]
        contexts = sorted(set(pending) - {None})
        alphabet = sorted(ev.name for ev in t.events if ev.observable)
        possible = [DecoratedEvent(kind=SYSTEM, base=base) for base in alphabet]
        for context in contexts:
            possible += [DecoratedEvent(kind=INSERT, base=base, context=context) for base in alphabet]
            possible.append(DecoratedEvent(kind=STOP, base=EPSILON, context=context))
            possible.append(DecoratedEvent(kind=ERASE, base=context, context=context))
        decorations = {dec.name: dec for dec in possible}
        # Each distinct (class, label, pending event) is decorated and named once.
        labels: dict[tuple[str, str, str | None], str] = {}
        transitions: list[Transition] = []
        for src, cls, label, dst in t.transitions:
            key = (cls, label, pending[src])
            decorated = labels.get(key)
            if decorated is None:
                dec = _decorate(*key)
                labels[key] = decorated = dec.name
                decorations[decorated] = dec
            transitions.append((rendered[src], decorated, rendered[dst]))
        states = tuple(
            State(name, pos == t.initial, fields[0] == Y)
            for pos, (fields, name) in enumerate(zip(t.states, rendered))
        )

        local = sigma[i]
        foreign = set().union(*(table - local for j, table in enumerate(sigma) if j != i))
        for alpha in sorted(foreign):
            decorations[alpha] = DecoratedEvent(kind=SYSTEM, base=alpha)
            for st in states:
                if st.marked:
                    transitions.append((st.name, alpha, st.name))
        for j, table in enumerate(sigma):
            if j == i:
                continue
            shared = sorted(local & table)
            for alpha in sorted(table - local):
                for base in shared:
                    for kind in (INSERT, DELIVER, DELIVER_ERASED):
                        dec = DecoratedEvent(kind=kind, base=base, context=alpha)
                        decorations[dec.name] = dec

        automaton = Automaton(
            name=names[i],
            events=tuple(decorations[label].event() for label in sorted(decorations)),
            states=states,
            transitions=tuple(transitions),
        )
        if not automaton.is_deterministic:
            raise InvalidAutomaton("transformed TPO is not deterministic")
        origins = {name: fields[0] for fields, name in zip(t.states, rendered)}
        results.append(TransformedAutomaton(automaton=automaton, origins=origins, decorations=decorations))
    return tuple(results)
