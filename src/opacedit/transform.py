"""Encoding TPOs as plant automata for supervisory control.

Each TPO transition class becomes a decorated event: the pending event is the
context, so identical decisions taken under different pending events stay
distinguishable.  System arrivals and deliveries are uncontrollable; insert,
stop and erase decisions are controllable.  Y states are marked; the result
is deterministic by construction.

Serialized decorated-event names:

    system e        ->  e
    insert theta    ->  ins:theta@context
    stop            ->  stop@context
    erase e         ->  erz:e@e
    deliver e       ->  out:e@e
    deliver erased  ->  drop:e@e

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
from .tpo import Tpo, TpoTransition, Y, YZ, Z, ZW1, ZW2, ZZ, WY1, WY2, state_names

SYSTEM = "system"
INSERT = "insert"
STOP = "stop"
ERASE = "erase"
DELIVER = "deliver"
DELIVER_ERASED = "deliver-erased"

_CONTROLLABLE = {INSERT: True, STOP: True, ERASE: True, SYSTEM: False, DELIVER: False, DELIVER_ERASED: False}
_CLASS_OF = {SYSTEM: YZ, INSERT: ZZ, STOP: ZW1, ERASE: ZW2, DELIVER: WY1, DELIVER_ERASED: WY2}


@dataclass(frozen=True)
class DecoratedEvent:
    """An edit decision or system move, tagged with its pending-event context."""

    kind: str
    base: str
    context: str | None = None

    @property
    def name(self) -> str:
        if self.kind == SYSTEM:
            return self.base
        if self.kind == INSERT:
            return f"ins:{self.base}@{self.context}"
        if self.kind == STOP:
            return f"stop@{self.context}"
        if self.kind == ERASE:
            return f"erz:{self.base}@{self.context}"
        if self.kind == DELIVER:
            return f"out:{self.base}@{self.context}"
        if self.kind == DELIVER_ERASED:
            return f"drop:{self.base}@{self.context}"
        raise ValueError(f"unknown decoration kind {self.kind!r}")

    @property
    def controllable(self) -> bool:
        return _CONTROLLABLE[self.kind]

    @property
    def transition_class(self) -> str:
        return _CLASS_OF[self.kind]

    def event(self) -> Event:
        return Event(name=self.name, observable=True, controllable=self.controllable)


_PREFIX_KIND = {"ins": INSERT, "erz": ERASE, "out": DELIVER, "drop": DELIVER_ERASED}


def parse_decorated(name: str) -> DecoratedEvent:
    """Inverse of ``DecoratedEvent.name``; malformed decorations are errors
    rather than being read back as plain system events."""
    prefix, sep, rest = name.partition(":")
    if sep and prefix in _PREFIX_KIND:
        base, at, context = rest.partition("@")
        if not at or not base or not context:
            raise ValueError(f"malformed decorated event {name!r}")
        return DecoratedEvent(kind=_PREFIX_KIND[prefix], base=base, context=context)
    if name.startswith("stop@"):
        context = name[5:]
        if not context:
            raise ValueError(f"malformed decorated event {name!r}")
        return DecoratedEvent(kind=STOP, base=EPSILON, context=context)
    if "@" in name:
        raise ValueError(f"malformed decorated event {name!r}")
    return DecoratedEvent(kind=SYSTEM, base=name)


def is_plain_event_name(name: str) -> bool:
    """True iff ``name`` reads back as the system event of that name, so that
    no decorated event can be spelled like it."""
    try:
        return parse_decorated(name) == DecoratedEvent(kind=SYSTEM, base=name)
    except ValueError:
        return False


def rename(d: DecoratedEvent) -> str | None:
    """Strip the decoration back to the edit symbol it denotes: inserted and
    delivered events keep their base name, a stop maps to the empty string
    (returned as None) and an erasure maps to its erasure symbol."""
    if d.kind == STOP:
        return None
    if d.kind == ERASE:
        return erasure_symbol(d.base)
    return d.base


def run_label(d: DecoratedEvent) -> tuple[str, str]:
    """(transition class, renamed label) pair used to align plant traces with
    TPO runs."""
    renamed = rename(d)
    return (d.transition_class, EPSILON if renamed is None else renamed)


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


_TPO_KIND = {YZ: SYSTEM, ZZ: INSERT, ZW1: STOP, ZW2: ERASE, WY1: DELIVER, WY2: DELIVER_ERASED}


def _decorate(tr: TpoTransition, pending: str) -> DecoratedEvent:
    kind = _TPO_KIND[tr.cls]
    if kind == SYSTEM:
        return DecoratedEvent(kind=SYSTEM, base=tr.label)
    if kind == INSERT:
        return DecoratedEvent(kind=INSERT, base=tr.label, context=pending)
    if kind == STOP:
        return DecoratedEvent(kind=STOP, base=EPSILON, context=pending)
    if kind == ERASE:
        return DecoratedEvent(kind=ERASE, base=pending, context=pending)
    if kind == DELIVER:
        return DecoratedEvent(kind=DELIVER, base=tr.label, context=tr.label)
    return DecoratedEvent(kind=DELIVER_ERASED, base=tr.label, context=tr.label)


def transform_monolithic(t: Tpo, name: str | None = None) -> TransformedAutomaton:
    """Encode one TPO as a plant automaton: the one-component case of
    ``transform_modular``, whose alphabet is the TPO's own."""
    return transform_modular([t], [t.events], names=[name or f"{t.name}^T"])[0]


def transform_modular(
    ts: Sequence[Tpo],
    alphabets: Sequence[Iterable[Event]],
    names: Sequence[str] | None = None,
) -> tuple[TransformedAutomaton, ...]:
    """Encode each component TPO as a plant automaton for modular composition.

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
        rendered = state_names(t.states)
        contexts = sorted({st.event for st in t.states if st.kind == Z})
        alphabet = sorted(ev.name for ev in t.events if ev.observable)
        decorations: dict[str, DecoratedEvent] = {}
        for base in alphabet:
            decorations[base] = DecoratedEvent(kind=SYSTEM, base=base)
        for context in contexts:
            for base in alphabet:
                dec = DecoratedEvent(kind=INSERT, base=base, context=context)
                decorations[dec.name] = dec
            for dec in (
                DecoratedEvent(kind=STOP, base=EPSILON, context=context),
                DecoratedEvent(kind=ERASE, base=context, context=context),
            ):
                decorations[dec.name] = dec
        # Each distinct (class, label, pending event) is decorated and named
        # once; consecutive transitions from one source look its name up once.
        labels: dict[tuple[str, str, str | None], str] = {}
        transitions: list[Transition] = []
        source = src_name = None
        for tr in t.transitions:
            if tr.source is not source:
                source = tr.source
                src_name = rendered[source]
            key = (tr.cls, tr.label, source.event if source.kind == Z else None)
            label = labels.get(key)
            if label is None:
                dec = _decorate(tr, key[2])
                labels[key] = label = dec.name
                decorations[label] = dec
            transitions.append((src_name, label, rendered[tr.target]))
        start = rendered.get(t.initial)
        states = tuple(
            State(name=name, initial=(name == start), marked=(st.kind == Y), secret=False)
            for st, name in rendered.items()
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
                    for dec in (
                        DecoratedEvent(kind=INSERT, base=base, context=alpha),
                        DecoratedEvent(kind=DELIVER, base=base, context=alpha),
                        DecoratedEvent(kind=DELIVER_ERASED, base=base, context=alpha),
                    ):
                        decorations[dec.name] = dec

        automaton = Automaton(
            name=names[i] if names else f"{t.name}^T",
            events=tuple(decorations[label].event() for label in sorted(decorations)),
            states=states,
            transitions=tuple(transitions),
        )
        if not automaton.is_deterministic:
            raise InvalidAutomaton("transformed TPO is not deterministic")
        origins = {name: st.kind for st, name in rendered.items()}
        results.append(TransformedAutomaton(automaton=automaton, origins=origins, decorations=decorations))
    return tuple(results)
