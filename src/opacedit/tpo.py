"""Three-player observers (TPOs) and their pruning into the edit structure.

A TPO unfolds the interaction between the system, an edit function and an
intruder.  Y states ``(x_d, x_f)`` pair the intruder's estimate ``x_d`` (a
state of the desired observer) with the full estimate ``x_f`` (a state of the
observer); they wait for the system.  When the system produces an observable
event ``e`` the game moves to the Z state ``((x_d, x_f), e)`` where the edit
function picks decisions: insert fictitious events (which advance ``x_d``
only), stop inserting and deliver ``e`` (advancing both estimates), or erase
``e`` (advancing ``x_f`` only).  W states record the committed decision; the
delivery returns to a Y state.

The largest TPO contains every admissible transition.  Pruning enforces an
upper bound on consecutive erasures by annotating states with the current
erasure count (insertions reset the count; delivering a genuine event after a
stop decision does not), then repeatedly removes dead ends: Z states with no
decision, W states with no delivery, and Y states one of whose system events
leads into a removed Z state.  Y states with no outgoing transition are legal:
the system may simply have nothing left to say.

``explore_largest_tpo`` holds the game rules, over plain data: a state is the
tuple of its fields, a transition ``(source position, class, label, target
position)``; synthesis encodes that data directly.  ``build_largest_tpo``
wraps it into a graph, where a state is its ``TpoState`` value: transitions,
the initial state and every table in this module hold the values themselves.
Names are rendered from a state's fields only at the boundary, by
``state_name``, for documents, DOT and the encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

from .automata import EPSILON, Automaton, Event, InvalidAutomaton, erasure_symbol, language_upto
from .estimation import Observer, desired_observer, determinize

Y, Z, W = "Y", "Z", "W"
KINDS = (Y, Z, W)
YZ, ZZ, ZW1, ZW2, WY1, WY2 = "yz", "zz", "zw1", "zw2", "wy1", "wy2"
# Per transition class: the kind and erased flag of its source and target.
ENDPOINTS = {
    YZ: ((Y, False), (Z, False)),
    ZZ: ((Z, False), (Z, False)),
    ZW1: ((Z, False), (W, False)),
    ZW2: ((Z, False), (W, True)),
    WY1: ((W, False), (Y, False)),
    WY2: ((W, True), (Y, False)),
}


@dataclass(frozen=True)
class TpoState:
    kind: str
    x_d: str
    x_f: str
    event: str | None = None
    action: str | None = None
    erased: bool = False
    count: int | None = None

    @property
    def name(self) -> str:
        return state_name(self.kind, self.x_d, self.x_f, self.event, self.action, self.erased, self.count)


def state_name(
    kind: str,
    x_d: str,
    x_f: str,
    event: str | None = None,
    action: str | None = None,
    erased: bool = False,
    count: int | None = None,
) -> str:
    """The name of the state with these fields (those of ``TpoState``)."""
    # The committed delivery (W, not erased) carries a "!" so its name
    # cannot collide with the Z state holding the same pending event.
    core = f"({x_d},{x_f})"
    if kind == Z:
        core = f"({core},{event})"
    elif kind == W:
        shown = erasure_symbol(action) if erased else f"{action}!"
        core = f"({core},{shown})"
    if count is not None:
        core = f"{core}#{count}"
    return core


def render_names(states: Iterable[tuple]) -> list[str]:
    """The name of each state, given as the tuple of its fields, rendered
    once.  Two states that render alike (events named ``a`` and ``a!``, say)
    could not be told apart in a document or an encoding, so they are an
    error, not a silent merge."""
    names: list[str] = []
    rendered: set[str] = set()
    for fields in states:
        name = state_name(*fields)
        if name in rendered:
            raise InvalidAutomaton(
                f"two TPO states are both named {name!r}: event names such as"
                " 'a!' or 'a→ε' beside 'a' make game states read alike"
            )
        rendered.add(name)
        names.append(name)
    return names


def state_fields(st: TpoState) -> tuple:
    """The fields of ``st``, as the plain form holds a state."""
    return (st.kind, st.x_d, st.x_f, st.event, st.action, st.erased, st.count)


def state_names(states: Iterable[TpoState]) -> dict[TpoState, str]:
    """The rendered name of each state, as ``render_names`` gives it."""
    states = tuple(states)
    return dict(zip(states, render_names(map(state_fields, states))))


@dataclass(frozen=True)
class TpoTransition:
    source: TpoState
    cls: str
    label: str
    target: TpoState


@dataclass(frozen=True)
class Tpo:
    """An explicit TPO graph.  ``events`` is the observable alphabet it plays
    over.  Each state is identified by its ``TpoState`` value, which the
    transitions and ``initial`` hold directly; ``state_names`` renders names
    for the boundary."""

    name: str
    events: tuple[Event, ...]
    states: tuple[TpoState, ...]
    transitions: tuple[TpoTransition, ...]
    initial: TpoState | None

    def outgoing(self) -> dict[TpoState, list[TpoTransition]]:
        table: dict[TpoState, list[TpoTransition]] = {st: [] for st in self.states}
        for tr in self.transitions:
            table[tr.source].append(tr)
        return table


class PlainTpo(NamedTuple):
    """A TPO as plain data: each state as the tuple of its ``TpoState``
    fields, each transition as ``(source position, class, label, target
    position)`` and the initial state by its position."""

    events: tuple[Event, ...]
    states: Sequence[tuple]
    transitions: Sequence[tuple[int, str, str, int]]
    initial: int | None


def largest_tpo(g: Automaton, name: str = "tpo") -> Tpo:
    """The largest TPO of ``g`` over its exact observer and desired observer,
    without abstraction."""
    observer = determinize(g)
    return build_largest_tpo(desired_observer(observer), observer, name=name)


def explore_largest_tpo(obsd: Observer, obs: Observer) -> PlainTpo:
    """The largest TPO over a desired observer and a full observer, as plain
    data: states in discovery order, the initial state first.

    Every transition admissible under the game rules is present.  When the
    desired observer is empty even the empty output betrays the secret, so no
    play is winnable and the TPO itself is empty.
    """
    det_f = obs.automaton
    if obs.initial is None or obsd.initial is None:
        return PlainTpo(det_f.events, [], [], None)
    # Each observer's (x, event) -> x'; the first target wins, as in ``successors``.
    d_next = {(src, label): dst for src, label, dst in reversed(obsd.automaton.transitions)}
    f_next = {(src, label): dst for src, label, dst in reversed(det_f.transitions)}
    observable = sorted(ev.name for ev in det_f.events if ev.observable)
    # A state is found by its fields; ``states`` doubles as the queue.
    index: dict[tuple, int] = {}
    states: list[tuple] = []
    transitions: list[tuple[int, str, str, int]] = []

    def admit(fields: tuple) -> int:
        pos = index.get(fields)
        if pos is None:
            index[fields] = pos = len(states)
            states.append(fields)
        return pos

    admit((Y, obsd.initial, obs.initial, None, None, False, None))
    for here, (kind, x_d, x_f, pending, action, erased, _) in enumerate(states):
        if kind == Y:
            for event in observable:
                if (x_f, event) in f_next:
                    transitions.append((here, YZ, event, admit((Z, x_d, x_f, event, None, False, None))))
        elif kind == Z:
            for theta in observable:
                nxt_d = d_next.get((x_d, theta))
                if nxt_d is not None:
                    transitions.append((here, ZZ, theta, admit((Z, nxt_d, x_f, pending, None, False, None))))
            if (x_f, pending) in f_next:
                if (x_d, pending) in d_next:
                    transitions.append((here, ZW1, EPSILON, admit((W, x_d, x_f, None, pending, False, None))))
                w = admit((W, x_d, x_f, None, pending, True, None))
                transitions.append((here, ZW2, erasure_symbol(pending), w))
        else:
            nxt_f = f_next.get((x_f, action))
            if nxt_f is None:
                continue
            if erased:
                transitions.append((here, WY2, action, admit((Y, x_d, nxt_f, None, None, False, None))))
            elif (nxt_d := d_next.get((x_d, action))) is not None:
                transitions.append((here, WY1, action, admit((Y, nxt_d, nxt_f, None, None, False, None))))
    return PlainTpo(det_f.events, states, transitions, 0)


def build_largest_tpo(obsd: Observer, obs: Observer, name: str = "tpo") -> Tpo:
    """The largest TPO of ``explore_largest_tpo`` as a graph of ``TpoState``
    values, with the same states, transitions and order."""
    plain = explore_largest_tpo(obsd, obs)
    states = tuple(TpoState(*fields) for fields in plain.states)
    return Tpo(
        name=name,
        events=plain.events,
        states=states,
        transitions=tuple(
            TpoTransition(states[src], cls, label, states[dst]) for src, cls, label, dst in plain.transitions
        ),
        initial=None if plain.initial is None else states[plain.initial],
    )


def check_complete(t: Tpo, g: Automaton, depth: int) -> bool:
    """A TPO is complete when no Z or W state deadlocks and every observable
    string of ``g`` (up to ``depth``) is the event projection of some run.

    The second condition is checked by joint reachability between the string
    sets of ``g`` and the Y-to-Y segment relation of ``t``, not by enumerating
    runs.
    """
    outgoing = t.outgoing()
    for st in t.states:
        if st.kind in (Z, W) and not outgoing[st]:
            return False
    if t.initial is None:
        return not language_upto(g, depth) - {()}

    # Y-level step relation: y -e-> y' iff some decision chain completes e.
    segment: dict[tuple[TpoState, str], set[TpoState]] = {}
    for st in t.states:
        if st.kind != Y:
            continue
        for tr in outgoing[st]:
            seen_z = set()
            frontier = [tr.target]
            targets: set[TpoState] = set()
            while frontier:
                here = frontier.pop()
                if here in seen_z:
                    continue
                seen_z.add(here)
                for step in outgoing[here]:
                    if step.cls == ZZ:
                        frontier.append(step.target)
                    elif step.cls in (ZW1, ZW2):
                        for deliver in outgoing[step.target]:
                            targets.add(deliver.target)
            segment[(st, tr.label)] = targets

    silent_language = language_upto(g, depth)
    by_prefix: dict[tuple[str, ...], set[TpoState]] = {(): {t.initial}}
    queue = deque([()])
    while queue:
        prefix = queue.popleft()
        ys = by_prefix[prefix]
        extensions = {s[len(prefix)] for s in silent_language if len(s) > len(prefix) and s[: len(prefix)] == prefix}
        for event in extensions:
            nxt: set[TpoState] = set().union(*(segment.get((y, event), ()) for y in ys))
            if not nxt:
                return False
            extended = prefix + (event,)
            if extended not in by_prefix:
                by_prefix[extended] = nxt
                queue.append(extended)
    return True


def constrain_erasures(t: Tpo, max_erasures: int) -> Tpo:
    """Annotate states with the running count of consecutive erasures and drop
    the decisions that would exceed ``max_erasures``.

    Insertion resets the count; a stop decision leaves it unchanged (passing a
    genuine event through does not license further erasures).  Erasing at
    count ``max_erasures`` is not admissible, so no state with count
    ``max_erasures + 1`` is ever created.
    """
    if t.initial is None:
        return Tpo(name=f"{t.name}|k={max_erasures}", events=t.events, states=(), transitions=(), initial=None)
    outgoing = t.outgoing()
    states: dict[TpoState, TpoState] = {}
    transitions: list[TpoTransition] = []
    queue: deque[TpoState] = deque()

    def admit(base: TpoState, count: int) -> TpoState:
        annotated = replace(base, count=count)
        known = states.get(annotated)
        if known is None:
            states[annotated] = known = annotated
            queue.append(annotated)
        return known

    start = admit(t.initial, 0)
    while queue:
        here = queue.popleft()
        for tr in outgoing[replace(here, count=None)]:
            if tr.cls == ZZ:
                count = 0
            elif tr.cls == ZW2:
                if here.count >= max_erasures:
                    continue
                count = here.count + 1
            else:
                count = here.count
            nxt = admit(tr.target, count)
            transitions.append(TpoTransition(here, tr.cls, tr.label, nxt))
    return Tpo(
        name=f"{t.name}|k={max_erasures}",
        events=t.events,
        states=tuple(states),
        transitions=tuple(transitions),
        initial=start,
    )


def prune_to_aes(t: Tpo, max_erasures: int) -> Tpo:
    """The largest complete substructure respecting the erasure bound.

    Starting from the count-annotated TPO, repeatedly remove Z and W states
    from which no Y state is reachable (deadlocked ones included, but also
    decision cycles that never hand control back) and Y states with a system
    event into a removed Z state, then keep the reachable part.  An empty
    result means opacity cannot be enforced under the bound.
    """
    annotated = constrain_erasures(t, max_erasures)
    alive = set(annotated.states)
    while True:
        outgoing: dict[TpoState, list[TpoTransition]] = {st: [] for st in alive}
        incoming: dict[TpoState, list[TpoState]] = {st: [] for st in alive}
        for tr in annotated.transitions:
            if tr.source in alive and tr.target in alive:
                outgoing[tr.source].append(tr)
                incoming[tr.target].append(tr.source)
        coaccessible = {st for st in alive if st.kind == Y}
        frontier = deque(coaccessible)
        while frontier:
            here = frontier.popleft()
            for src in incoming[here]:
                if src not in coaccessible:
                    coaccessible.add(src)
                    frontier.append(src)
        doomed = alive - coaccessible
        for st in alive:
            if st.kind == Y:
                for tr in outgoing[st]:
                    if tr.cls == YZ and tr.target in doomed:
                        doomed.add(st)
                        break
        if not doomed:
            break
        alive -= doomed
    if annotated.initial not in alive:
        return Tpo(name=f"{t.name}|aes", events=t.events, states=(), transitions=(), initial=None)
    reachable = {annotated.initial}
    queue = deque([annotated.initial])
    # The last pass removed nothing, so ``outgoing`` is the alive graph.
    while queue:
        here = queue.popleft()
        for tr in outgoing[here]:
            if tr.target not in reachable:
                reachable.add(tr.target)
                queue.append(tr.target)
    states = tuple(st for st in annotated.states if st in reachable)
    transitions = tuple(
        tr for tr in annotated.transitions if tr.source in reachable and tr.target in reachable
    )
    return Tpo(
        name=f"{t.name}|aes",
        events=t.events,
        states=states,
        transitions=transitions,
        initial=annotated.initial,
    )
