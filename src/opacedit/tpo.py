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

A state is its ``TpoState`` value: transitions, the initial state and every
table in this module hold the values themselves.  Names are rendered only at
the boundary, by ``state_names``, for documents, DOT and the encoding.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .automata import EPSILON, Automaton, Event, InvalidAutomaton, erasure_symbol, language_upto
from .estimation import Observer, desired_observer, determinize

Y, Z, W = "Y", "Z", "W"
KINDS = (Y, Z, W)
YZ, ZZ, ZW1, ZW2, WY1, WY2 = "yz", "zz", "zw1", "zw2", "wy1", "wy2"


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
        # The committed delivery (W, not erased) carries a "!" so its name
        # cannot collide with the Z state holding the same pending event.
        core = f"({self.x_d},{self.x_f})"
        if self.kind == Z:
            core = f"({core},{self.event})"
        elif self.kind == W:
            shown = erasure_symbol(self.action) if self.erased else f"{self.action}!"
            core = f"({core},{shown})"
        if self.count is not None:
            core = f"{core}#{self.count}"
        return core


def state_names(states: Iterable[TpoState]) -> dict[TpoState, str]:
    """The rendered name of each state, computed once.  Two states that render
    alike (events named ``a`` and ``a!``, say) could not be told apart in a
    document or an encoding, so they are an error, not a silent merge."""
    names: dict[TpoState, str] = {}
    rendered: set[str] = set()
    for st in states:
        name = st.name
        if name in rendered:
            raise InvalidAutomaton(
                f"two TPO states are both named {name!r}: event names such as"
                " 'a!' or 'a→ε' beside 'a' make game states read alike"
            )
        rendered.add(name)
        names[st] = name
    return names


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


def largest_tpo(g: Automaton, name: str = "tpo") -> Tpo:
    """The largest TPO of ``g`` over its exact observer and desired observer,
    without abstraction."""
    observer = determinize(g)
    return build_largest_tpo(desired_observer(observer), observer, name=name)


def build_largest_tpo(obsd: Observer, obs: Observer, name: str = "tpo") -> Tpo:
    """Construct the largest TPO from a desired observer and a full observer.

    Every transition admissible under the game rules is present.  When the
    desired observer is empty even the empty output betrays the secret, so no
    play is winnable and the TPO itself is empty.
    """
    det_d = obsd.automaton
    det_f = obs.automaton
    if obs.initial is None or obsd.initial is None:
        return Tpo(name=name, events=det_f.events, states=(), transitions=(), initial=None)
    x_d0 = obsd.initial

    def d_succ(x_d: str, event: str) -> str | None:
        targets = det_d.successors(x_d, event)
        return targets[0] if targets else None

    def f_succ(x_f: str, event: str) -> str | None:
        targets = det_f.successors(x_f, event)
        return targets[0] if targets else None

    observable = sorted(ev.name for ev in det_f.events if ev.observable)
    # Each state maps to its first instance, so that transitions share it.
    states: dict[TpoState, TpoState] = {}
    transitions: list[TpoTransition] = []
    queue: deque[TpoState] = deque()

    def admit(state: TpoState) -> TpoState:
        known = states.get(state)
        if known is None:
            states[state] = known = state
            queue.append(state)
        return known

    y0 = admit(TpoState(kind=Y, x_d=x_d0, x_f=obs.initial))
    while queue:
        here = queue.popleft()
        if here.kind == Y:
            for event in observable:
                nxt_f = f_succ(here.x_f, event)
                if nxt_f is None:
                    continue
                z = admit(TpoState(kind=Z, x_d=here.x_d, x_f=here.x_f, event=event))
                transitions.append(TpoTransition(here, YZ, event, z))
        elif here.kind == Z:
            pending = here.event
            for theta in observable:
                nxt_d = d_succ(here.x_d, theta)
                if nxt_d is None:
                    continue
                z = admit(TpoState(kind=Z, x_d=nxt_d, x_f=here.x_f, event=pending))
                transitions.append(TpoTransition(here, ZZ, theta, z))
            if d_succ(here.x_d, pending) is not None and f_succ(here.x_f, pending) is not None:
                w = admit(TpoState(kind=W, x_d=here.x_d, x_f=here.x_f, action=pending))
                transitions.append(TpoTransition(here, ZW1, EPSILON, w))
            if f_succ(here.x_f, pending) is not None:
                w = admit(
                    TpoState(kind=W, x_d=here.x_d, x_f=here.x_f, action=pending, erased=True)
                )
                transitions.append(TpoTransition(here, ZW2, erasure_symbol(pending), w))
        else:
            event = here.action
            nxt_f = f_succ(here.x_f, event)
            if here.erased:
                if nxt_f is not None:
                    y = admit(TpoState(kind=Y, x_d=here.x_d, x_f=nxt_f))
                    transitions.append(TpoTransition(here, WY2, event, y))
            else:
                nxt_d = d_succ(here.x_d, event)
                if nxt_d is not None and nxt_f is not None:
                    y = admit(TpoState(kind=Y, x_d=nxt_d, x_f=nxt_f))
                    transitions.append(TpoTransition(here, WY1, event, y))
    return Tpo(
        name=name,
        events=det_f.events,
        states=tuple(states),
        transitions=tuple(transitions),
        initial=y0,
    )


@dataclass(frozen=True)
class Run:
    """A path through a TPO from its initial state.  ``states`` has one more
    entry than ``steps``."""

    tpo: Tpo
    states: tuple[TpoState, ...]
    steps: tuple[TpoTransition, ...]

    def __post_init__(self) -> None:
        if not self.states or self.states[0] != self.tpo.initial:
            raise ValueError("run must start at the initial state")
        if len(self.states) != len(self.steps) + 1:
            raise ValueError("run shape mismatch")
        edges = set(self.tpo.transitions)
        for i, tr in enumerate(self.steps):
            if tr.source != self.states[i] or tr.target != self.states[i + 1]:
                raise ValueError(f"step {i} does not connect its endpoints")
            if tr not in edges:
                raise ValueError(f"step {i} is not a transition of the host")


def run_string(run: Run) -> tuple[str, ...]:
    """What the intruder observes along a run: insertions in order, then the
    genuine event when it is delivered; an erased event contributes nothing."""
    output: list[str] = []
    for tr in run.steps:
        if tr.cls == ZZ:
            output.append(tr.label)
        elif tr.cls == WY1:
            output.append(tr.label)
    return tuple(output)


def edit_projection(run: Run) -> tuple[str, ...]:
    """The genuine string the system produced along a run."""
    return tuple(tr.label for tr in run.steps if tr.cls == YZ)


def iter_runs(t: Tpo, max_events: int) -> Iterator[Run]:
    """Every run with at most ``max_events`` system events, depth first.

    Insertion chains never revisit a Z state between two system events,
    which keeps the enumeration finite in the presence of insertion cycles
    while still covering every edge.
    """
    if t.initial is None:
        return
    outgoing = t.outgoing()

    def walk(
        state: TpoState, states: tuple[TpoState, ...], steps: tuple[TpoTransition, ...], events: int, chain: frozenset[TpoState]
    ) -> Iterator[Run]:
        yield Run(tpo=t, states=states, steps=steps)
        for tr in outgoing[state]:
            if tr.cls == YZ:
                if events == max_events:
                    continue
                yield from walk(tr.target, states + (tr.target,), steps + (tr,), events + 1, frozenset({tr.target}))
            elif tr.cls == ZZ:
                if tr.target in chain:
                    continue
                yield from walk(tr.target, states + (tr.target,), steps + (tr,), events, chain | {tr.target})
            else:
                yield from walk(tr.target, states + (tr.target,), steps + (tr,), events, frozenset())

    yield from walk(t.initial, (t.initial,), (), 0, frozenset({t.initial}))


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
