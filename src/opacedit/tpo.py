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

A TPO is plain data, one form for synthesis, documents, DOT and the checks:
a state is the tuple of its fields and a transition ``(source position,
class, label, target position)``.  ``MOVES`` states the six moves, keyed by
class, for every layer that needs their rules; ``build_largest_tpo`` holds the
rest of the game rules, and pruning and the checks work on positions.  Names
are rendered from a state's fields only at the boundary, by ``render_names``,
for documents, DOT and the encoding.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .automata import EPSILON, Automaton, Event, InvalidAutomaton, erasure_symbol
from .estimation import Observer, desired_observer, determinize

Y, Z, W = "Y", "Z", "W"
KINDS = (Y, Z, W)
ARRIVAL, DECISION, DELIVERY = "arrival", "decision", "delivery"
KEEP, RESET, ADD_ONE = "keep", "reset", "add one"


class Move(NamedTuple):
    source: tuple[str, bool]  # the kind and erased flag of the state it leaves
    target: tuple[str, bool]  # ... and of the state it enters
    prefix: str  # how its decorated event's name starts
    controllable: bool
    role: str  # in one runtime step: ARRIVAL, DECISION or DELIVERY
    run: str  # on the run of consecutive erasures: KEEP, RESET or ADD_ONE


# The six moves of the edit game, keyed by the transition class TPO documents
# spell: the arrival, insert, stop, erase and the two deliveries.
SYSTEM, INSERT, STOP, ERASE, DELIVER, DELIVER_ERASED = "yz", "zz", "zw1", "zw2", "wy1", "wy2"
MOVES = {
    SYSTEM: Move((Y, False), (Z, False), "", False, ARRIVAL, KEEP),
    INSERT: Move((Z, False), (Z, False), "ins:", True, DECISION, RESET),
    STOP: Move((Z, False), (W, False), "stop", True, DECISION, KEEP),
    ERASE: Move((Z, False), (W, True), "erz:", True, DECISION, ADD_ONE),
    DELIVER: Move((W, False), (Y, False), "out:", False, DELIVERY, KEEP),
    DELIVER_ERASED: Move((W, True), (Y, False), "drop:", False, DELIVERY, KEEP),
}


def run_after(move: str, run: int) -> int:
    """The run of consecutive erasures after ``move``, made with a run of ``run``."""
    effect = MOVES[move].run
    return 0 if effect == RESET else run + 1 if effect == ADD_ONE else run


def render_names(states: Iterable[tuple]) -> list[str]:
    """The name of each state, given as the tuple of its fields, rendered
    once.  Two states that render alike (events named ``a`` and ``a!``, say)
    could not be told apart in a document or an encoding, so they are an
    error, not a silent merge."""
    # The committed delivery (W, not erased) carries a "!" so its name
    # cannot collide with the Z state holding the same pending event.
    names = [
        (
            f"(({x_d},{x_f}),{event})"
            if kind == Z
            else f"(({x_d},{x_f}),{erasure_symbol(action) if erased else f'{action}!'})"
            if kind == W
            else f"({x_d},{x_f})"
        )
        + ("" if count is None else f"#{count}")
        for kind, x_d, x_f, event, action, erased, count in states
    ]
    if len(set(names)) < len(names):
        seen: set[str] = set()
        name = next(name for name in names if name in seen or seen.add(name))
        raise InvalidAutomaton(
            f"two TPO states are both named {name!r}: event names such as"
            " 'a!' or 'a→ε' beside 'a' make game states read alike"
        )
    return names


class Tpo(NamedTuple):
    """A TPO as plain data.  Each state is the tuple of its fields ``(kind,
    x_d, x_f, event, action, erased, count)``; a Z state carries its pending
    ``event``, a W state its ``action`` and whether it was ``erased``, and a
    counted state its run of consecutive erasures.  A transition is ``(source
    position, class, label, target position)`` and ``initial`` is a position.
    ``events`` is the observable alphabet the TPO plays over."""

    name: str
    events: tuple[Event, ...]
    states: Sequence[tuple]
    transitions: Sequence[tuple[int, str, str, int]]
    initial: int | None


def largest_tpo(g: Automaton, name: str = "tpo") -> Tpo:
    """The largest TPO of ``g`` over its exact observer and desired observer,
    without abstraction."""
    observer = determinize(g)
    return build_largest_tpo(desired_observer(observer), observer, name=name)


def build_largest_tpo(obsd: Observer, obs: Observer, name: str = "tpo") -> Tpo:
    """The largest TPO over a desired observer and a full observer: states in
    discovery order, the initial state first.

    Every transition admissible under the game rules is present.  When the
    desired observer is empty even the empty output betrays the secret, so no
    play is winnable and the TPO itself is empty.
    """
    det_f = obs.automaton
    if obs.initial is None or obsd.initial is None:
        return Tpo(name, det_f.events, [], [], None)
    # Each observer's (x, event) -> x'; the first listed target wins.  And per
    # x, its observable moves in event order: a Y state's arrivals, a Z's inserts.
    d_next = {(src, label): dst for src, label, dst in reversed(obsd.automaton.transitions)}
    f_next = {(src, label): dst for src, label, dst in reversed(det_f.transitions)}
    observable = {ev.name for ev in det_f.events if ev.observable}
    d_moves, f_events = {}, {}
    for (src, label), dst in sorted(d_next.items(), key=lambda move: move[0][1]):
        if label in observable:
            d_moves.setdefault(src, []).append((label, dst))
    for src, label in sorted(f_next, key=lambda move: move[1]):
        if label in observable:
            f_events.setdefault(src, []).append(label)
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
            for event in f_events.get(x_f, ()):
                transitions.append((here, SYSTEM, event, admit((Z, x_d, x_f, event, None, False, None))))
        elif kind == Z:
            for theta, nxt_d in d_moves.get(x_d, ()):
                transitions.append((here, INSERT, theta, admit((Z, nxt_d, x_f, pending, None, False, None))))
            if (x_f, pending) in f_next:
                if (x_d, pending) in d_next:
                    transitions.append((here, STOP, EPSILON, admit((W, x_d, x_f, None, pending, False, None))))
                w = admit((W, x_d, x_f, None, pending, True, None))
                transitions.append((here, ERASE, erasure_symbol(pending), w))
        else:
            # a W state is admitted only where ``(x_f, action)`` moves
            nxt_f = f_next[(x_f, action)]
            if erased:
                transitions.append((here, DELIVER_ERASED, action, admit((Y, x_d, nxt_f, None, None, False, None))))
            elif (nxt_d := d_next.get((x_d, action))) is not None:
                transitions.append((here, DELIVER, action, admit((Y, nxt_d, nxt_f, None, None, False, None))))
    return Tpo(name, det_f.events, states, transitions, 0)


def _successors(t: Tpo) -> list[list[tuple[str, str, int]]]:
    """The ``(class, label, target)`` moves out of each position of ``t``."""
    table: list[list[tuple[str, str, int]]] = [[] for _ in t.states]
    for src, cls, label, dst in t.transitions:
        table[src].append((cls, label, dst))
    return table


def check_complete(t: Tpo, g: Automaton) -> bool:
    """A TPO is complete when no Z or W state deadlocks and every observable
    string of ``g`` is the event projection of some run.

    The second condition is decided by one breadth-first walk over pairs (a
    state of ``g``'s observer, the set of Y positions of ``t`` its strings
    reach through the Y-to-Y segment relation) to a fixpoint; both sides are
    finite, so the answer covers strings of every length.
    """
    moves = _successors(t)
    if any(fields[0] != Y and not moves[pos] for pos, fields in enumerate(t.states)):
        return False
    observer = determinize(g).automaton
    if t.initial is None:
        return not observer.transitions

    # Y-level step relation: y -e-> y' iff some decision chain completes e.
    segment: dict[tuple[int, str], set[int]] = {}
    for pos, fields in enumerate(t.states):
        if fields[0] != Y:
            continue
        for _, label, z in moves[pos]:
            seen_z = set()
            frontier = [z]
            targets: set[int] = set()
            while frontier:
                here = frontier.pop()
                if here in seen_z:
                    continue
                seen_z.add(here)
                for cls, _, nxt in moves[here]:
                    if cls == INSERT:
                        frontier.append(nxt)
                    elif cls in (STOP, ERASE):
                        targets.update(dst for _, _, dst in moves[nxt])
            segment[(pos, label)] = targets

    queue = deque((x, frozenset({t.initial})) for x in observer.initial_states)
    seen = set(queue)
    while queue:
        x, ys = queue.popleft()
        for event, dst in observer.outgoing(x):
            reached = frozenset().union(*(segment.get((y, event), ()) for y in ys))
            if not reached:
                return False
            if (dst, reached) not in seen:
                seen.add((dst, reached))
                queue.append((dst, reached))
    return True


def constrain_erasures(t: Tpo, max_erasures: int) -> Tpo:
    """Annotate states with the running count of consecutive erasures and drop
    the decisions that would exceed ``max_erasures``.

    Each move changes the count as ``MOVES`` says: insertion resets it,
    erasure adds one and a stop decision leaves it unchanged (passing a
    genuine event through does not license further erasures).  Erasing at
    count ``max_erasures`` is not admissible, so no state with count
    ``max_erasures + 1`` is ever created.  States are listed breadth first
    from the initial one.
    """
    if max_erasures < 0:
        raise ValueError("max_erasures must be nonnegative")
    name = f"{t.name}|k={max_erasures}"
    if t.initial is None:
        return Tpo(name, t.events, [], [], None)
    moves = _successors(t)
    # Each annotated state as (position in ``t``, count); the list doubles
    # as the queue.
    index: dict[tuple[int, int], int] = {}
    annotated: list[tuple[int, int]] = []
    transitions: list[tuple[int, str, str, int]] = []

    def admit(key: tuple[int, int]) -> int:
        pos = index.get(key)
        if pos is None:
            index[key] = pos = len(annotated)
            annotated.append(key)
        return pos

    admit((t.initial, 0))
    for here, (base, count) in enumerate(annotated):
        for cls, label, dst in moves[base]:
            if (nxt := run_after(cls, count)) <= max_erasures:
                transitions.append((here, cls, label, admit((dst, nxt))))
    # The count is a state's last field.
    states = [t.states[base][:-1] + (count,) for base, count in annotated]
    return Tpo(name, t.events, states, transitions, 0)


def prune_to_aes(t: Tpo, max_erasures: int) -> Tpo:
    """The largest complete substructure respecting the erasure bound.

    Starting from the count-annotated TPO, repeatedly remove Z and W states
    from which no Y state is reachable (deadlocked ones included, but also
    decision cycles that never hand control back) and Y states with a system
    event into a removed Z state, then keep the reachable part, in the
    annotated TPO's order.  An empty result means opacity cannot be enforced
    under the bound.
    """
    annotated = constrain_erasures(t, max_erasures)
    name = f"{t.name}|aes"
    is_y = [fields[0] == Y for fields in annotated.states]
    alive = set(range(len(annotated.states)))
    while True:
        outgoing: dict[int, list[tuple[str, int]]] = {pos: [] for pos in alive}
        incoming: dict[int, list[int]] = {pos: [] for pos in alive}
        for src, cls, _, dst in annotated.transitions:
            if src in alive and dst in alive:
                outgoing[src].append((cls, dst))
                incoming[dst].append(src)
        coaccessible = {pos for pos in alive if is_y[pos]}
        frontier = deque(coaccessible)
        while frontier:
            for src in incoming[frontier.popleft()]:
                if src not in coaccessible:
                    coaccessible.add(src)
                    frontier.append(src)
        doomed = alive - coaccessible
        doomed |= {
            pos
            for pos in coaccessible
            if is_y[pos] and any(cls == SYSTEM and dst in doomed for cls, dst in outgoing[pos])
        }
        if not doomed:
            break
        alive -= doomed
    if annotated.initial not in alive:
        return Tpo(name, t.events, [], [], None)
    reachable = {annotated.initial}
    queue = deque([annotated.initial])
    # The last pass removed nothing, so ``outgoing`` is the alive graph.
    while queue:
        for _, dst in outgoing[queue.popleft()]:
            if dst not in reachable:
                reachable.add(dst)
                queue.append(dst)
    kept = sorted(reachable)
    position = {old: new for new, old in enumerate(kept)}
    return Tpo(
        name,
        t.events,
        [annotated.states[old] for old in kept],
        [
            (position[src], cls, label, position[dst])
            for src, cls, label, dst in annotated.transitions
            if src in position and dst in position
        ],
        position[annotated.initial],
    )
