"""Executing a synthesized edit structure event by event.

A session sits at a supervisor state where every component is at a Y origin.
Each step feeds one genuine system event and plays one round, in the roles
``tpo.MOVES`` gives the moves: the uncontrollable arrival; decisions, from an
explicit override list and then from the session policy, up to and including
the first stop or erasure; one delivery, back to a Y state.  Anything else
raises ``StepError``.  The step's emitted string is what the intruder
observes: insertions in order, then the genuine event unless it was erased.

Policies:

* ``pass-through``: deliver the genuine event if any stop decision is
  reachable through insertions (shortest chain, lexicographic tie-break),
  otherwise erase as early as possible.
* ``lexicographic``: always take the lexicographically smallest enabled
  decision, with an insertion budget per step.
* ``random``: seeded uniform choice among enabled decisions with the same
  insertion budget, falling back to ``lexicographic`` once exhausted.

Sessions of one structure share its runtime tables (``RuntimeTables``, built
once per structure on first use): the decorations, the sorted edges of each
supervisor state and the Y states.  Under ``pass-through`` and
``lexicographic`` a step without overrides depends only on the Y state, the
event and the insertion budget, so the tables also keep a step cache: the
first such step is searched and its result stored once it succeeds; every
later one is answered from the cache.  ``random`` steps, steps with overrides
and failing steps are always searched and never stored.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .tpo import DECISION, DELIVER, DELIVERY, ERASE, INSERT, MOVES, STOP, SYSTEM
from .transform import DecoratedEvent, decoration_table

if TYPE_CHECKING:
    from .synthesis import ModularEditStructure

POLICIES = ("pass-through", "lexicographic", "random")
_DECISIONS = tuple(kind for kind, move in MOVES.items() if move.role == DECISION)
_DELIVERIES = tuple(kind for kind, move in MOVES.items() if move.role == DELIVERY)
# The decisions that end the edit of one event: a stop or an erasure.
_CLOSING = tuple(kind for kind in _DECISIONS if kind != INSERT)
# The policies whose steps depend only on (state, event, insertion budget).
_CACHED_POLICIES = ("pass-through", "lexicographic")


class StepError(ValueError):
    """Raised when a step cannot be executed: unknown or disabled event, an
    override the supervisor forbids, or moves that do not make one round."""


@dataclass(frozen=True)
class StepResult:
    emitted: tuple[str, ...]
    state: str
    decisions: tuple[str, ...]


Edge = tuple[str, DecoratedEvent, str]
# (policy, insertion budget, Y state, genuine event)
StepKey = tuple[str, int, str, str]


@dataclass(eq=False)
class RuntimeTables:
    """What every session of one structure reads, built once per structure
    (``ModularEditStructure.runtime_tables``): the decoration of each event,
    each supervisor state's edges sorted by label, the Y states and the
    default insertion budget.  ``steps`` maps a cacheable step to the labels
    it appends to the trace and its result; it fills as steps succeed."""

    decorations: Mapping[str, DecoratedEvent]
    edges: Mapping[str, list[Edge]]
    y_states: frozenset[str]
    insertion_budget: int
    steps: dict[StepKey, tuple[tuple[str, ...], StepResult]] = field(default_factory=dict)

    @classmethod
    def of(cls, m: ModularEditStructure) -> RuntimeTables:
        supervisor = m.supervisor
        decorations = decoration_table(m.components)
        edges: dict[str, list[Edge]] = {}
        for src, label, dst in supervisor.transitions:
            edges.setdefault(src, []).append((label, decorations[label], dst))
        for state in edges:
            edges[state].sort(key=lambda item: item[0])
        y_states = supervisor.marked_states
        z_states = len(supervisor.states) - len(y_states)
        return cls(decorations, edges, y_states, max(2, 2 * z_states))


@dataclass
class Session:
    """One run through a structure.  The tables are the structure's own and
    shared with every other session on it, step cache included."""

    policy: str
    rng: random.Random
    insertion_budget: int
    current: str
    _tables: RuntimeTables = field(repr=False)
    consumed: list[str] = field(default_factory=list)
    emitted: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    def outgoing(self, state: str) -> list[Edge]:
        return self._tables.edges.get(state, [])

    def at_y(self) -> bool:
        """True iff every component is at a Y origin in the current state."""
        return self.current in self._tables.y_states

    @property
    def _decorations(self) -> Mapping[str, DecoratedEvent]:
        return self._tables.decorations


def open_session(
    m: ModularEditStructure,
    policy: str = "pass-through",
    seed: int | None = None,
) -> Session:
    """Start a session at the supervisor's initial state, on the structure's
    shared runtime tables."""
    if policy not in POLICIES:
        raise StepError(f"unknown policy {policy!r}; choose one of {', '.join(POLICIES)}")
    if m.is_empty():
        raise StepError("supervisor is empty: no edit function exists under the constraint")
    tables = m.runtime_tables
    return Session(
        policy=policy,
        rng=random.Random(seed),
        insertion_budget=tables.insertion_budget,
        current=m.supervisor.initial_states[0],
        _tables=tables,
    )


def _enabled(session: Session, kinds: tuple[str, ...]) -> list[Edge]:
    return [item for item in session.outgoing(session.current) if item[1].kind in kinds]


def _chain_to_decision(session: Session, want: tuple[str, ...]) -> list[Edge] | None:
    """Shortest chain of insert edges leading to a state with an enabled
    decision among ``want``; ties broken by lexicographic edge order."""
    chains: dict[str, list[Edge]] = {session.current: []}
    queue = deque([session.current])
    while queue:
        here = queue.popleft()
        for edge in session.outgoing(here):
            if edge[1].kind in want:
                return chains[here] + [edge]
        for edge in session.outgoing(here):
            if edge[1].kind == INSERT and edge[2] not in chains:
                chains[edge[2]] = chains[here] + [edge]
                queue.append(edge[2])
    return None


def _policy_chain(session: Session, inserted: int) -> list[Edge] | None:
    """The decisions the session policy takes next at the current state, after
    ``inserted`` policy insertions in this step: one decision, or a chain of
    insertions ending in a stop or an erasure.  None when there is none."""
    if session.policy == "pass-through":
        return _chain_to_decision(session, (STOP,)) or _chain_to_decision(session, (ERASE,))
    decisions = _enabled(session, _DECISIONS)
    if inserted >= session.insertion_budget:
        decisions = [d for d in decisions if d[1].kind in _CLOSING]
        if not decisions:
            return _chain_to_decision(session, _CLOSING)
    if not decisions:
        return None
    if session.policy == "random":
        return [session.rng.choice(decisions)]
    return decisions[:1]


def step(session: Session, event: str, overrides: Sequence[str] | None = None) -> StepResult:
    """Feed one genuine system event through the edit structure as one round:
    its arrival, decisions up to the first stop or erasure, one delivery.

    ``overrides`` forces the leading decisions by their decorated names; once
    exhausted the session policy finishes the step.  The session state only
    changes when the whole step succeeds.  A ``pass-through`` or
    ``lexicographic`` step without overrides is answered from the
    structure's step cache once it has succeeded before.
    """
    key = None
    if not overrides and session.policy in _CACHED_POLICIES:
        key = (session.policy, session.insertion_budget, session.current, event)
        hit = session._tables.steps.get(key)
        if hit is not None:
            labels, result = hit
            session.trace.extend(labels)
            session.current = result.state
            session.consumed.append(event)
            session.emitted.extend(result.emitted)
            return result
    saved_state, saved_depth = session.current, len(session.trace)
    emitted: list[str] = []
    decisions: list[str] = []
    forced = deque(overrides or ())
    inserted = 0
    try:
        if not session.at_y():
            raise StepError(f"session is mid-decision at {session.current}")
        turn = [
            item
            for item in session.outgoing(session.current)
            if item[1].kind == SYSTEM and item[1].base == event
        ][:1]
        if not turn:
            if event not in session._decorations:
                raise StepError(f"unknown event {event!r}")
            raise StepError(f"event {event!r} is not enabled at {session.current}")
        # ``dec`` is the last move fired.
        while True:
            for label, dec, target in turn:
                session.trace.append(label)
                session.current = target
                if dec.kind in (INSERT, DELIVER):
                    emitted.append(dec.base)
                if dec.kind in _DECISIONS:
                    decisions.append(label)
            if dec.kind in _DELIVERIES:
                break
            if dec.kind in _CLOSING:
                turn = _enabled(session, _DELIVERIES)[:1]
                if not turn:
                    raise StepError(f"no delivery available at {session.current}")
            elif forced:
                wanted = forced.popleft()
                enabled = {item[0]: item for item in _enabled(session, _DECISIONS)}
                if wanted not in enabled:
                    choices = ", ".join(sorted(enabled)) or "none"
                    raise StepError(
                        f"decision {wanted!r} is not permitted at {session.current} (enabled: {choices})"
                    )
                turn = [enabled[wanted]]
            else:
                turn = _policy_chain(session, inserted)
                if turn is None:
                    raise StepError(f"no decision available at {session.current}")
                # a chain ends in a stop or an erasure: single picks spend the budget
                inserted += turn[-1][1].kind == INSERT
        if not session.at_y():
            raise StepError(f"the delivery ends at {session.current}, which is not a Y state")
        if forced:
            raise StepError(f"decision {forced[0]!r} comes after the step completed")
    except StepError:
        session.current = saved_state
        del session.trace[saved_depth:]
        raise
    session.consumed.append(event)
    session.emitted.extend(emitted)
    result = StepResult(emitted=tuple(emitted), state=session.current, decisions=tuple(decisions))
    if key is not None:
        session._tables.steps[key] = (tuple(session.trace[saved_depth:]), result)
    return result


def session_trace(session: Session) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(consumed genuine events, emitted observation, decorated event trace)."""
    return (tuple(session.consumed), tuple(session.emitted), tuple(session.trace))
