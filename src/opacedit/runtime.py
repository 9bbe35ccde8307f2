"""Executing a synthesized edit structure event by event.

A session sits at a supervisor state where every component is at a Y origin.
Each step feeds one genuine system event: the uncontrollable arrival fires,
then decisions (insert / stop / erase) are taken either from an explicit
override list or from the session policy, and the closing delivery fires
automatically.  The step's emitted string is what the intruder observes:
insertions in order, then the genuine event unless it was erased.

Policies:

* ``pass-through``: deliver the genuine event if any stop decision is
  reachable through insertions (shortest chain, lexicographic tie-break),
  otherwise erase as early as possible.
* ``lexicographic``: always take the lexicographically smallest enabled
  decision, with an insertion budget per step.
* ``random``: seeded uniform choice among enabled decisions with the same
  insertion budget, falling back to ``lexicographic`` once exhausted.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .synthesis import ModularEditStructure
from .transform import (
    DECISION, DELIVER, DELIVERY, ERASE, INSERT, MOVES, STOP, SYSTEM, DecoratedEvent, decoration_table,
)

POLICIES = ("pass-through", "lexicographic", "random")
_DECISIONS = tuple(kind for kind, move in MOVES.items() if move.role == DECISION)
_DELIVERIES = tuple(kind for kind, move in MOVES.items() if move.role == DELIVERY)
# The decisions that end the edit of one event: a stop or an erasure.
_CLOSING = tuple(kind for kind in _DECISIONS if kind != INSERT)


class StepError(ValueError):
    """Raised when a step cannot be executed: unknown or disabled event, or an
    override the supervisor forbids."""


@dataclass
class Session:
    policy: str
    rng: random.Random
    insertion_budget: int
    current: str
    consumed: list[str] = field(default_factory=list)
    emitted: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)

    def outgoing(self, state: str) -> list[tuple[str, DecoratedEvent, str]]:
        return self._edges.get(state, [])

    def at_y(self) -> bool:
        """True iff every component is at a Y origin in the current state."""
        return self.current in self._y_states

    _edges: Mapping[str, list[tuple[str, DecoratedEvent, str]]] = field(default_factory=dict)
    _decorations: Mapping[str, DecoratedEvent] = field(default_factory=dict)
    _y_states: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StepResult:
    emitted: tuple[str, ...]
    state: str
    decisions: tuple[str, ...]


def open_session(
    m: ModularEditStructure,
    policy: str = "pass-through",
    seed: int | None = None,
) -> Session:
    """Start a session at the supervisor's initial state."""
    if policy not in POLICIES:
        raise StepError(f"unknown policy {policy!r}; choose one of {', '.join(POLICIES)}")
    if m.is_empty():
        raise StepError("supervisor is empty: no edit function exists under the constraint")
    supervisor = m.supervisor
    initial = supervisor.initial_states[0]
    decorations = decoration_table(m.components)
    edges: dict[str, list[tuple[str, DecoratedEvent, str]]] = {}
    for src, label, dst in supervisor.transitions:
        edges.setdefault(src, []).append((label, decorations[label], dst))
    for state in edges:
        edges[state].sort(key=lambda item: item[0])
    y_states = supervisor.marked_states
    z_states = len(supervisor.states) - len(y_states)
    return Session(
        policy=policy,
        rng=random.Random(seed),
        insertion_budget=max(2, 2 * z_states),
        current=initial,
        _edges=edges,
        _decorations=decorations,
        _y_states=y_states,
    )


def _enabled(session: Session, kinds: tuple[str, ...]) -> list[tuple[str, DecoratedEvent, str]]:
    return [item for item in session.outgoing(session.current) if item[1].kind in kinds]


def _chain_to_decision(
    session: Session, want: tuple[str, ...]
) -> list[tuple[str, DecoratedEvent, str]] | None:
    """Shortest chain of insert edges leading to a state with an enabled
    decision among ``want``; ties broken by lexicographic edge order."""
    chains: dict[str, list[tuple[str, DecoratedEvent, str]]] = {session.current: []}
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


def _policy_chain(session: Session, inserted: int) -> list[tuple[str, DecoratedEvent, str]] | None:
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
    """Feed one genuine system event through the edit structure.

    ``overrides`` forces the leading decisions by their decorated names; once
    exhausted the session policy finishes the step.  Pending deliveries fire
    before any decision.  The session state only changes when the whole step
    succeeds.
    """
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
        while True:
            for label, dec, target in turn:
                session.trace.append(label)
                session.current = target
                if dec.kind in (INSERT, DELIVER):
                    emitted.append(dec.base)
                if dec.kind in _DECISIONS:
                    decisions.append(label)
            if session.at_y():
                break
            deliveries = _enabled(session, _DELIVERIES)
            if deliveries:
                turn = deliveries[:1]
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
        if forced:
            raise StepError(f"decision {forced[0]!r} comes after the step completed")
    except StepError:
        session.current = saved_state
        del session.trace[saved_depth:]
        raise
    session.consumed.append(event)
    session.emitted.extend(emitted)
    return StepResult(emitted=tuple(emitted), state=session.current, decisions=tuple(decisions))


def session_trace(session: Session) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(consumed genuine events, emitted observation, decorated event trace)."""
    return (tuple(session.consumed), tuple(session.emitted), tuple(session.trace))
