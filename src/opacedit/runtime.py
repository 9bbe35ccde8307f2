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
    DELIVER,
    DELIVER_ERASED,
    ERASE,
    INSERT,
    STOP,
    SYSTEM,
    DecoratedEvent,
    decoration_table,
)

POLICIES = ("pass-through", "lexicographic", "random")


class StepError(ValueError):
    """Raised when a step cannot be executed: unknown or disabled event, or an
    override the supervisor forbids."""


@dataclass
class Session:
    structure: ModularEditStructure
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
    y_states = frozenset(st.name for st in supervisor.states if m.all_y(st.name))
    z_states = len(supervisor.states) - len(y_states)
    return Session(
        structure=m,
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


def _fire(session: Session, edge: tuple[str, DecoratedEvent, str], emitted: list[str]) -> None:
    label, dec, target = edge
    session.trace.append(label)
    session.current = target
    if dec.kind == INSERT:
        emitted.append(dec.base)
    elif dec.kind == DELIVER:
        emitted.append(dec.base)


def _chain_to_decision(
    session: Session, want: tuple[str, ...]
) -> list[tuple[str, DecoratedEvent, str]] | None:
    """Shortest chain of insert edges leading to a state with an enabled
    decision among ``want``; ties broken by lexicographic edge order."""
    start = session.current
    parents: dict[str, tuple[str, tuple[str, DecoratedEvent, str]] | None] = {start: None}
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for edge in session.outgoing(here):
            label, dec, target = edge
            if dec.kind in want:
                chain: list[tuple[str, DecoratedEvent, str]] = [edge]
                cursor = here
                while parents[cursor] is not None:
                    prev, via = parents[cursor]
                    chain.insert(0, via)
                    cursor = prev
                return chain
        for edge in session.outgoing(here):
            label, dec, target = edge
            if dec.kind == INSERT and target not in parents:
                parents[target] = (here, edge)
                queue.append(target)
    return None


def _policy_decisions(session: Session, emitted: list[str]) -> None:
    """Run decisions per the session policy until the components return to Y."""
    inserted = 0
    while not session.at_y():
        deliveries = _enabled(session, (DELIVER, DELIVER_ERASED))
        if deliveries:
            _fire(session, deliveries[0], emitted)
            continue
        if session.policy == "pass-through":
            chain = _chain_to_decision(session, (STOP,))
            if chain is None:
                chain = _chain_to_decision(session, (ERASE,))
            if chain is None:
                raise StepError(f"no decision available at {session.current}")
            for edge in chain:
                _fire(session, edge, emitted)
            continue
        decisions = _enabled(session, (INSERT, STOP, ERASE))
        if inserted >= session.insertion_budget:
            closers = [d for d in decisions if d[1].kind in (STOP, ERASE)]
            if closers:
                decisions = closers
            else:
                chain = _chain_to_decision(session, (STOP, ERASE))
                if chain is None:
                    raise StepError(f"no decision available at {session.current}")
                for edge in chain:
                    _fire(session, edge, emitted)
                continue
        if not decisions:
            raise StepError(f"no decision available at {session.current}")
        if session.policy == "random":
            edge = session.rng.choice(decisions)
        else:
            edge = decisions[0]
        if edge[1].kind == INSERT:
            inserted += 1
        _fire(session, edge, emitted)


def step(session: Session, event: str, overrides: Sequence[str] | None = None) -> StepResult:
    """Feed one genuine system event through the edit structure.

    ``overrides`` forces the leading decisions by their decorated names; once
    exhausted the session policy finishes the step.  The session state only
    changes when the whole step succeeds.
    """
    saved_state, saved_depth = session.current, len(session.trace)
    emitted: list[str] = []
    try:
        if not session.at_y():
            raise StepError(f"session is mid-decision at {session.current}")
        arrivals = [
            item
            for item in session.outgoing(session.current)
            if item[1].kind == SYSTEM and item[1].base == event
        ]
        if not arrivals:
            if event not in session._decorations:
                raise StepError(f"unknown event {event!r}")
            raise StepError(f"event {event!r} is not enabled at {session.current}")
        _fire(session, arrivals[0], emitted)
        for forced in overrides or ():
            while not session.at_y():
                deliveries = _enabled(session, (DELIVER, DELIVER_ERASED))
                if not deliveries:
                    break
                _fire(session, deliveries[0], emitted)
            if session.at_y():
                raise StepError(f"decision {forced!r} comes after the step completed")
            enabled = {
                item[0]: item
                for item in _enabled(session, (INSERT, STOP, ERASE))
            }
            if forced not in enabled:
                choices = ", ".join(sorted(enabled)) or "none"
                raise StepError(
                    f"decision {forced!r} is not permitted at {session.current} (enabled: {choices})"
                )
            _fire(session, enabled[forced], emitted)
        _policy_decisions(session, emitted)
    except StepError:
        session.current = saved_state
        del session.trace[saved_depth:]
        raise
    session.consumed.append(event)
    session.emitted.extend(emitted)
    decision_kinds = (INSERT, STOP, ERASE)
    decisions = tuple(
        label
        for label in session.trace[saved_depth:]
        if session._decorations[label].kind in decision_kinds
    )
    return StepResult(emitted=tuple(emitted), state=session.current, decisions=decisions)


def session_trace(session: Session) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(consumed genuine events, emitted observation, decorated event trace)."""
    return (tuple(session.consumed), tuple(session.emitted), tuple(session.trace))
