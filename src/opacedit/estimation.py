"""State estimation under partial observation.

The observer of a nondeterministic automaton is the usual subset construction
over observable events, with the unobservable reach folded in.  Each observer
state is named by its estimate (the set of possible underlying states) and is
flagged secret when that estimate contains only secret states, that is, when
the observation reveals the secret.  The desired observer removes those
revealing states and keeps the accessible part; its language is exactly the
set of safe observations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .automata import TAU, Automaton, State, Transition, restrict


def estimate_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


@dataclass(frozen=True)
class Observer:
    """A deterministic tau-free automaton whose states stand for estimates.

    A state is flagged secret when its estimate reveals the secret.  The flag
    is exact on ``determinize`` outputs and on their quotients by opaque
    bisimulation, which never merges a secret-only estimate with a safe one.
    Any other quotient flags a block secret when some member is, as
    ``quotient`` does: on the plain-bisimulation observer ``h_b`` a block may
    mix a secret-only estimate with a safe one.  ``desired_observer`` is
    applied to exact observers only.
    """

    automaton: Automaton

    @property
    def initial(self) -> str | None:
        starts = self.automaton.initial_states
        return starts[0] if starts else None

    def is_empty(self) -> bool:
        return not self.automaton.states


def unobservable_reach(a: Automaton, states: Iterable[str]) -> frozenset[str]:
    """Closure of ``states`` under tau moves and unobservable events."""
    silent = {ev.name for ev in a.events if not ev.observable} | {TAU}
    seen = set(states)
    queue = deque(seen)
    while queue:
        here = queue.popleft()
        for label, dst in a.outgoing(here):
            if label in silent and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return frozenset(seen)


def determinize(a: Automaton, name: str | None = None) -> Observer:
    """Observer automaton of ``a`` via subset construction.

    Estimates are named canonically from their sorted members.  An observer
    state is flagged secret iff its estimate contains secret states only.
    """
    observable = {ev.name for ev in a.events if ev.observable}
    events = tuple(ev for ev in sorted(a.events, key=lambda ev: ev.name) if ev.observable)
    secret = a.secret_states

    states: list[State] = []
    transitions: list[Transition] = []
    seen: dict[frozenset[str], str] = {}

    def admit(members: frozenset[str], initial: bool) -> str:
        label = estimate_name(members)
        if members not in seen:
            seen[members] = label
            revealing = bool(members) and members <= secret
            states.append(State(name=label, initial=initial, marked=False, secret=revealing))
        return seen[members]

    queue: deque[frozenset[str]] = deque()
    if a.initial_states:
        start = unobservable_reach(a, a.initial_states)
        admit(start, initial=True)
        queue.append(start)
    while queue:
        members = queue.popleft()
        src = seen[members]
        stepped: dict[str, set[str]] = {}
        for member in members:
            for label, dst in a.outgoing(member):
                if label in observable:
                    stepped.setdefault(label, set()).add(dst)
        for event in sorted(stepped):
            closed = unobservable_reach(a, stepped[event])
            if closed not in seen:
                admit(closed, initial=False)
                queue.append(closed)
            transitions.append((src, event, seen[closed]))

    automaton = Automaton(
        name=name or f"det({a.name})",
        events=events,
        states=tuple(states),
        transitions=tuple(transitions),
    )
    return Observer(automaton)


def desired_observer(o: Observer, name: str | None = None) -> Observer:
    """Remove secret states and keep the accessible part.

    The result may be empty (no states) when the initial estimate itself is
    secret-only; callers decide whether that is fatal.
    """
    base = o.automaton
    keep = {st.name for st in base.states if not st.secret}
    return Observer(restrict(base, keep, name=name or f"{base.name}_d").trim_reachable())


@dataclass(frozen=True)
class OpacityReport:
    opaque: bool
    witnesses: tuple[tuple[tuple[str, ...], str], ...]


def check_current_state_opacity(a: Automaton) -> OpacityReport:
    """Current-state opacity: no observation may pin the system inside the
    secret set.  Equivalently, the observer has no reachable secret-only
    estimate.  For each violating estimate the report carries one shortest
    witness observation (ties broken by lexicographic event order) and the
    name of the observer state it reaches.
    """
    observer = determinize(a)
    base = observer.automaton
    if observer.initial is None:
        return OpacityReport(opaque=True, witnesses=())
    paths: dict[str, tuple[str, ...]] = {observer.initial: ()}
    queue = deque([observer.initial])
    order: list[str] = [observer.initial]
    while queue:
        here = queue.popleft()
        for label, dst in sorted(base.outgoing(here)):
            if dst not in paths:
                paths[dst] = paths[here] + (label,)
                order.append(dst)
                queue.append(dst)
    secret = base.secret_states
    witnesses = tuple((paths[label], label) for label in order if label in secret)
    return OpacityReport(opaque=not witnesses, witnesses=witnesses)
