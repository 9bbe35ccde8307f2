"""Independent correctness checks over randomly generated systems.

Each check exercises a structural property of the pipeline by computing both
sides through different code paths: observers of compositions versus
compositions of observers, TPOs over abstracted versus exact observers,
synthesized supervisors versus directly pruned edit structures, and replayed
sessions versus the safe language.  ``prune_to_aes`` never calls the
supervisor synthesis and vice versa, so the two sides of the supervisor check
stay independent.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .abstraction import abstract_component
from .automata import (
    EPSILON,
    Automaton,
    Event,
    State,
    Transition,
    canonical_table,
    compose_all,
    deterministic_isomorphic,
    language_upto,
)
from .constraint import build_constraint_automaton
from .estimation import desired_observer, determinize
from .synthesis import (
    ModularEditStructure,
    encode_components,
    product_plant,
    supremal_controllable_nonblocking,
    synthesize_modular_edit_structure,
)
from .tpo import Tpo, TpoState, build_largest_tpo, largest_tpo, prune_to_aes
from .transform import (
    DELIVER,
    DELIVER_ERASED,
    ERASE,
    INSERT,
    STOP,
    SYSTEM,
    decoration_table,
    run_label,
    transform_monolithic,
)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class RandomSpec:
    """Shape parameters for seed-deterministic system generation."""

    seed: int = 0
    max_states: int = 6
    alphabet_size: int = 3
    tau_density: float = 0.25
    secret_density: float = 0.3
    transition_density: float = 0.45

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if not 1 <= self.alphabet_size <= len(_LETTERS):
            raise ValueError("alphabet_size out of range")
        for label in ("tau_density", "secret_density", "transition_density"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must lie in [0, 1]")


def _random_automaton(
    rng: random.Random,
    alphabet: Sequence[str],
    spec: RandomSpec,
    name: str,
) -> Automaton:
    n = rng.randint(1, spec.max_states)
    state_names = [f"q{i}" for i in range(n)]
    transitions: list[Transition] = []
    for src in state_names:
        for event in alphabet:
            if rng.random() < spec.transition_density:
                transitions.append((src, event, rng.choice(state_names)))
                if rng.random() < 0.15:
                    transitions.append((src, event, rng.choice(state_names)))
        if rng.random() < spec.tau_density:
            transitions.append((src, "tau", rng.choice(state_names)))
    secret_flags = [rng.random() < spec.secret_density for _ in state_names]
    if all(secret_flags) and spec.secret_density < 1.0:
        secret_flags[0] = False
    states = tuple(
        State(name=nm, initial=(i == 0), marked=False, secret=secret_flags[i])
        for i, nm in enumerate(state_names)
    )
    events = tuple(Event(name=e, observable=True, controllable=True) for e in alphabet)
    return Automaton(
        name=name,
        events=events,
        states=states,
        transitions=tuple(transitions),
    ).trim_reachable()


def random_system(spec: RandomSpec, name: str | None = None) -> Automaton:
    """A reproducible random automaton: same spec (seed included), same system."""
    rng = random.Random(spec.seed)
    alphabet = tuple(_LETTERS[: spec.alphabet_size])
    return _random_automaton(rng, alphabet, spec, name or f"rand{spec.seed}")


def random_pair(spec: RandomSpec) -> tuple[Automaton, Automaton]:
    """Two random components sharing part of their alphabets (all letters but
    the first for one side, all but the last for the other)."""
    letters = _LETTERS[: spec.alphabet_size]
    if spec.alphabet_size >= 3:
        left, right = tuple(letters[:-1]), tuple(letters[1:])
    else:
        left = right = tuple(letters)
    rng = random.Random(spec.seed)
    a = _random_automaton(rng, left, spec, name=f"rand{spec.seed}a")
    b = _random_automaton(rng, right, spec, name=f"rand{spec.seed}b")
    return a, b


def check_observer_sync(a: Automaton, b: Automaton) -> bool:
    """Observer of a composition equals the composition of observers."""
    left = determinize(compose_all([a, b])).automaton
    right = compose_all([determinize(a).automaton, determinize(b).automaton])
    return deterministic_isomorphic(left, right)


def check_desired_observer_sync(a: Automaton, b: Automaton) -> bool:
    """Desired observer of a composition equals the composition of the
    components' desired observers."""
    left = desired_observer(determinize(compose_all([a, b]))).automaton
    right = compose_all(
        [desired_observer(determinize(a)).automaton, desired_observer(determinize(b)).automaton]
    )
    if not left.states and not right.states:
        return True
    if bool(left.states) != bool(right.states):
        return False
    return deterministic_isomorphic(left, right)


def _tpo_edge_table(t: Tpo) -> dict[TpoState, dict[tuple[str, str], TpoState]]:
    table: dict[TpoState, dict[tuple[str, str], TpoState]] = {st: {} for st in t.states}
    for tr in t.transitions:
        table[tr.source][(tr.cls, tr.label)] = tr.target
    return table


def tpo_bisimilar(a: Tpo, b: Tpo) -> bool:
    """Labeled bisimilarity of two TPOs over (class, label) pairs.

    Both graphs are deterministic in (class, label), so a joint walk matching
    outgoing label sets and state kinds at every reached pair decides it.
    """
    if (a.initial is None) != (b.initial is None):
        return False
    if a.initial is None:
        return True
    edges_a, edges_b = _tpo_edge_table(a), _tpo_edge_table(b)
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        if x.kind != y.kind:
            return False
        out_a, out_b = edges_a[x], edges_b[y]
        if set(out_a) != set(out_b):
            return False
        for key, dst_a in out_a.items():
            pair = (dst_a, out_b[key])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


def check_tpo_abstraction(g: Automaton) -> bool:
    """The TPO built over the abstracted observers is equivalent, run for run,
    to the TPO built over the exact observers."""
    exact = largest_tpo(g)
    bundle = abstract_component(g)
    abstracted = build_largest_tpo(bundle.h_obd, bundle.h_b)
    return tpo_bisimilar(exact, abstracted)


def _supervisor_canonical(m_supervisor: Automaton, decorations) -> tuple:
    edges: dict[str, list[tuple[tuple[str, str], str]]] = {
        st.name: [] for st in m_supervisor.states
    }
    for src, label, dst in m_supervisor.transitions:
        edges[src].append((run_label(decorations[label]), dst))
    initial = m_supervisor.initial_states[0] if m_supervisor.initial_states else None
    flags = {st.name: () for st in m_supervisor.states}
    return canonical_table(initial, edges, flags)


def _aes_canonical(aes: Tpo) -> tuple:
    # TPO transition labels already coincide with the renamed run labels of
    # the decorated events (stop carries the empty symbol, erasures their
    # erasure symbol), so (class, label) needs no translation.
    edges: dict[TpoState, list[tuple[tuple[str, str], TpoState]]] = {st: [] for st in aes.states}
    for tr in aes.transitions:
        edges[tr.source].append(((tr.cls, tr.label), tr.target))
    flags = {st: () for st in aes.states}
    return canonical_table(aes.initial, edges, flags)


def check_supervisor_equals_aes(g: Automaton, max_erasures: int) -> bool:
    """Synthesis over the encoded TPO with the constraint spec produces, up to
    renaming, exactly the directly pruned edit structure."""
    t = largest_tpo(g)
    encoded = transform_monolithic(t)
    spec = build_constraint_automaton(max_erasures, [encoded])
    plant = product_plant([encoded], spec)
    supervisor = supremal_controllable_nonblocking(plant.automaton)
    aes = prune_to_aes(t, max_erasures)
    return _supervisor_canonical(supervisor, encoded.decorations) == _aes_canonical(aes)


def check_modular_inclusion(
    systems: Sequence[Automaton], depth: int
) -> tuple[bool, tuple[str, ...]]:
    """Every trace of the modular product (no constraint attached) maps,
    decision class by decision class, into the monolithic largest TPO of the
    composed system.

    Checked by joint breadth-first search over (product state, TPO state)
    pairs up to ``depth`` transitions; returns the offending trace if any.
    Vacuously true when some component has an empty desired observer, since
    then no edit function exists at all.
    """
    bundles, _, components = encode_components(systems)
    if any(bundle.h_obd.is_empty() for bundle in bundles):
        return True, ()
    product = compose_all([comp.automaton for comp in components])
    mono = largest_tpo(compose_all(systems))
    mono_edges: dict[tuple[TpoState, tuple[str, str]], TpoState] = {}
    for tr in mono.transitions:
        mono_edges[(tr.source, (tr.cls, tr.label))] = tr.target

    decorations = decoration_table(components)
    if not product.states or mono.initial is None:
        return True, ()
    start = (product.initial_states[0], mono.initial)
    seen = {start}
    queue: deque[tuple[tuple[str, TpoState], tuple[str, ...], int]] = deque([(start, (), 0)])
    while queue:
        (p_state, t_state), trace, used = queue.popleft()
        if used == depth:
            continue
        for label, dst in product.outgoing(p_state):
            key = (t_state, run_label(decorations[label]))
            target = mono_edges.get(key)
            if target is None:
                return False, trace + (label,)
            pair = (dst, target)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, trace + (label,), used + 1))
    return True, ()


@dataclass(frozen=True)
class SafetyReport:
    violations: tuple[str, ...]
    empty: bool
    strings_checked: int
    chains_checked: int
    sessions_checked: int


def check_private_safety(
    m: ModularEditStructure,
    systems: Sequence[Automaton],
    depth: int,
) -> SafetyReport:
    """Replay every genuine string (up to ``depth``) through a pass-through
    session and through every decision chain the supervisor permits, verifying
    that the intruder's view stays inside the safe language and the erasure
    budget is never exceeded.
    """
    if m.is_empty():
        return SafetyReport(
            violations=(), empty=True, strings_checked=0, chains_checked=0, sessions_checked=0
        )
    composed = compose_all(systems)
    safe = desired_observer(determinize(composed)).automaton
    safe_initial = safe.initial_states[0] if safe.initial_states else None

    def safe_state(string: tuple[str, ...]) -> str | None:
        here = safe_initial
        for symbol in string:
            if here is None:
                return None
            nxt = safe.successors(here, symbol)
            here = nxt[0] if nxt else None
        return here

    decorations = decoration_table(m.components)
    supervisor = m.supervisor
    edges: dict[str, list[tuple[str, object, str]]] = {st.name: [] for st in supervisor.states}
    for src, label, dst in supervisor.transitions:
        edges[src].append((label, decorations[label], dst))

    genuine = sorted(language_upto(composed, depth), key=lambda s: (len(s), s))
    violations: list[str] = []
    chains = 0
    start = supervisor.initial_states[0]
    # Frontier per consumed prefix: (supervisor state, emitted, erasure count).
    frontier: dict[tuple[str, ...], set[tuple[str, tuple[str, ...], int]]] = {
        (): {(start, (), 0)}
    }
    for string in genuine:
        if string == ():
            continue
        prefix, symbol = string[:-1], string[-1]
        sources = frontier.get(prefix, set())
        results: set[tuple[str, tuple[str, ...], int]] = set()
        for state, emitted, erased in sources:
            stack = [(state, emitted, erased, frozenset({state}), False)]
            while stack:
                here, out, count, visited, moved = stack.pop()
                for label, dec, dst in edges[here]:
                    if dec.kind == SYSTEM and not moved:
                        if dec.base == symbol:
                            stack.append((dst, out, count, frozenset({dst}), True))
                        continue
                    if not moved:
                        continue
                    if dec.kind == INSERT:
                        if dst in visited:
                            continue
                        stack.append((dst, out + (dec.base,), 0, visited | {dst}, True))
                    elif dec.kind == STOP:
                        stack.append((dst, out, count, frozenset({dst}), True))
                    elif dec.kind == ERASE:
                        stack.append((dst, out, count + 1, frozenset({dst}), True))
                    elif dec.kind == DELIVER:
                        chains += 1
                        results.add((dst, out + (dec.base,), count))
                    elif dec.kind == DELIVER_ERASED:
                        chains += 1
                        results.add((dst, out, count))
        if sources and not results:
            violations.append(f"no admissible decision chain after {'.'.join(string)}")
        for state, emitted, erased in results:
            if erased > m.max_erasures:
                violations.append(
                    f"erasure budget exceeded after {'.'.join(string)} at {state}"
                )
            if safe_state(emitted) is None:
                shown = ".".join(emitted) if emitted else EPSILON
                violations.append(
                    f"unsafe output {shown} after {'.'.join(string)} at {state}"
                )
        if results:
            frontier[string] = results

    # Second pass: drive a pass-through session over every maximal string and
    # check the emitted view and the erasure budget it actually realizes.
    from .runtime import StepError, open_session, step

    extended = {s[:-1] for s in genuine if s}
    maximal = [s for s in genuine if s and s not in extended]
    sessions = 0
    for string in maximal:
        session = open_session(m, policy="pass-through")
        sessions += 1
        stranded = False
        for symbol in string:
            try:
                step(session, symbol)
            except StepError as err:
                violations.append(f"session stranded after {'.'.join(string)}: {err}")
                stranded = True
                break
        if stranded:
            continue
        if safe_state(tuple(session.emitted)) is None:
            shown = ".".join(session.emitted) if session.emitted else EPSILON
            violations.append(f"unsafe session output {shown} after {'.'.join(string)}")
        streak = 0
        for label in session.trace:
            dec = decorations[label]
            if dec.kind == INSERT:
                streak = 0
            elif dec.kind == ERASE:
                streak += 1
                if streak > m.max_erasures:
                    violations.append(
                        f"session exceeded the erasure budget after {'.'.join(string)}"
                    )
    return SafetyReport(
        violations=tuple(sorted(set(violations))),
        empty=False,
        strings_checked=len(genuine),
        chains_checked=chains,
        sessions_checked=sessions,
    )


SUITE_NAMES = (
    "observer-sync",
    "desired-observer-sync",
    "tpo-abstraction",
    "supervisor-aes",
    "modular-inclusion",
    "private-safety",
)

_SUITE_COUNTS = {
    "observer-sync": 50,
    "desired-observer-sync": 50,
    "tpo-abstraction": 25,
    "supervisor-aes": 25,
    "modular-inclusion": 10,
    "private-safety": 10,
}


def run_suite(name: str, seed: int, count: int | None = None) -> dict:
    """Run one named randomized suite; the result dictionary depends only on
    (name, seed, count), so reruns are byte-for-byte reproducible."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    count = _SUITE_COUNTS[name] if count is None else count
    rng = random.Random(seed)
    instance_seeds = [rng.randrange(2**32) for _ in range(count)]
    failures: list[dict] = []
    for i, instance in enumerate(instance_seeds):
        spec = RandomSpec(seed=instance, max_states=6, alphabet_size=3)
        if name == "observer-sync":
            ok = check_observer_sync(*random_pair(spec))
        elif name == "desired-observer-sync":
            ok = check_desired_observer_sync(*random_pair(spec))
        elif name == "tpo-abstraction":
            ok = check_tpo_abstraction(random_system(spec))
        elif name == "supervisor-aes":
            ok = check_supervisor_equals_aes(random_system(spec), max_erasures=i % 3)
        elif name == "modular-inclusion":
            small = RandomSpec(seed=instance, max_states=4, alphabet_size=3)
            ok, trace = check_modular_inclusion(list(random_pair(small)), depth=12)
            if not ok:
                failures.append({"index": i, "seed": instance, "trace": list(trace)})
                continue
        else:
            small = RandomSpec(seed=instance, max_states=4, alphabet_size=3)
            systems = list(random_pair(small))
            m = synthesize_modular_edit_structure(systems, max_erasures=1)
            report = check_private_safety(m, systems, depth=5)
            ok = not report.violations
            if not ok:
                failures.append(
                    {"index": i, "seed": instance, "violations": list(report.violations)}
                )
                continue
        if not ok:
            failures.append({"index": i, "seed": instance})
    return {
        "suite": name,
        "seed": seed,
        "count": count,
        "passed": count - len(failures),
        "failures": failures,
    }
