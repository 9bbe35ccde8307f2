"""Independent correctness checks over randomly generated systems.

Each check exercises a structural property of the pipeline by computing both
sides through different code paths: observers of compositions versus
compositions of observers, TPOs over abstracted versus exact observers,
synthesized supervisors versus directly pruned edit structures, and edited
outputs versus the safe language, walked to a fixpoint.  ``prune_to_aes``
never calls the supervisor synthesis and vice versa, so the two sides of the
supervisor check stay independent.
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
from .runtime import StepError, open_session, step
from .tpo import Tpo, build_largest_tpo, largest_tpo, prune_to_aes, run_after
from .transform import (
    DELIVER,
    DELIVER_ERASED,
    ERASE,
    INSERT,
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
    qnames = [f"q{i}" for i in range(n)]
    transitions: list[Transition] = []
    for src in qnames:
        for event in alphabet:
            if rng.random() < spec.transition_density:
                transitions.append((src, event, rng.choice(qnames)))
                if rng.random() < 0.15:
                    transitions.append((src, event, rng.choice(qnames)))
        if rng.random() < spec.tau_density:
            transitions.append((src, "tau", rng.choice(qnames)))
    secret_flags = [rng.random() < spec.secret_density for _ in qnames]
    if all(secret_flags) and spec.secret_density < 1.0:
        secret_flags[0] = False
    states = tuple(
        State(name=nm, initial=(i == 0), marked=False, secret=secret_flags[i])
        for i, nm in enumerate(qnames)
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


def _tpo_edge_table(t: Tpo) -> list[dict[tuple[str, str], int]]:
    """The target of each (class, label) move out of each position of ``t``."""
    table: list[dict[tuple[str, str], int]] = [{} for _ in t.states]
    for src, cls, label, dst in t.transitions:
        table[src][(cls, label)] = dst
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
        if a.states[x][0] != b.states[y][0]:
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
    edges: dict[int, list[tuple[tuple[str, str], int]]] = {}
    for src, cls, label, dst in aes.transitions:
        edges.setdefault(src, []).append(((cls, label), dst))
    return canonical_table(aes.initial, edges, {})


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


def check_modular_inclusion(systems: Sequence[Automaton]) -> tuple[bool, tuple[str, ...]]:
    """Every trace of the modular product (no constraint attached) maps,
    decision class by decision class, into the monolithic largest TPO of the
    composed system.

    Checked by one breadth-first search over (product state, TPO state) pairs
    to a fixpoint; returns the shortest offending trace if any.  Vacuously
    true when some component has an empty desired observer, since then no
    edit function exists at all.
    """
    bundles, components = encode_components(systems)
    if any(bundle.h_obd.is_empty() for bundle in bundles):
        return True, ()
    product = compose_all([comp.automaton for comp in components])
    mono = largest_tpo(compose_all(systems))
    mono_edges = _tpo_edge_table(mono)

    decorations = decoration_table(components)
    if not product.states or mono.initial is None:
        return True, ()
    start = (product.initial_states[0], mono.initial)
    seen = {start}
    queue: deque[tuple[tuple[str, int], tuple[str, ...]]] = deque([(start, ())])
    while queue:
        (p_state, t_state), trace = queue.popleft()
        for label, dst in product.outgoing(p_state):
            target = mono_edges[t_state].get(run_label(decorations[label]))
            if target is None:
                return False, trace + (label,)
            pair = (dst, target)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, trace + (label,)))
    return True, ()


@dataclass(frozen=True)
class SafetyReport:
    """What ``check_private_safety`` found: its sorted violations, whether the
    structure was empty, how many keys the two walks reached, how many
    deliveries the decision walk reached and how many pass-through steps it
    took."""

    violations: tuple[str, ...]
    empty: bool
    keys_checked: int
    chains_checked: int
    steps_checked: int


def check_private_safety(m: ModularEditStructure, systems: Sequence[Automaton]) -> SafetyReport:
    """Check that every decision chain the supervisor permits, and the
    pass-through session, keep the intruder's view inside the safe language
    and within the erasure budget, after every genuine string.

    The composed system's observer stands in for the genuine string: each
    side is one breadth-first walk, events in sorted order, over keys
    (observer state, supervisor state, safe-observer state or None once
    unsafe, erasure run capped at k + 1).  A decision key advances by the
    chains of one event, walked to a fixpoint so that insertion cycles are
    checked too; a pass-through key by one ``step``.  Each key keeps the
    first (shortest) genuine and emitted strings reaching it as its witness.
    """
    if m.is_empty():
        return SafetyReport(violations=(), empty=True, keys_checked=0, chains_checked=0, steps_checked=0)
    observed = determinize(compose_all(systems))
    observer = observed.automaton
    safe = desired_observer(observed).automaton
    safe_moves = {(src, label): dst for src, label, dst in safe.transitions}
    decorations = decoration_table(m.components)
    edges: dict[str, list[tuple[object, str]]] = {st.name: [] for st in m.supervisor.states}
    for src, label, dst in m.supervisor.transitions:
        edges[src].append((decorations[label], dst))
    # Any run past the budget is reported alike, so runs stop growing there.
    over = m.max_erasures + 1
    violations: set[str] = set()
    chains = steps = 0

    def decide(here, view, run, symbol, out):
        nonlocal chains
        results: dict[tuple[str, str | None, int], tuple[str, ...]] = {}
        reached = [((here, view, run, False), out)]
        seen = {reached[0][0]}
        for (here, view, run, arrived), out in reached:
            for dec, dst in edges[here]:
                # first the genuine event's arrival, then only the edit's moves
                if (dec.kind == SYSTEM) == arrived or (not arrived and dec.base != symbol):
                    continue
                if dec.kind in (INSERT, DELIVER):
                    nxt_out, nxt_view = out + (dec.base,), safe_moves.get((view, dec.base))
                else:
                    nxt_out, nxt_view = out, view
                key = (dst, nxt_view, min(run_after(dec.kind, run), over))
                if dec.kind in (DELIVER, DELIVER_ERASED):
                    chains += 1
                    results.setdefault(key, nxt_out)
                elif (moved := key + (True,)) not in seen:
                    seen.add(moved)
                    reached.append((moved, nxt_out))
        return results, None

    # One session takes every step, each from the state of the key it advances.
    session = open_session(m, policy="pass-through")

    def pass_through(here, view, run, symbol, out):
        nonlocal steps
        steps += 1
        session.current = here
        try:
            result = step(session, symbol)
        except StepError as err:
            return {}, err
        for label in result.decisions:
            run = min(run_after(decorations[label].kind, run), over)
        for sent in result.emitted:
            view = safe_moves.get((view, sent))
        return {(result.state, view, run): out + result.emitted}, None

    start = (observer.initial_states[0], m.supervisor.initial_states[0], (safe.initial_states or (None,))[0], 0)
    keys = 0
    for advance, stuck, over_budget, unsafe in (
        (decide, "no admissible decision chain after {string}", "erasure budget exceeded after {string} at {state}",
         "unsafe output {output} after {string} at {state}"),
        (pass_through, "session stranded after {string}: {error}", "session exceeded the erasure budget after {string}",
         "unsafe session output {output} after {string}"),
    ):
        witness = {start: ((), ())}
        queue = deque([start])
        while queue:
            here, state, view, run = queue.popleft()
            string, out = witness[here, state, view, run]
            for symbol, there in sorted(observer.outgoing(here)):
                after = string + (symbol,)
                shown = ".".join(after)
                results, error = advance(state, view, run, symbol, out)
                if not results:
                    violations.add(stuck.format(string=shown, error=error))
                for (nxt_state, nxt_view, nxt_run), emitted in results.items():
                    key = (there, nxt_state, nxt_view, nxt_run)
                    if key in witness:
                        continue
                    witness[key] = (after, emitted)
                    queue.append(key)
                    if nxt_run > m.max_erasures:
                        violations.add(over_budget.format(string=shown, state=nxt_state))
                    if nxt_view is None:
                        output = ".".join(emitted) or EPSILON
                        violations.add(unsafe.format(output=output, string=shown, state=nxt_state))
        keys += len(witness)
    return SafetyReport(
        violations=tuple(sorted(violations)),
        empty=False,
        keys_checked=keys,
        chains_checked=chains,
        steps_checked=steps,
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


def suite_specs(name: str, seed: int, count: int | None = None) -> list[RandomSpec]:
    """The spec of each instance that ``run_suite(name, seed, count)``
    checks, in order."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    count = _SUITE_COUNTS[name] if count is None else count
    max_states = 4 if name in ("modular-inclusion", "private-safety") else 6
    rng = random.Random(seed)
    return [
        RandomSpec(seed=rng.randrange(2**32), max_states=max_states, alphabet_size=3) for _ in range(count)
    ]


def run_suite(name: str, seed: int, count: int | None = None) -> dict:
    """Run one named randomized suite; the result dictionary depends only on
    (name, seed, count), so reruns are byte-for-byte reproducible."""
    specs = suite_specs(name, seed, count)
    failures: list[dict] = []
    for i, spec in enumerate(specs):
        if name == "observer-sync":
            ok = check_observer_sync(*random_pair(spec))
        elif name == "desired-observer-sync":
            ok = check_desired_observer_sync(*random_pair(spec))
        elif name == "tpo-abstraction":
            ok = check_tpo_abstraction(random_system(spec))
        elif name == "supervisor-aes":
            ok = check_supervisor_equals_aes(random_system(spec), max_erasures=i % 3)
        elif name == "modular-inclusion":
            ok, trace = check_modular_inclusion(list(random_pair(spec)))
            if not ok:
                failures.append({"index": i, "seed": spec.seed, "trace": list(trace)})
                continue
        else:
            systems = list(random_pair(spec))
            m = synthesize_modular_edit_structure(systems, max_erasures=1)
            report = check_private_safety(m, systems)
            ok = not report.violations
            if not ok:
                failures.append(
                    {"index": i, "seed": spec.seed, "violations": list(report.violations)}
                )
                continue
        if not ok:
            failures.append({"index": i, "seed": spec.seed})
    return {
        "suite": name,
        "seed": seed,
        "count": len(specs),
        "passed": len(specs) - len(failures),
        "failures": failures,
    }
