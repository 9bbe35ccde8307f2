"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS or FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see the lines on success).  The
fixture criteria pin exact states and strings; the randomized criteria sweep
seeded generators under wall-clock budgets.
"""

import json
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

from opacedit import (
    Automaton,
    RandomSpec,
    State,
    abstract_component,
    build_largest_tpo,
    check_current_state_opacity,
    check_desired_observer_sync,
    check_modular_inclusion,
    check_observer_sync,
    check_private_safety,
    check_supervisor_equals_aes,
    check_tpo_abstraction,
    demo_composed,
    demo_g1,
    demo_g2,
    demo_pair,
    desired_observer,
    determinize,
    language_upto,
    opaque_observation_equivalence_partition,
    open_session,
    parse_automaton,
    parse_decorated,
    random_pair,
    random_system,
    run_label,
    run_suite,
    serialize_automaton,
    step,
    synthesize_modular_edit_structure,
)

# composite estimates of the demo pair, as the observer names them
A = "{(q0,s0)}"
B = "{(q0,s1),(q0,s2)}"
C = "{(q1,s0),(q2,s0)}"
D = "{(q1,s1),(q1,s2),(q2,s1),(q2,s2)}"
E = "{(q3,s3)}"


def y(d, f):
    return f"({d},{f})"


def z(d, f, event):
    return f"(({d},{f}),{event})"


def erased(d, f, event):
    return f"(({d},{f}),{event}→ε)"


# the unsafe region of the monolithic game: every state whose pruning the
# synthesized supervisor must reproduce
FORBIDDEN = (
    y(A, D),
    y(B, E),
    z(A, D, "alpha"),
    erased(A, D, "alpha"),
    y(A, E),
    erased(B, D, "alpha"),
    erased(A, C, "beta"),
    erased(A, B, "gamma"),
)


@contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {title}")
        raise
    print(f"PASS criterion {number:02d}: {title} ({time.perf_counter() - started:.1f}s)")


def monolithic_tpo():
    observer = determinize(demo_composed())
    return build_largest_tpo(desired_observer(observer), observer)


def test_criterion_01_fixture_synthesis_prunes_unsafe_region():
    with criterion(1, "fixture synthesis avoids all eight unsafe game states in < 1 s"):
        started = time.perf_counter()
        m = synthesize_modular_edit_structure(list(demo_pair()), max_erasures=1)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"synthesis took {elapsed:.2f}s"
        assert not m.is_empty()

        mono = monolithic_tpo()
        names = {st.name for st in mono.states}
        assert set(FORBIDDEN) <= names
        edges = {(tr.source, (tr.cls, tr.label)): tr.target for tr in mono.transitions}

        # walk the supervisor jointly with the monolithic game; the image of
        # every reachable supervisor state must dodge the forbidden set
        start = (m.supervisor.initial_states[0], mono.initial)
        seen = {start}
        image = {mono.initial}
        queue = deque([start])
        while queue:
            sup_state, tpo_state = queue.popleft()
            for label, dst in m.supervisor.outgoing(sup_state):
                target = edges[(tpo_state, run_label(parse_decorated(label)))]
                image.add(target)
                pair = (dst, target)
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        assert not set(FORBIDDEN) & {st.name for st in image}


def test_criterion_02_interactive_narrative(structure):
    with criterion(2, "erase/stop/insert-erase narrative emits ε, β, γ and stays safe"):
        s = open_session(structure, policy="pass-through")
        assert step(s, "gamma", overrides=["erz:gamma@gamma"]).emitted == ()
        assert step(s, "beta", overrides=["stop@beta"]).emitted == ("beta",)
        third = step(s, "alpha", overrides=["ins:gamma@alpha", "erz:alpha@alpha"])
        assert third.emitted == ("gamma",)
        assert tuple(s.emitted) == ("beta", "gamma")
        safe = desired_observer(determinize(demo_composed()))
        assert ("beta", "gamma") in language_upto(safe.automaton, 4)


def test_criterion_03_observer_synchronization_oracles():
    with criterion(3, "observer/desired-observer synchronization on 200 random pairs in < 30 s"):
        started = time.perf_counter()
        for seed in range(200):
            spec = RandomSpec(seed=seed, max_states=8, alphabet_size=4, tau_density=0.3)
            a, b = random_pair(spec)
            assert check_observer_sync(a, b), f"observer sync failed at seed {seed}"
            assert check_desired_observer_sync(a, b), f"desired sync failed at seed {seed}"
        assert time.perf_counter() - started < 30.0


def test_criterion_04_abstraction_preserves_the_game():
    with criterion(4, "abstracted and concrete games bisimilar on 100 random systems in < 60 s"):
        started = time.perf_counter()
        for seed in range(100):
            g = random_system(RandomSpec(seed=seed))
            assert check_tpo_abstraction(g), f"abstraction mismatch at seed {seed}"
        assert time.perf_counter() - started < 60.0


def test_criterion_05_synthesis_matches_direct_pruning():
    with criterion(5, "supervisor equals pruned game on 100 systems x 3 budgets in < 120 s"):
        started = time.perf_counter()
        for seed in range(100):
            g = random_system(RandomSpec(seed=seed))
            for budget in (0, 1, 2):
                assert check_supervisor_equals_aes(g, budget), f"seed {seed}, k={budget}"
        assert time.perf_counter() - started < 120.0


def test_criterion_06_private_safety(structure):
    with criterion(6, "replayed outputs stay in the safe language within the erasure budget"):
        report = check_private_safety(structure, list(demo_pair()), depth=8)
        assert not report.empty
        assert report.violations == ()
        assert report.strings_checked > 0

        replayed = 0
        for seed in range(50):
            pair = random_pair(RandomSpec(seed=seed, max_states=4))
            m = synthesize_modular_edit_structure(list(pair), max_erasures=1)
            random_report = check_private_safety(m, list(pair), depth=6)
            assert random_report.violations == (), f"unsafe output at seed {seed}"
            replayed += random_report.strings_checked
        assert replayed > 0


def test_criterion_07_modular_traces_embed_in_monolithic_game():
    with criterion(7, "every modular product trace maps into the monolithic game"):
        ok, trace = check_modular_inclusion(list(demo_pair()), depth=12)
        assert ok, trace
        for seed in range(25):
            pair = random_pair(RandomSpec(seed=seed, max_states=4))
            ok, trace = check_modular_inclusion(list(pair), depth=12)
            assert ok, f"seed {seed} escaped at {trace}"


def test_criterion_08_opacity_verdicts():
    with criterion(8, "fixture systems non-opaque with short witnesses, mutant opaque"):
        for g in (demo_g1(), demo_g2(), demo_composed()):
            report = check_current_state_opacity(g)
            assert not report.opaque
            assert report.witnesses
            assert all(len(w) <= 3 for w, _ in report.witnesses)
        composed = demo_composed()
        mutant = Automaton(
            name="mutant",
            events=composed.events,
            states=tuple(
                State(s.name, initial=s.initial, marked=s.marked, secret=False)
                for s in composed.states
            ),
            transitions=composed.transitions,
        )
        assert check_current_state_opacity(mutant).opaque


def test_criterion_09_abstraction_partition_is_exact():
    with criterion(9, "equivalence partition {{q0},{q1,q2},{q3}} with a 3-state quotient"):
        g = demo_g1()
        partition = opaque_observation_equivalence_partition(g)
        assert set(partition.blocks) == {
            frozenset({"q0"}),
            frozenset({"q1", "q2"}),
            frozenset({"q3"}),
        }
        assert len(abstract_component(g).abstracted.states) == 3


def test_criterion_10_round_trip_and_determinism():
    with criterion(10, "serialization round-trips and seeded checks reproduce byte-for-byte"):
        data = Path(__file__).resolve().parent.parent / "data"
        for name in ("demo_g1.json", "demo_g2.json"):
            text = (data / name).read_text(encoding="utf-8")
            assert serialize_automaton(parse_automaton(text)) == text
        for g in (demo_g1(), demo_g2(), demo_composed()):
            assert parse_automaton(serialize_automaton(g)) == g

        first = run_suite("observer-sync", seed=7, count=10)
        second = run_suite("observer-sync", seed=7, count=10)
        assert json.dumps(first, sort_keys=True).encode("utf-8") == json.dumps(
            second, sort_keys=True
        ).encode("utf-8")
        assert first["passed"] == first["count"]
