"""Benchmark for opacedit: four workloads, end-to-end metrics, and a traced
per-layer run.

    python3 perfbench/run.py --workload pair-large --seed 0 --seconds 15 --trace 0

Run from anywhere; the benchmark uses the checkout that contains this file
and imports the program from its ``src/``.  Every load comes from this one
single-threaded process (``demo-cli`` starts one CLI process at a time), in a
closed loop: each operation starts when the previous one has finished.

Workloads (inputs are built by ``workloads.py`` from ``--seed``):

* ``pair-large``: synthesize and serialize the structure for the large random
  pair, repeatedly.  TPO, transform and the document write dominate.
* ``chain3``: the same for a ring of three small components.  Product and
  supervisor dominate; the TPO layers do almost nothing.
* ``edit-stream``: load the ``pair-large`` structure and feed a seeded walk of
  genuine events through ``pass-through`` sessions.  Synthesis only runs in
  set-up.
* ``demo-cli``: run ``opacedit synthesize`` and then ``opacedit step`` on the
  demo pair as subprocesses, one call at a time.

With ``--trace 0`` the run measures for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it alternates a fixed number of
untraced and traced rounds of the same work and prints the per-layer metrics
(see ``spans.py``).
Either way every output is checked; the last line of standard output is one
JSON object, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# The program is imported only after ``main`` has checked for and put this
# checkout's ``src/`` on the path, hence the imports inside functions.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("pair-large", "chain3", "edit-stream", "demo-cli")

STREAM_LENGTH = 2000  # genuine events per edit-stream pass
REPLAY_LENGTH = 200  # genuine events replayed on a synthesized structure
SETUP_REPEATS = 3  # edit-stream set-ups, each a synthesis of the large structure
IMPORT_SETUP_REPEATS = 15  # set-ups that are one fresh interpreter each
# Loads of each synthesized document: about 0.5 s of loading per operation on
# the seed program, so that load_s has enough samples.  A fixed number, so that
# the traced run's session counts repeat exactly.
LOADS_PER_OP = {"pair-large": 1, "chain3": 7}
IMPORT_REPEATS = 5
TRACED_ROUNDS = 2
CLI_TIMEOUT_S = 60


@dataclass
class Gate:
    """Correctness bookkeeping: every operation is attempted once and fails
    if any check on it fails."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Measured:
    """Raw samples of the rounds of one run."""

    op: str  # what one operation is, for the report
    op_times: list[float] = field(default_factory=list)
    loop_seconds: float = 0.0  # edit-stream: wall time of the stream passes
    load_times: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    artifact_bytes: int = 0
    peak_rss_mb: float = 0.0
    notes: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; the maximum when there are fewer than
    100 / (100 - q) samples."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_times(statement: str, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter running ``statement``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], env=child_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


# --- the program's operations -------------------------------------------------


def synthesize(systems):
    """One synthesis operation: the structure and its document text."""
    from opacedit import documents, synthesis

    m = synthesis.synthesize_modular_edit_structure(systems, workloads.MAX_ERASURES)
    return m, documents.serialize_document(m)


def load(text: str):
    """Parse a structure document and open a session: the point where the
    first event can be answered.  The session is dropped at once, so that it
    keeps no structure alive into the next operation."""
    from opacedit import documents, runtime

    doc = documents.parse_document(text)
    runtime.open_session(doc, policy="pass-through")
    return doc


def structure_counts(m) -> dict:
    return {
        "empty": m.is_empty(),
        "plant_states": len(m.plant.states),
        "plant_transitions": len(m.plant.transitions),
        "supervisor_states": len(m.supervisor.states),
        "supervisor_transitions": len(m.supervisor.transitions),
        "events": len(m.supervisor.events),
    }


def structure_problems(label: str, m, text: str, pinned: dict) -> list[str]:
    got = {**structure_counts(m), "artifact_bytes": len(text.encode("utf-8"))}
    return [
        f"{label}: {key} is {got[key]}, pinned {value}"
        for key, value in pinned.items()
        if got[key] != value
    ]


def parse_back_problems(label: str, m, doc) -> list[str]:
    written, read = structure_counts(m), structure_counts(doc)
    return [
        f"{label}: document parses back with {key} {read[key]}, wrote {written[key]}"
        for key in written
        if read[key] != written[key]
    ]


class SafeReplay:
    """Independent check of a session's output: every emitted symbol must be
    accepted by the safe observer of the composed plant, and no run of more
    than ``k`` erasures (reset only by an insertion) may occur."""

    def __init__(self, systems, max_erasures: int) -> None:
        from opacedit.automata import compose_all
        from opacedit.estimation import desired_observer, determinize

        observer = determinize(compose_all(systems))
        self.walk_observer = observer.automaton
        safe = desired_observer(observer).automaton
        self.moves = {(src, label): dst for src, label, dst in safe.transitions}
        self.initial = safe.initial_states[0]
        self.max_erasures = max_erasures

    def check_segment(self, events: list[str], results: list) -> tuple[list[list[str]], dict]:
        """Problems per step of one session, and its decision totals."""
        problems_per_step: list[list[str]] = []
        totals = {"decisions": 0, "insertions": 0, "erasures": 0}
        here, run = self.initial, 0
        for event, result in zip(events, results):
            problems = []
            if isinstance(result, Exception):
                problems_per_step.append([f"step {event!r} raised {type(result).__name__}: {result}"])
                break
            for decision in result.decisions:
                totals["decisions"] += 1
                if decision.startswith("ins:"):
                    totals["insertions"] += 1
                    run = 0
                elif decision.startswith("erz:"):
                    totals["erasures"] += 1
                    run += 1
                    if run > self.max_erasures:
                        problems.append(f"{run} consecutive erasures at {event!r}")
            for symbol in result.emitted:
                here = self.moves.get((here, symbol)) if here is not None else None
            if here is None:
                problems.append(f"unsafe output after {event!r}")
            problems_per_step.append(problems)
        return problems_per_step, totals


def stream_pass(doc, segments: list[list[str]], latencies: list[float] | None):
    """Feed every segment through a fresh pass-through session; a ``StepError``
    ends its segment and is returned in place of the step result."""
    from opacedit import runtime

    open_session, step, step_error = runtime.open_session, runtime.step, runtime.StepError
    outputs = []
    for events in segments:
        session = open_session(doc, policy="pass-through")
        results: list = []
        for event in events:
            start = time.perf_counter()
            try:
                result = step(session, event)
            except step_error as err:
                results.append(err)
                break
            if latencies is not None:
                latencies.append(time.perf_counter() - start)
            results.append(result)
        outputs.append(results)
    return outputs


def check_stream(gate: Gate, replay: SafeReplay, segments, outputs) -> dict:
    totals = {"decisions": 0, "insertions": 0, "erasures": 0, "steps": 0, "sessions": 0}
    for events, results in zip(segments, outputs):
        per_step, segment_totals = replay.check_segment(events, results)
        for problems in per_step:
            gate.record(problems)
        for key, value in segment_totals.items():
            totals[key] += value
        totals["steps"] += sum(not isinstance(r, Exception) for r in results)
        totals["sessions"] += 1
    return totals


def same_totals(gate: Gate, label: str, first: dict, again: dict) -> None:
    gate.record([f"{label}: totals {again} differ from the first pass {first}"] if again != first else [])


@dataclass
class Inputs:
    """A workload's seeded inputs: the systems, their independent safe replay
    and a walk of genuine events over them."""

    systems: list
    replay: SafeReplay
    segments: list[list[str]]


def make_inputs(workload: str, seed: int, length: int) -> Inputs:
    systems = workloads.isomorphic_copy(workloads.base_systems(workload), seed)
    replay = SafeReplay(systems, workloads.MAX_ERASURES)
    return Inputs(systems, replay, workloads.random_walk(replay.walk_observer, seed, length))


def run_cli(args: list[str], stdin_text: str = "") -> tuple[int, str, float]:
    """Run the CLI as a fresh process: exit code, standard output, wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "opacedit.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=child_env(),
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def in_process_cli(args: list[str], stdin_text: str = "") -> tuple[int, str, float]:
    """Run the CLI entry point in this process, so that the traced run sees
    its calls: exit code, standard output, wall time."""
    import opacedit.cli

    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    code = 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            opacedit.cli.main.main(args=args, prog_name="opacedit", standalone_mode=False)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), time.perf_counter() - start


def synthesize_cli_problems(code: int, doc, text: str) -> list[str]:
    problems = [] if code == 0 else [f"synthesize exited with {code}"]
    return problems + structure_problems("demo-cli", doc, text, workloads.PINNED["demo-cli"])


def step_cli_problems(code: int, transcript: str) -> list[str]:
    problems = [] if code == 0 else [f"step exited with {code}"]
    if transcript != workloads.DEMO_STEP_TRANSCRIPT:
        problems.append(f"step transcript differs from the README: {transcript!r}")
    return problems


# --- one round of each workload: its operations, their checks and timings -------
#
# The timed run repeats a round for --seconds; the traced run alternates
# untraced rounds with traced ones.  A round appends its samples to ``out`` and
# returns the totals that every later round must repeat (None if none).


def synthesis_round(workload: str, inputs: Inputs, gate: Gate, out: Measured) -> dict:
    """Synthesize and serialize; load the document ``LOADS_PER_OP`` times;
    check the counts and the parse-back; replay the walk on the loaded
    structure."""
    gc.collect()
    start = time.perf_counter()
    m, text = synthesize(inputs.systems)
    out.op_times.append(time.perf_counter() - start)
    for _ in range(LOADS_PER_OP[workload]):
        doc = None  # so that every load starts with the same memory in use
        start = time.perf_counter()
        doc = load(text)
        out.load_times.append(time.perf_counter() - start)
    label = f"{workload} op {len(out.op_times)}"
    gate.record(structure_problems(label, m, text, workloads.PINNED[workload]) + parse_back_problems(label, m, doc))
    out.artifact_bytes = len(text.encode("utf-8"))
    del m, text
    return check_stream(gate, inputs.replay, inputs.segments, stream_pass(doc, inputs.segments, None))


def edit_stream_round(inputs: Inputs, text: str, gate: Gate, out: Measured) -> dict:
    """Load the document afresh and feed the walk through it, so that load
    and step samples come from the same stretch of time."""
    gc.collect()
    start = time.perf_counter()
    doc = load(text)
    out.load_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    outputs = stream_pass(doc, inputs.segments, out.op_times)
    out.loop_seconds += time.perf_counter() - start
    return check_stream(gate, inputs.replay, inputs.segments, outputs)


def cli_round(run, structure: str, gate: Gate, out: Measured) -> None:
    """``opacedit synthesize`` and then ``opacedit step`` through ``run``;
    check both exit codes, the structure written and the step transcript."""
    code, _, elapsed = run(["synthesize", *workloads.DEMO_INPUTS, "-k", "1", "-o", structure])
    out.op_times.append(elapsed)
    step_code, transcript, elapsed = run(["step", structure], workloads.DEMO_STEP_INPUT)
    out.op_times.append(elapsed)
    text = Path(structure).read_text(encoding="utf-8")
    start = time.perf_counter()
    doc = load(text)
    out.load_times.append(time.perf_counter() - start)
    gate.record(synthesize_cli_problems(code, doc, text))
    gate.record(step_cli_problems(step_code, transcript))
    out.artifact_bytes = len(text.encode("utf-8"))


def edit_stream_setup(systems, gate: Gate, times: list[float], repeats: int) -> str:
    """Synthesize and write the structure ``repeats`` times; every repeat must
    write the first one's document.  Only that text is kept, so that set-up
    holds no more memory than one synthesis needs."""
    pinned = workloads.PINNED["pair-large"]
    first = None
    for i in range(repeats):
        gc.collect()
        start = time.perf_counter()
        m, text = synthesize(systems)
        times.append(time.perf_counter() - start)
        problems = structure_problems(f"edit-stream setup {i + 1}", m, text, pinned)
        if first is None:
            first = text
        elif text != first:
            problems.append(f"edit-stream setup {i + 1} wrote a different document")
        gate.record(problems)
        del m, text
    return first


# --- untraced runs --------------------------------------------------------------


def repeat_for(seconds: float, label: str, gate: Gate, out: Measured, round_) -> dict | None:
    """Run ``round_(out)`` until ``seconds`` have passed, at least once.  Peak
    memory is read after the first round: later rounds only add allocator
    noise.  Returns the first round's totals."""
    rounds, first = 0, None
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        totals = round_(out)
        rounds += 1
        if rounds == 1:
            first = totals
            out.peak_rss_mb = own_peak_rss_mb()
        elif totals is not None:
            same_totals(gate, f"{label} round {rounds}", first, totals)
    return first


def measure_synthesis(workload: str, seed: int, seconds: float, gate: Gate) -> Measured:
    inputs = make_inputs(workload, seed, REPLAY_LENGTH)
    out = Measured(op="synthesize")
    out.setup_times = import_times("import opacedit", IMPORT_SETUP_REPEATS)
    repeat_for(seconds, workload, gate, out, functools.partial(synthesis_round, workload, inputs, gate))
    return out


def measure_edit_stream(seed: int, seconds: float, gate: Gate) -> Measured:
    inputs = make_inputs("edit-stream", seed, STREAM_LENGTH)
    out = Measured(op="step")
    text = edit_stream_setup(inputs.systems, gate, out.setup_times, SETUP_REPEATS)
    out.artifact_bytes = len(text.encode("utf-8"))
    first = repeat_for(seconds, "edit-stream", gate, out, functools.partial(edit_stream_round, inputs, text, gate))
    out.notes.append(
        f"per pass: {first['steps']} steps, {first['sessions']} sessions, "
        f"{first['insertions']} insertions, {first['erasures']} erasures"
    )
    return out


def measure_demo_cli(seconds: float, gate: Gate) -> Measured:
    out = Measured(op="cli")
    out.setup_times = import_times("import opacedit.cli", IMPORT_SETUP_REPEATS)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        structure = str(Path(tmp) / "structure.json")
        repeat_for(seconds, "demo-cli", gate, out, functools.partial(cli_round, run_cli, structure, gate))
    # Each CLI call is its own process: the peak is the largest child's.
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return out


def report_rows(out: Measured) -> list[tuple[str, float, str, int, str | None]]:
    """The workload's end-to-end metrics under their own names: (name, value,
    unit, sample count, the gated metric it is reported as, if any)."""
    n = len(out.op_times)
    p50 = statistics.median(out.op_times)
    if out.op == "synthesize":
        rows = [("synthesize_s", p50, "s", n, "op_p50_ms")]
    elif out.op == "step":
        rows = [
            ("step_p50_us", p50 * 1e6, "us", n, "op_p50_ms"),
            ("step_p99_us", percentile(out.op_times, 99) * 1e6, "us", n, None),
            ("steps_per_s", n / out.loop_seconds, "1/s", n, None),
        ]
    else:
        rows = [("cli_p50_ms", p50 * 1e3, "ms", n, "op_p50_ms")]
    return rows + [
        ("load_s", statistics.median(out.load_times), "s", len(out.load_times), "load_s"),
        ("artifact_bytes", out.artifact_bytes, "bytes", 1, "artifact_bytes"),
        ("peak_rss_mb", out.peak_rss_mb, "MB", 1, "peak_rss_mb"),
        ("setup_s", statistics.median(out.setup_times), "s", len(out.setup_times), "setup_s"),
    ]


OP_MEANING = {
    "synthesize": "synthesize_modular_edit_structure + serialize_document",
    "step": "one runtime.step of a pass-through session",
    "cli": "one `opacedit synthesize` or `opacedit step` process",
}
SETUP_MEANING = {
    "synthesize": "a fresh interpreter importing opacedit",
    "step": "synthesizing and serializing the structure the stream loads",
    "cli": "a fresh interpreter importing opacedit.cli",
}


def report_end_to_end(workload: str, seed: int, out: Measured, gate: Gate) -> dict:
    """Print every end-to-end metric by name, unit and sample count; return
    the gated ones, as the benchmark's result reports them."""
    print(f"# {workload} seed={seed}: one operation is {OP_MEANING[out.op]}")
    print(f"# set-up is {SETUP_MEANING[out.op]}; load is parse_document + open_session")
    metrics = {}
    for name, value, unit, n, gated in report_rows(out):
        shown = f"as {gated}" if gated else "not gated"
        print(f"{workload:12s} {name:16s} {value:18.6f} {unit:6s} n={n:<6d} ({shown})")
        if gated == "op_p50_ms":
            metrics[gated] = {"value": statistics.median(out.op_times) * 1e3, "unit": "ms"}
        elif gated:
            metrics[gated] = {"value": value, "unit": unit}
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{workload:12s} {'error_rate':16s} {error_rate:18.6f} {'':6s} n={gate.attempted}")
    for note in out.notes:
        print(f"# {note}")
    return metrics


# --- traced runs ------------------------------------------------------------------

# Per-layer metric name prefix; the time metric is prefix + "s" (µs for step).
LAYER_PREFIX = {
    "synthesis.pipeline": "synthesis.pipeline_",
    "abstraction": "abstraction.",
    "tpo": "tpo.",
    "transform": "transform.",
    "constraint": "constraint.",
    "synthesis.product": "synthesis.product_",
    "synthesis.supervisor": "synthesis.supervisor_",
    "documents.serialize": "documents.serialize_",
    "documents.parse": "documents.parse_",
    "runtime.open_session": "runtime.open_session_",
    "runtime.step": "runtime.step_",
}
SYNTHESIS_COUNTS = (
    "abstraction.states_out",
    "tpo.states",
    "tpo.transitions",
    "transform.events",
    "constraint.states",
    "synthesis.product_states",
    "synthesis.product_transitions",
    "synthesis.supervisor_states",
    "synthesis.supervisor_passes",
    "documents.bytes",
)
RUNTIME_COUNTS = ("runtime.insertions", "runtime.erasures", "runtime.sessions")


def cli_import_ms() -> float:
    """Import time of ``opacedit.cli`` over a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare += import_times("pass", 1)
        full += import_times("import opacedit.cli", 1)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def repeated_counts(tracer, gate: Gate, keys: tuple[str, ...]) -> dict:
    """Counts of the first root span that recorded any of ``keys``; every
    other such root must have the same counts."""
    seen = []
    for root in tracer.roots():
        counts = tracer.counts_under(root)
        if any(key in counts for key in keys):
            seen.append({key: counts.get(key, 0) for key in keys})
    for again in seen[1:]:
        gate.record([] if again == seen[0] else [f"traced counts differ: {again} vs {seen[0]}"])
    return seen[0] if seen else dict.fromkeys(keys, 0)


def traced_rounds(tracer, gate: Gate, label: str, round_) -> tuple[list[float], list[float]]:
    """``TRACED_ROUNDS`` times an untraced round and then a traced one, under
    one root span; every round must repeat the first one's totals.  Returns
    the wall times of the untraced and of the traced rounds."""
    untraced, traced, outcomes = [], [], []
    for _ in range(TRACED_ROUNDS):
        start = time.perf_counter()
        outcomes.append(round_(Measured(op="untraced")))
        untraced.append(time.perf_counter() - start)
        with tracer.installed(), tracer.span("round") as root:
            outcomes.append(round_(Measured(op="traced")))
        traced.append(root.end - root.start)
    for i, totals in enumerate(outcomes[1:], 2):
        if totals is not None:
            same_totals(gate, f"{label} traced run, round {i}", outcomes[0], totals)
    return untraced, traced


def per_layer(workload: str, seed: int, gate: Gate) -> dict:
    import opacedit.cli  # noqa: F401  (so the CLI namespace is wrapped too)
    from spans import LAYER_NAMES, Tracer, span_cost_s

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if workload in ("pair-large", "chain3"):
            inputs = make_inputs(workload, seed, REPLAY_LENGTH)
            round_ = functools.partial(synthesis_round, workload, inputs, gate)
        elif workload == "edit-stream":
            inputs = make_inputs(workload, seed, STREAM_LENGTH)
            with tracer.installed(), tracer.span("setup"):
                text = edit_stream_setup(inputs.systems, gate, [], 1)
            round_ = functools.partial(edit_stream_round, inputs, text, gate)
        else:
            round_ = functools.partial(cli_round, in_process_cli, str(Path(tmp) / "structure.json"), gate)
        untraced, traced = traced_rounds(tracer, gate, workload, round_)

    own = tracer.self_times()
    end_to_end_s = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    metrics: dict[str, tuple[float, str]] = {}
    ranking = []
    for layer in LAYER_NAMES:
        picked = [i for i, sp in enumerate(tracer.spans) if sp.name == layer]
        self_s = sum(own[i] for i in picked)
        per_call = self_s / len(picked) if picked else 0.0
        prefix = LAYER_PREFIX[layer]
        if layer == "runtime.step":
            metrics["runtime.step_us"] = (per_call * 1e6, "us")
            durations = [tracer.spans[i].end - tracer.spans[i].start for i in picked]
            metrics["runtime.step_p99_us"] = (percentile(durations, 99) * 1e6 if picked else 0.0, "us")
        else:
            metrics[prefix + "s"] = (per_call, "s")
        metrics[prefix + "share"] = (self_s / end_to_end_s, "ratio")
        metrics[prefix + "calls"] = (len(picked), "count")
        ranking.append((self_s, layer, len(picked)))

    synth = repeated_counts(tracer, gate, SYNTHESIS_COUNTS + (
        "synthesis.product_events", "synthesis.supervisor_plant_states"))
    for key in SYNTHESIS_COUNTS:
        metrics[key] = (synth[key], "bytes" if key == "documents.bytes" else "count")
    cells = synth["synthesis.product_states"] * synth["synthesis.product_events"]
    metrics["synthesis.product_hit_ratio"] = (
        synth["synthesis.product_transitions"] / cells if cells else 0.0, "ratio")
    plant = synth["synthesis.supervisor_plant_states"]
    metrics["synthesis.supervisor_kept_ratio"] = (
        synth["synthesis.supervisor_states"] / plant if plant else 0.0, "ratio")
    stream = repeated_counts(tracer, gate, RUNTIME_COUNTS + ("runtime.steps", "runtime.decisions"))
    for key in RUNTIME_COUNTS:
        metrics[key] = (stream[key], "count")
    steps = stream["runtime.steps"]
    metrics["runtime.decisions_per_step"] = (stream["runtime.decisions"] / steps if steps else 0.0, "ratio")
    metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    # The tracer's cost, derived rather than measured as traced minus untraced
    # time, which on a shared machine is mostly noise: the cost of one span
    # around a call that does nothing, times the spans of a traced round, plus
    # the time the round's spans spent reading counts from results.
    per_span_s = span_cost_s()
    overheads = [
        sum(per_span_s + sp.count_s for sp in tracer.under(root))
        for root in tracer.roots() if tracer.spans[root].name == "round"
    ]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")

    print(f"# {workload} seed={seed}: traced run, {len(tracer.spans)} spans, "
          f"{end_to_end_s:.3f} s traced end to end")
    print(f"# {'layer':22s} {'self s':>10s} {'share':>7s} {'calls':>7s}")
    for self_s, layer, calls in sorted(ranking, reverse=True):
        print(f"# {layer:22s} {self_s:10.4f} {self_s / end_to_end_s:7.1%} {calls:7d}")
    difference = statistics.median(traced) - statistics.median(untraced)
    print(f"# trace.overhead_s: {per_span_s * 1e6:.2f} us per span; measured traced minus untraced "
          f"round, medians of {TRACED_ROUNDS}: {difference:+.4f} s"
          + (" (negative, so unresolved: below the machine's noise)" if difference < 0 else ""))
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:34s} {value:16.6f} {unit}")
    error_rate = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{workload:12s} {'error_rate':34s} {error_rate:16.6f} n={gate.attempted}")

    spans_file = WORK / f"spans-{workload}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.to_records()), encoding="utf-8")
    print(f"# spans written to {spans_file.relative_to(ROOT)}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# --- entry point ------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "opacedit" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} is not a checkout of opacedit: no src/opacedit", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads

    missing = [path for path in workloads.DEMO_INPUTS if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    gate = Gate()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, gate)
    else:
        if args.workload in ("pair-large", "chain3"):
            out = measure_synthesis(args.workload, args.seed, args.seconds, gate)
        elif args.workload == "edit-stream":
            out = measure_edit_stream(args.seed, args.seconds, gate)
        else:
            out = measure_demo_cli(args.seconds, gate)
        metrics = report_end_to_end(args.workload, args.seed, out, gate)
    for problem in gate.problems[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
