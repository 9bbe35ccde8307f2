"""Command-line interface.

Documents go in and out as JSON (see ``documents``); graphs render as DOT.
Exit codes: 0 success, 1 property violated (non-opaque input, failing suite),
2 input error, 3 opacity unenforceable / empty supervisor.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

import click

from .abstraction import abstract_component
from .automata import EPSILON, Automaton, InvalidAutomaton, compose_all
from .constraint import build_constraint_automaton
from .documents import (
    DocumentError,
    parse_automaton,
    parse_document,
    serialize_automaton,
    serialize_document,
)
from .dot import export_dot
from .estimation import check_current_state_opacity
from .oracle import SUITE_NAMES, run_suite
from .runtime import POLICIES, StepError, open_session, step
from .synthesis import (
    ModularEditStructure,
    encode_components,
    synthesize_modular_edit_structure,
)
from .tpo import largest_tpo
from .transform import transform_monolithic

EXIT_VIOLATED = 1
EXIT_UNENFORCEABLE = 3


def _read(path: str, parse: Callable[[str], Any]) -> Any:
    """Parse the file at ``path`` with ``parse``; an unreadable or malformed
    file is a usage error."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, DocumentError) as err:
        raise click.UsageError(f"{path}: {err}")


def _compose(files: tuple[str, ...]) -> list[Automaton]:
    systems = [_read(path, parse_automaton) for path in files]
    if not systems:
        raise click.UsageError("at least one automaton file is required")
    return systems


def _write(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}", err=True)


class _InputError(click.ClickException):
    exit_code = 2


class _Main(click.Group):
    """Reports an automaton that fails validation, whichever command built
    it, as a one-line input error rather than a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InvalidAutomaton as err:
            raise _InputError(str(err)) from err


@click.group(cls=_Main)
def main() -> None:
    """Synthesize and run opacity-enforcing edit functions for modular
    discrete-event systems."""


@main.command("verify-opacity")
@click.argument("files", nargs=-1, required=True)
def verify_opacity(files: tuple[str, ...]) -> None:
    """Report current-state opacity of each automaton and their composition."""
    systems = _compose(files)
    targets = list(systems)
    if len(systems) > 1:
        targets.append(compose_all(systems))
    violated = False
    for g in targets:
        report = check_current_state_opacity(g)
        if report.opaque:
            click.echo(f"{g.name}: opaque")
        else:
            violated = True
            shown = ", ".join(
                ".".join(w) if w else EPSILON for w, _ in report.witnesses
            )
            click.echo(f"{g.name}: not opaque (witnesses: {shown})")
    if violated:
        sys.exit(EXIT_VIOLATED)


@main.command("abstract")
@click.argument("file")
@click.option("-o", "--output-prefix", default=None, help="Prefix for the bundle files.")
def abstract(file: str, output_prefix: str | None) -> None:
    """Abstract one component and write its observer bundle."""
    g = _read(file, parse_automaton)
    bundle = abstract_component(g)
    prefix = output_prefix or str(Path(file).with_suffix(""))
    outputs = {
        f"{prefix}.abstracted.json": bundle.abstracted,
        f"{prefix}.observer-bisim.json": bundle.h_b.automaton,
        f"{prefix}.observer-opaque.json": bundle.h_ob.automaton,
        f"{prefix}.desired.json": bundle.h_obd.automaton,
    }
    for path, automaton in outputs.items():
        _write(serialize_automaton(automaton), path)
    blocks = [sorted(block) for block in bundle.partition.blocks]
    click.echo(json.dumps({"partition": blocks}, indent=2, ensure_ascii=False))


@main.command("tpo")
@click.argument("file")
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def tpo_command(file: str, output: str | None) -> None:
    """Build the largest three-player observer of one automaton."""
    g = _read(file, parse_automaton)
    t = largest_tpo(g, name=f"tpo({g.name})")
    _write(serialize_document(t), output)


@main.command("transform")
@click.argument("files", nargs=-1, required=True)
@click.option("--modular", is_flag=True, help="Encode components for modular composition.")
@click.option("-o", "--output-prefix", default=None, help="Prefix for the output files.")
def transform(files: tuple[str, ...], modular: bool, output_prefix: str | None) -> None:
    """Encode TPOs as plant automata with decorated decision events."""
    systems = _compose(files)
    if not modular:
        if len(systems) > 1:
            raise click.UsageError("monolithic transform takes exactly one file; use --modular")
        g = systems[0]
        t = largest_tpo(g, name=f"tpo({g.name})")
        encoded = transform_monolithic(t, name=f"{g.name}^T")
        _write(serialize_document(encoded), output_prefix)
        return
    _, _, components = encode_components(systems)
    prefix = output_prefix or "transformed"
    for i, comp in enumerate(components):
        _write(serialize_document(comp), f"{prefix}.{i}.json")


@main.command("spec-k")
@click.option("--max-erasures", "-k", type=int, required=True, help="Consecutive-erasure bound.")
@click.option(
    "--plant",
    "plants",
    multiple=True,
    required=True,
    help="Component automaton file (repeatable).",
)
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def spec_k(max_erasures: int, plants: tuple[str, ...], output: str | None) -> None:
    """Build the edit-constraint specification for the given components."""
    systems = _compose(plants)
    _, _, components = encode_components(systems)
    try:
        spec = build_constraint_automaton(max_erasures, components)
    except ValueError as err:
        raise click.UsageError(str(err))
    _write(serialize_automaton(spec), output)


@main.command("synthesize")
@click.argument("files", nargs=-1, required=True)
@click.option("--max-erasures", "-k", type=int, required=True, help="Consecutive-erasure bound.")
@click.option("--verbose", is_flag=True, help="Log synthesis passes to stderr.")
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def synthesize(
    files: tuple[str, ...], max_erasures: int, verbose: bool, output: str | None
) -> None:
    """Synthesize the modular edit structure for the given components."""
    systems = _compose(files)
    if max_erasures < 0:
        raise click.UsageError("--max-erasures must be nonnegative")
    log = (lambda line: click.echo(line, err=True)) if verbose else None
    m = synthesize_modular_edit_structure(systems, max_erasures=max_erasures, log=log)
    for line in m.diagnostics:
        click.echo(line, err=True)
    _write(serialize_document(m), output)
    if m.is_empty():
        sys.exit(EXIT_UNENFORCEABLE)


@main.command("step")
@click.argument("structure")
@click.option(
    "--policy",
    type=click.Choice(POLICIES),
    default="pass-through",
    show_default=True,
    help="Decision policy for events without overrides.",
)
@click.option("--seed", type=int, default=None, help="Seed for the random policy.")
def step_command(structure: str, policy: str, seed: int | None) -> None:
    """Run edit decisions interactively, one system event per line.

    Input lines: ``event <name>`` to let the policy decide, or
    ``event <name> ! <decision,decision,...>`` to force decorated decisions.
    Each step prints ``emit <string-or-ε>`` and ``state <tuple>``.
    """
    doc = _read(structure, parse_document)
    if not isinstance(doc, ModularEditStructure):
        raise click.UsageError(f"{structure}: not a modular edit structure document")
    if doc.is_empty():
        click.echo("empty supervisor: opacity is unenforceable", err=True)
        sys.exit(EXIT_UNENFORCEABLE)
    session = open_session(doc, policy=policy, seed=seed)
    click.echo(f"state {session.current}")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        if not line.startswith("event "):
            click.echo(f"error: expected 'event <name> [! <decisions>]', got {line!r}")
            continue
        rest = line[len("event ") :].strip()
        overrides = None
        if "!" in rest:
            name, _, decisions = rest.partition("!")
            rest = name.strip()
            overrides = [d.strip() for d in decisions.split(",") if d.strip()]
        try:
            result = step(session, rest, overrides=overrides)
        except StepError as err:
            click.echo(f"error: {err}")
            continue
        click.echo(f"emit {'.'.join(result.emitted) if result.emitted else EPSILON}")
        click.echo(f"state {result.state}")


@main.command("check")
@click.option("--suite", type=click.Choice(SUITE_NAMES), required=True, help="Suite name.")
@click.option("--seed", type=int, default=0, show_default=True, help="Suite seed.")
@click.option("--count", type=int, default=None, help="Override the instance count.")
@click.option("-o", "--output", default=None, help="Also write the result JSON to a file.")
def check(suite: str, seed: int, count: int | None, output: str | None) -> None:
    """Run a randomized oracle suite and print its result as JSON."""
    if count is not None and count < 1:
        raise click.UsageError("--count must be positive")
    result = run_suite(suite, seed=seed, count=count)
    text = json.dumps(result, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    click.echo(text, nl=False)
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    if result["failures"]:
        sys.exit(EXIT_VIOLATED)


@main.command("export-dot")
@click.argument("file")
@click.option("-o", "--output", default=None, help="Output file (default stdout).")
def export_dot_command(file: str, output: str | None) -> None:
    """Render any document as a Graphviz digraph."""
    doc = _read(file, parse_document)
    _write(export_dot(doc), output)


if __name__ == "__main__":
    main()
