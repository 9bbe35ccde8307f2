"""Spans around calls into the program's layers, for the traced run.

``Tracer.install`` replaces the layers' public functions, by name, in the
module namespaces that call them, with wrappers that record one span per
call; ``Tracer.remove`` puts the originals back.  A span holds its name,
start, end, parent, the counts read from the call's result and the time that
reading took, which falls after the span's end.  Spans stay
in memory until the run writes them out.  A function that a later version of
the program no longer has is skipped: its layer then reports zero calls.
"""

from __future__ import annotations

import re
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict[str, float] = field(default_factory=dict)
    count_s: float = 0.0


def _counts_abstraction(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"abstraction.states_out": len(result.abstracted.states)}


def _counts_tpo(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"tpo.states": len(result.states), "tpo.transitions": len(result.transitions)}


def _counts_transform(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"transform.events": len({ev.name for comp in result for ev in comp.automaton.events})}


def _counts_constraint(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"constraint.states": len(result.states)}


def _counts_product(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    a = result.automaton
    return {
        "synthesis.product_states": len(a.states),
        "synthesis.product_transitions": len(a.transitions),
        "synthesis.product_events": len(a.events),
    }


def _counts_supervisor(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    plant = args[0] if args else kwargs["plant"]
    return {
        "synthesis.supervisor_states": len(result.states),
        "synthesis.supervisor_plant_states": len(plant.states),
    }


def _counts_serialize(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"documents.bytes": len(result.encode("utf-8"))}


def _counts_open_session(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {"runtime.sessions": 1}


def _counts_step(result: Any, args: tuple, kwargs: dict) -> dict[str, float]:
    return {
        "runtime.steps": 1,
        "runtime.decisions": len(result.decisions),
        "runtime.insertions": sum(d.startswith("ins:") for d in result.decisions),
        "runtime.erasures": sum(d.startswith("erz:") for d in result.decisions),
    }


# (layer, function name, namespaces that call it, counts read from the result)
LAYERS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("synthesis.pipeline", "synthesize_modular_edit_structure", ("opacedit.synthesis", "opacedit.cli"), None),
    ("abstraction", "abstract_component", ("opacedit.synthesis",), _counts_abstraction),
    ("tpo", "build_largest_tpo", ("opacedit.synthesis",), _counts_tpo),
    ("transform", "transform_modular", ("opacedit.synthesis",), _counts_transform),
    ("constraint", "build_constraint_automaton", ("opacedit.synthesis",), _counts_constraint),
    ("synthesis.product", "product_plant", ("opacedit.synthesis",), _counts_product),
    ("synthesis.supervisor", "supremal_controllable_nonblocking", ("opacedit.synthesis",), _counts_supervisor),
    ("documents.serialize", "serialize_document", ("opacedit.documents", "opacedit.cli"), _counts_serialize),
    ("documents.parse", "parse_document", ("opacedit.documents", "opacedit.cli"), None),
    ("documents.parse", "parse_automaton", ("opacedit.cli",), None),
    ("runtime.open_session", "open_session", ("opacedit.runtime", "opacedit.cli"), _counts_open_session),
    ("runtime.step", "step", ("opacedit.runtime", "opacedit.cli"), _counts_step),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

_PASS = re.compile(r"pass (\d+):")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, start=0.0, parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            passes: set[str] = set()
            if layer == "synthesis.supervisor":
                # Passes are counted through the public ``log=`` callback.
                caller_log = kwargs.get("log")

                def log(line: str) -> None:
                    match = _PASS.match(line)
                    passes.add(match.group(1) if match else line)
                    if caller_log is not None:
                        caller_log(line)

                kwargs["log"] = log
            with tracer.span(layer) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                start = time.perf_counter()
                record.counts.update(counter(result, args, kwargs))
                record.count_s = time.perf_counter() - start
            if layer == "synthesis.supervisor":
                record.counts["synthesis.supervisor_passes"] = len(passes)
            return result

        return traced

    def install(self) -> None:
        for layer, attr, namespaces, counter in LAYERS:
            for module_name in namespaces:
                # Only namespaces the run has imported can call the layer.
                module = sys.modules.get(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, counter))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover, and
        minus the time spent reading their counts."""
        own = [sp.end - sp.start for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.end - sp.start + sp.count_s
        return own

    def roots(self) -> list[int]:
        return [i for i, sp in enumerate(self.spans) if sp.parent is None]

    def under(self, root: int) -> list[Span]:
        """Every span below ``root``.  Spans are kept in start order in one
        thread, so these are the spans up to the next root."""
        below = []
        for sp in self.spans[root + 1 :]:
            if sp.parent is None:
                break
            below.append(sp)
        return below

    def counts_under(self, root: int) -> dict[str, float]:
        """Sum of the counts of every span below ``root``."""
        totals: dict[str, float] = {}
        for sp in self.under(root):
            for key, value in sp.counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_records(self) -> list[dict]:
        return [
            {
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "parent": sp.parent,
                "count_s": sp.count_s,
                **sp.counts,
            }
            for sp in self.spans
        ]


PROBE_CALLS = 20000
PROBE_BATCHES = 5


def span_cost_s() -> float:
    """Time a traced call adds to a call of a function that does nothing: the
    wrapper and its span.  Median over ``PROBE_BATCHES`` batches of
    ``PROBE_CALLS`` calls each."""

    def nothing() -> None:
        return None

    costs = []
    for _ in range(PROBE_BATCHES):
        traced = Tracer()._wrap("probe", nothing, None)
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            nothing()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            traced()
        costs.append((time.perf_counter() - start - plain) / PROBE_CALLS)
    return statistics.median(costs)
