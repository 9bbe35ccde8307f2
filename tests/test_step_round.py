"""A step is one round of the edit game: the arrival, insertions, one stop or
erasure, and one delivery back to a Y state.  A structure whose moves do not
make that round is an error, not an endless step: the loader refuses its
document, and ``step`` refuses it when it is built in memory."""

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from opacedit import (
    DocumentError,
    StepError,
    demo_pair,
    open_session,
    parse_document,
    serialize_document,
    step,
    synthesize_modular_edit_structure,
)
from opacedit.oracle import RandomSpec, random_pair
from opacedit.runtime import POLICIES
from opacedit.transform import DELIVER, DELIVER_ERASED, ERASE, INSERT, STOP, SYSTEM

SRC = Path(__file__).resolve().parent.parent / "src"
Z_BETA = "(({q0},{q0})|(({s0},{s0}),beta)|K:x1)"
W_BETA = "(({q0},{q0})|(({s0},{s0}),beta!)|K:x1)"


def _genuine(session):
    return sorted({dec.base for _, dec, _ in session.outgoing(session.current) if dec.kind == SYSTEM})


def test_every_step_is_one_round(ring):
    families = (
        [list(demo_pair())]
        + [ring(seed) for seed in range(4)]
        + [list(random_pair(RandomSpec(seed=seed))) for seed in range(20)]
    )
    structures = [m for systems in families if not (m := synthesize_modular_edit_structure(systems, 1)).is_empty()]
    assert len(structures) >= 12
    steps = 0
    for m in structures:
        for policy in POLICIES:
            for seed in range(2):
                rng = random.Random(seed)
                s = open_session(m, policy, seed)
                for _ in range(20):
                    if not _genuine(s):
                        break
                    depth = len(s.trace)
                    step(s, rng.choice(_genuine(s)))
                    kinds = [s._decorations[label].kind for label in s.trace[depth:]]
                    assert kinds[0] == SYSTEM
                    assert set(kinds[1:-2]) <= {INSERT}
                    assert kinds[-2] in (STOP, ERASE)
                    assert kinds[-1] in (DELIVER, DELIVER_ERASED)
                    assert s.at_y()
                    steps += 1
    # walks end early where a system has nothing left to say
    assert steps >= len(structures) * len(POLICIES) * 2 * 5


# Demo structures whose moves make no round: every plant and supervisor edge
# out of a state is replaced by one edge.
BROKEN = {
    # a delivery where a decision is due: an ``out:alpha@beta`` self-loop at
    # the Z state pending ``beta``
    "delivery-loop": (Z_BETA, "out:alpha@beta", Z_BETA),
    # a decision where a delivery is due: ``stop@beta`` from the W state
    # committed to ``beta`` back to that Z state
    "stop-back": (W_BETA, "stop@beta", Z_BETA),
}


def _broken_structure(structure, edge):
    """The structure with ``edge`` in place of its source's edges, built in
    memory, where no loader checks it."""
    parts = {}
    for key in ("plant", "supervisor"):
        automaton = getattr(structure, key)
        kept = tuple(tr for tr in automaton.transitions if tr[0] != edge[0])
        assert len(kept) < len(automaton.transitions)
        parts[key] = dataclasses.replace(automaton, transitions=kept + (edge,))
    return dataclasses.replace(structure, **parts)


def _broken_document(structure, edge):
    doc = json.loads(serialize_document(structure))
    for key in ("plant", "supervisor"):
        kept = [tr for tr in doc[key]["transitions"] if tr[0] != edge[0]]
        assert len(kept) < len(doc[key]["transitions"])
        doc[key]["transitions"] = kept + [list(edge)]
    return json.dumps(doc, ensure_ascii=False)


@contextmanager
def _deadline(seconds):
    """Fail instead of hanging when a step does not end."""

    def expire(*_):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"step did not end within {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


EDGES = pytest.mark.parametrize("edge", BROKEN.values(), ids=BROKEN.keys())


@EDGES
@pytest.mark.parametrize("overrides", [None, ["stop@beta"]])
def test_step_that_makes_no_round_is_an_error(structure, edge, overrides):
    s = open_session(_broken_structure(structure, edge))
    before = (s.current, list(s.trace), list(s.emitted), list(s.consumed))
    with _deadline(10), pytest.raises(StepError):
        step(s, "beta", overrides)
    assert (s.current, s.trace, s.emitted, s.consumed) == before
    step(s, "gamma")
    assert s.consumed == ["gamma"]


@EDGES
def test_loader_rejects_an_edge_that_makes_no_round(structure, edge):
    with pytest.raises(DocumentError, match=r"^\$\.supervisor\.transitions\[\d+\]: .* makes no round"):
        parse_document(_broken_document(structure, edge))


@EDGES
def test_cli_step_reports_a_step_that_makes_no_round(tmp_path, structure, edge):
    path = tmp_path / "structure.json"
    path.write_text(_broken_document(structure, edge), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "opacedit.cli", "step", str(path)],
        input="event beta\nevent gamma\n",
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    # the loader refuses the structure before any step is taken
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "$.supervisor.transitions[" in done.stderr and "makes no round" in done.stderr
