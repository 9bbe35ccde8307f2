"""The demo commands' outputs and larger structure documents, pinned byte for
byte by sha256."""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from opacedit import serialize_document, synthesize_modular_edit_structure
from opacedit.cli import main
from opacedit.oracle import RandomSpec, random_pair

DATA = Path(__file__).resolve().parent.parent / "data"
G1 = str(DATA / "demo_g1.json")
G2 = str(DATA / "demo_g2.json")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize(
    "args, digest",
    [
        (["tpo", G1], "17e154aa6572d023"),
        (["transform", G1], "c8f9e6caf7dadc5f"),
        (["synthesize", G1, G2, "-k", "1"], "b4612c604c52fd73"),
    ],
    ids=["tpo", "transform", "synthesize"],
)
def test_demo_stdout_is_pinned(args, digest):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert _digest(result.stdout_bytes) == digest


def test_demo_modular_encodings_are_pinned(tmp_path):
    prefix = tmp_path / "enc"
    result = CliRunner().invoke(main, ["transform", "--modular", G1, G2, "-o", str(prefix)])
    assert result.exit_code == 0, result.output
    digests = [_digest((tmp_path / f"enc.{i}.json").read_bytes()) for i in (0, 1)]
    assert digests == ["2f83347ee099e98f", "7b47a5f191deedd1"]


@pytest.mark.parametrize(
    "ring_args, sizes, digest",
    [
        # no ring: the base instance of the benchmark's pair-large workload
        (None, (2573, 876), "e9344caa870c2bb7"),
        ((0,), (57, 36), "07114d6b6bfbf008"),
        ((3, 4), (19, 12), "89fae000c05e95a8"),
    ],
    ids=["pair-large", "ring-0", "ring-3x4"],
)
def test_structure_documents_are_pinned(ring, ring_args, sizes, digest):
    if ring_args is None:
        systems = random_pair(RandomSpec(seed=2, max_states=24, alphabet_size=6))
    else:
        systems = ring(*ring_args)
    m = synthesize_modular_edit_structure(list(systems), 1)
    assert (len(m.plant.states), len(m.supervisor.states)) == sizes
    assert _digest(serialize_document(m).encode("utf-8")) == digest
