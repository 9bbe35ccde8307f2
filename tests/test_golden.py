"""The demo commands' outputs, pinned byte for byte by sha256."""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from opacedit.cli import main

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
