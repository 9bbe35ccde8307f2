"""The demo commands' outputs and DOT renderings, and larger structure and TPO
documents, pinned byte for byte by sha256."""

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from opacedit import (
    abstract_component,
    constrain_erasures,
    largest_tpo,
    prune_to_aes,
    serialize_automaton,
    serialize_document,
    synthesize_modular_edit_structure,
)
from opacedit.cli import main
from opacedit.oracle import RandomSpec, random_pair, random_system

DATA = Path(__file__).resolve().parent.parent / "data"
G1 = str(DATA / "demo_g1.json")
G2 = str(DATA / "demo_g2.json")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize(
    "args, exit_code, digest",
    [
        (["tpo", G1], 0, "17e154aa6572d023"),
        (["transform", G1], 0, "c8f9e6caf7dadc5f"),
        (["synthesize", G1, G2, "-k", "1"], 0, "b4612c604c52fd73"),
        # both components and their composition are not opaque
        (["verify-opacity", G1, G2], 1, "c070f66f0ffcacc3"),
    ],
    ids=["tpo", "transform", "synthesize", "verify-opacity"],
)
def test_demo_stdout_is_pinned(args, exit_code, digest):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert _digest(result.stdout_bytes) == digest


@pytest.mark.parametrize(
    "command, digest",
    [("tpo", "df8b8064a9d7ec7f"), ("transform", "25ac37eabcc25467")],
    ids=["tpo", "transform"],
)
def test_demo_document_dot_is_pinned(tmp_path, command, digest):
    # the reader of each document kind feeds the DOT writer
    result = CliRunner().invoke(main, [command, G1])
    assert result.exit_code == 0, result.output
    path = tmp_path / f"{command}.json"
    path.write_bytes(result.stdout_bytes)
    dot = CliRunner().invoke(main, ["export-dot", str(path)])
    assert dot.exit_code == 0, dot.output
    assert _digest(dot.stdout_bytes) == digest


def test_random_system_tpo_document_is_pinned():
    t = largest_tpo(random_system(RandomSpec(seed=5)))
    assert (len(t.states), len(t.transitions)) == (1539, 3568)
    assert _digest(serialize_document(t).encode("utf-8")) == "17e063c41bd9ddd9"


@pytest.mark.parametrize(
    "k, sizes, digests",
    [
        (0, (25, 0), ["6255aa32413a4bc8", "acea41a0353bc2ec"]),
        (1, (69, 33), ["3dbbe78b8ee23484", "40ffe83ab8cb23ee"]),
    ],
    ids=["k0", "k1"],
)
def test_counted_and_pruned_demo_tpo_documents_are_pinned(mono_tpo, k, sizes, digests):
    # the pins hold the order in which each TPO lists its states
    tpos = (constrain_erasures(mono_tpo, k), prune_to_aes(mono_tpo, k))
    assert tuple(len(t.states) for t in tpos) == sizes
    assert [_digest(serialize_document(t).encode("utf-8")) for t in tpos] == digests


@pytest.mark.parametrize(
    "source, stdout, files",
    [
        (G1, "54488490837f7e0d", ["1640de95b4c59eaf", "8944ad021d7176ab", "41a8b5e0a3138fb9", "a6fc35b31b2fc383"]),
        (G2, "b6af4f77c892c209", ["580601c970939ed8", "fc87ba620a2d7ea2", "1e84030df214851c", "c2b38788cbe183a6"]),
    ],
    ids=["G1", "G2"],
)
def test_demo_abstract_bundle_is_pinned(tmp_path, source, stdout, files):
    result = CliRunner().invoke(main, ["abstract", source, "-o", str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
    assert _digest(result.stdout_bytes) == stdout
    kinds = ("abstracted", "desired", "observer-bisim", "observer-opaque")
    assert [_digest((tmp_path / f"b.{kind}.json").read_bytes()) for kind in kinds] == files


def test_observers_with_a_mixed_bisimulation_block_are_pinned():
    # h_b merges the safe estimate {q1} with the secret-only {q2}
    bundle = abstract_component(random_system(RandomSpec(seed=0)))
    assert "{{q1},{q2}}" in bundle.h_b.automaton.secret_states
    automata = (bundle.abstracted, bundle.h_b.automaton, bundle.h_ob.automaton, bundle.h_obd.automaton)
    assert [_digest(serialize_automaton(a).encode("utf-8")) for a in automata] == [
        "943860c0e248d1a4",
        "e5208d41f25c89d8",
        "03f14aea34498ebe",
        "e9b1ed4e8522c66a",
    ]


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
