"""JSON documents, DOT export and the command-line surface."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import opacedit.cli as cli_module
from opacedit import (
    Automaton,
    DocumentError,
    Event,
    State,
    RandomSpec,
    build_largest_tpo,
    demo_g1,
    desired_observer,
    determinize,
    export_dot,
    largest_tpo,
    parse_automaton,
    parse_document,
    prune_to_aes,
    random_system,
    serialize_automaton,
    serialize_document,
    transform_monolithic,
)
from opacedit.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
G1 = str(DATA / "demo_g1.json")
G2 = str(DATA / "demo_g2.json")


def test_data_files_round_trip():
    for path in (G1, G2):
        text = Path(path).read_text(encoding="utf-8")
        assert serialize_automaton(parse_automaton(text)) == text


def test_automaton_round_trip_is_identity(g1):
    assert parse_automaton(serialize_automaton(g1)) == g1


def test_tpo_document_round_trip(mono_tpo):
    text = serialize_document(mono_tpo)
    loaded = parse_document(text)
    assert loaded == mono_tpo
    assert serialize_document(loaded) == text


@pytest.mark.parametrize("budget", [1, 2])
def test_count_annotated_tpo_document_round_trip(mono_tpo, budget):
    annotated = prune_to_aes(mono_tpo, budget)
    assert any(st.count == 0 for st in annotated.states)
    text = serialize_document(annotated)
    assert parse_document(text) == annotated
    assert '"count": 0' in text


def test_transformed_document_round_trip(mono_tpo):
    enc = transform_monolithic(mono_tpo)
    text = serialize_document(enc)
    loaded = parse_document(text)
    assert loaded.automaton == enc.automaton
    assert loaded.origins == dict(enc.origins)
    assert loaded.decorations == dict(enc.decorations)


def test_transformed_document_rejects_origin_of_unknown_state(mono_tpo):
    doc = json.loads(serialize_document(transform_monolithic(mono_tpo)))
    doc["origins"]["no such state"] = "Y"
    with pytest.raises(DocumentError, match="origin"):
        parse_document(json.dumps(doc))


def test_structure_document_round_trip(structure):
    text = serialize_document(structure)
    loaded = parse_document(text)
    assert loaded.supervisor == structure.supervisor
    assert loaded.plant == structure.plant
    assert loaded.constraint == structure.constraint
    assert loaded.max_erasures == structure.max_erasures
    assert dict(loaded.tuple_map) == dict(structure.tuple_map)
    assert serialize_document(loaded) == text


def test_parse_reports_paths():
    with pytest.raises(DocumentError) as err:
        parse_automaton('{"name": "x", "events": [], "states": [], "transitions": [1]}')
    assert "$.transitions[0]" in str(err.value)


def test_parse_rejects_declared_tau():
    doc = {
        "name": "bad",
        "events": [{"name": "tau"}],
        "states": [{"name": "s0", "initial": True}],
        "transitions": [],
    }
    with pytest.raises(DocumentError):
        parse_automaton(json.dumps(doc))


def test_parse_automaton_rejects_other_document_kinds(mono_tpo):
    with pytest.raises(DocumentError) as err:
        parse_automaton(serialize_document(transform_monolithic(mono_tpo)))
    assert str(err.value).startswith("$.kind:")


def test_parse_rejects_malformed_json():
    with pytest.raises(DocumentError):
        parse_document("{not json")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_on_random_automata(seed):
    g = random_system(RandomSpec(seed=seed, max_states=5, alphabet_size=3))
    assert parse_automaton(serialize_automaton(g)) == g


def test_export_dot_shapes(mono_tpo, g1):
    text = export_dot(g1)
    assert text.startswith("digraph")
    assert "peripheries=2" in text  # secret state
    tpo_text = export_dot(mono_tpo)
    assert "diamond" in tpo_text and "ellipse" in tpo_text and "box" in tpo_text


def test_export_dot_structure(structure):
    text = export_dot(structure)
    assert "digraph" in text
    assert "removed states" in text


def runner():
    return CliRunner()


def test_cli_verify_opacity_reports_witnesses():
    result = runner().invoke(main, ["verify-opacity", G1, G2])
    assert result.exit_code == 1
    assert "G1: not opaque (witnesses: gamma.alpha)" in result.output
    assert "G2: not opaque (witnesses: beta.alpha)" in result.output
    assert "beta.gamma.alpha" in result.output  # composition witness


def test_cli_verify_opacity_opaque_exit_zero(tmp_path, g1):
    g = g1
    from opacedit import Automaton, State

    mutant = Automaton(
        name="calm",
        events=g.events,
        states=tuple(
            State(s.name, initial=s.initial, marked=s.marked, secret=False)
            for s in g.states
        ),
        transitions=g.transitions,
    )
    path = tmp_path / "calm.json"
    path.write_text(serialize_automaton(mutant), encoding="utf-8")
    result = runner().invoke(main, ["verify-opacity", str(path)])
    assert result.exit_code == 0
    assert "calm: opaque" in result.output


def test_cli_rejects_missing_file():
    result = runner().invoke(main, ["verify-opacity", "no/such/file.json"])
    assert result.exit_code == 2


def test_cli_rejects_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    result = runner().invoke(main, ["tpo", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command",
    [["verify-opacity", "{enc}.0.json"], ["spec-k", "-k", "1", "--plant", "{enc}.0.json"]],
)
def test_cli_rejects_encoded_component_as_automaton(tmp_path, command):
    enc = str(tmp_path / "enc")
    assert runner().invoke(main, ["transform", G1, G2, "--modular", "-o", enc]).exit_code == 0
    result = runner().invoke(main, [arg.format(enc=enc) for arg in command])
    assert result.exit_code == 2
    assert "$.kind" in result.output


def test_cli_abstract_writes_bundle(tmp_path):
    prefix = str(tmp_path / "g1")
    result = runner().invoke(main, ["abstract", G1, "-o", prefix])
    assert result.exit_code == 0
    for suffix in ("abstracted", "observer-bisim", "observer-opaque", "desired"):
        assert (tmp_path / f"g1.{suffix}.json").exists()
    # the runner merges the stderr notices with stdout; the JSON comes last
    payload = result.output[result.output.index("{") :]
    partition = json.loads(payload)["partition"]
    assert sorted(map(sorted, partition)) == [["q0"], ["q1", "q2"], ["q3"]]


def test_cli_tpo_stdout():
    result = runner().invoke(main, ["tpo", G1])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "tpo"


def test_cli_transform_monolithic_stdout():
    result = runner().invoke(main, ["transform", G1])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["kind"] == "transformed-automaton"


def test_cli_transform_modular_files(tmp_path):
    prefix = str(tmp_path / "enc")
    result = runner().invoke(
        main, ["transform", G1, G2, "--modular", "--augment-remark2", "-o", prefix]
    )
    assert result.exit_code == 0
    assert (tmp_path / "enc.0.json").exists()
    assert (tmp_path / "enc.1.json").exists()
    assert (tmp_path / "enc.product.json").exists()


def test_cli_transform_augment_requires_modular():
    result = runner().invoke(main, ["transform", G1, "--augment-remark2"])
    assert result.exit_code == 2


def test_cli_spec_k():
    result = runner().invoke(main, ["spec-k", "-k", "1", "--plant", G1, "--plant", G2])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [s["name"] for s in doc["states"]] == ["x1", "x2", "x3"]


def test_cli_synthesize_and_step(tmp_path):
    out = tmp_path / "structure.json"
    result = runner().invoke(
        main, ["synthesize", G1, G2, "-k", "1", "-o", str(out), "--verbose"]
    )
    assert result.exit_code == 0
    assert out.exists()
    assert "pass" in result.output  # verbose log on stderr

    repl = runner().invoke(
        main,
        ["step", str(out)],
        input=(
            "event gamma ! erz:gamma@gamma\n"
            "event beta ! stop@beta\n"
            "event alpha ! ins:gamma@alpha,erz:alpha@alpha\n"
            "nonsense line\n"
            "event gamma\n"
            "quit\n"
        ),
    )
    assert repl.exit_code == 0
    lines = repl.output.splitlines()
    emits = [line for line in lines if line.startswith("emit ")]
    assert emits[0] == "emit ε"
    assert emits[1] == "emit beta"
    assert emits[2] == "emit gamma"
    assert any(line.startswith("error:") for line in lines)
    assert lines[0].startswith("state ")


def test_cli_synthesize_unenforceable_exit_three(tmp_path):
    from opacedit import Automaton, Event, State

    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    path = tmp_path / "exposed.json"
    path.write_text(serialize_automaton(exposed), encoding="utf-8")
    result = runner().invoke(main, ["synthesize", str(path), "-k", "1"])
    assert result.exit_code == 3


COLLIDING = {
    # determinize names the estimate {a, b} and the singleton {"a,b"} alike
    "name": "collide",
    "events": [{"name": "x"}, {"name": "y"}],
    "states": [{"name": "a", "initial": True}, {"name": "b"}, {"name": "a,b", "secret": True}],
    "transitions": [["a", "x", "a"], ["a", "x", "b"], ["b", "y", "a,b"]],
}


@pytest.mark.parametrize("command", [["verify-opacity"], ["synthesize", "-k", "1"]])
def test_cli_reports_invalid_pipeline_automaton_as_input_error(tmp_path, command):
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(COLLIDING), encoding="utf-8")
    result = runner().invoke(main, [*command, str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: ") and "duplicate state '{a,b}'" in line


def _reserved_name_document(name):
    # ``c`` sits beside the reserved name, so ``stop@c`` also names the stop
    # decision taken while a genuine ``c`` is pending
    return {
        "name": "reserved",
        "events": [{"name": "c"}, {"name": name}],
        "states": [{"name": "s0", "initial": True}, {"name": "s1"}, {"name": "s2", "secret": True}],
        "transitions": [["s0", "c", "s1"], ["s1", name, "s0"], ["s0", name, "s2"], ["s2", "c", "s0"]],
    }


@pytest.mark.parametrize("name", ["a@b", "stop@c", "ins:x"])
@pytest.mark.parametrize(
    "command",
    [
        ["synthesize", "-k", "1", "{doc}"],
        ["transform", "{doc}"],
        ["transform", "--modular", "{doc}", "-o", "{tmp}/enc"],
        ["spec-k", "-k", "1", "--plant", "{doc}"],
    ],
    ids=["synthesize", "transform", "transform-modular", "spec-k"],
)
def test_cli_rejects_event_names_spelled_like_decorations(tmp_path, name, command):
    path = tmp_path / "reserved.json"
    path.write_text(json.dumps(_reserved_name_document(name)), encoding="utf-8")
    args = [arg.format(doc=path, tmp=tmp_path) for arg in command]
    result = runner().invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: ") and repr(name) in line
    assert not list(tmp_path.glob("enc*"))


def test_cli_export_dot_reports_malformed_decorated_name(tmp_path, mono_tpo):
    doc = json.loads(serialize_document(transform_monolithic(mono_tpo)))
    doc["automaton"]["events"].append({"name": "ins:x"})
    index = len(doc["automaton"]["events"]) - 1
    path = tmp_path / "encoded.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = runner().invoke(main, ["export-dot", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert f"$.automaton.events[{index}].name: malformed decorated event 'ins:x'" in line


def _game_collision_component(second):
    # with ``second`` named ``a!`` or ``a→ε`` a decision state over ``a``
    # renders like the state where ``second`` is pending
    return Automaton(
        name="G",
        events=(Event("a"), Event(second)),
        states=(State("q0", initial=True), State("q1", secret=True), State("q2"), State("q3")),
        transitions=(("q0", "a", "q2"), ("q0", second, "q3"), ("q2", "a", "q1"), ("q3", "a", "q2")),
    )


@pytest.mark.parametrize("second", ["a!", "a→ε"])
def test_largest_tpo_does_not_merge_states_that_render_alike(second):
    reference = largest_tpo(_game_collision_component("b"))
    t = largest_tpo(_game_collision_component(second))
    assert (len(reference.states), len(reference.transitions)) == (41, 58)
    assert (len(t.states), len(t.transitions)) == (41, 58)


@pytest.mark.parametrize("second", ["a!", "a→ε"])
@pytest.mark.parametrize(
    "command",
    [["synthesize", "-k", "1", "{doc}"], ["transform", "{doc}"], ["tpo", "{doc}"]],
    ids=["synthesize", "transform", "tpo"],
)
def test_cli_rejects_event_names_that_make_game_states_collide(tmp_path, second, command):
    g = _game_collision_component(second)
    names = [st.name for st in largest_tpo(g).states]
    shared = {name for name in names if names.count(name) > 1}
    path = tmp_path / "collide.json"
    path.write_text(serialize_automaton(g), encoding="utf-8")
    result = runner().invoke(main, [arg.format(doc=path) for arg in command])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: ")
    assert any(repr(name) in line for name in shared), line


def _set_unknown_kind(doc):
    doc["states"][0]["kind"] = "Q"
    return "$.states[0].kind"


def _set_numeric_event(doc):
    index = next(i for i, st in enumerate(doc["states"]) if "event" in st)
    doc["states"][index]["event"] = 7
    return f"$.states[{index}].event"


def _set_numeric_action(doc):
    index = next(i for i, st in enumerate(doc["states"]) if "action" in st)
    doc["states"][index]["action"] = ["a"]
    return f"$.states[{index}].action"


def _repeat_first_state(doc):
    doc["states"].append(dict(doc["states"][0]))
    return "$.states: two TPO states"


@pytest.mark.parametrize(
    "edit",
    [_set_unknown_kind, _set_numeric_event, _set_numeric_action, _repeat_first_state],
    ids=["kind", "event", "action", "collision"],
)
def test_cli_export_dot_rejects_invalid_tpo_document(tmp_path, edit):
    result = runner().invoke(main, ["tpo", G1])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    where = edit(doc)
    path = tmp_path / "tpo.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    result = runner().invoke(main, ["export-dot", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert where in line


def test_tpo_document_cites_states_by_rendered_name(mono_tpo):
    doc = json.loads(serialize_document(mono_tpo))
    assert doc["initial"] == mono_tpo.initial.name
    assert doc["transitions"][0][0] == mono_tpo.transitions[0].source.name
    assert parse_document(json.dumps(doc)).initial == mono_tpo.initial


def _structure_file(tmp_path, edit):
    out = tmp_path / "structure.json"
    assert runner().invoke(main, ["synthesize", G1, G2, "-k", "1", "-o", str(out)]).exit_code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    edit(doc)
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


def _drop_initial_entry(doc):
    del doc["tuple_map"][doc["supervisor"]["states"][0]["name"]]


def _misname_component_part(doc):
    entry = doc["tuple_map"][doc["supervisor"]["states"][0]["name"]]
    entry[0] = "no such state"


def _misname_constraint_part(doc):
    entry = doc["tuple_map"][doc["plant"]["states"][-1]["name"]]
    entry[-1] = entry[0]


@pytest.mark.parametrize(
    "edit", [_drop_initial_entry, _misname_component_part, _misname_constraint_part]
)
def test_cli_step_rejects_inconsistent_tuple_map(tmp_path, edit):
    path = _structure_file(tmp_path, edit)
    with pytest.raises(DocumentError, match="tuple_map"):
        parse_document(Path(path).read_text(encoding="utf-8"))
    result = runner().invoke(main, ["step", path], input="quit\n")
    assert result.exit_code == 2
    assert "tuple_map" in result.output


def _declare_ghost_plant_event(doc):
    doc["plant"]["events"].append({"name": "ghost"})


def _declare_ghost_supervisor_event(doc):
    doc["supervisor"]["events"].append({"name": "ghost"})


def _declare_malformed_component_event(doc):
    doc["components"][1]["automaton"]["events"].append({"name": "ins:x"})


@pytest.mark.parametrize(
    "edit, where",
    [
        (
            _declare_ghost_plant_event,
            r"\$\.plant\.events\[\d+\]\.name: event 'ghost' is declared by no component",
        ),
        (
            _declare_ghost_supervisor_event,
            r"\$\.supervisor\.events\[\d+\]\.name: event 'ghost' is declared by no component",
        ),
        (
            _declare_malformed_component_event,
            r"\$\.components\[1\]\.automaton\.events\[\d+\]\.name: malformed decorated event 'ins:x'",
        ),
    ],
    ids=["plant", "supervisor", "component"],
)
def test_cli_step_rejects_undeclared_or_malformed_events(tmp_path, edit, where):
    path = _structure_file(tmp_path, edit)
    with pytest.raises(DocumentError, match=where):
        parse_document(Path(path).read_text(encoding="utf-8"))
    result = runner().invoke(main, ["step", path], input="quit\n")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


def test_cli_step_rejects_plain_automaton():
    result = runner().invoke(main, ["step", G1], input="quit\n")
    assert result.exit_code == 2


def test_cli_check_reproducible_bytes(tmp_path):
    args = ["check", "--suite", "observer-sync", "--seed", "5", "--count", "6"]
    first = runner().invoke(main, args + ["-o", str(tmp_path / "a.json")])
    second = runner().invoke(main, args + ["-o", str(tmp_path / "b.json")])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_check_failures_exit_one(monkeypatch):
    def rigged(suite, seed, count=None):
        return {"suite": suite, "seed": seed, "count": 1, "passed": 0, "failures": [{"index": 0}]}

    monkeypatch.setattr(cli_module, "run_suite", rigged)
    result = runner().invoke(main, ["check", "--suite", "observer-sync", "--seed", "1"])
    assert result.exit_code == 1


def test_cli_export_dot():
    result = runner().invoke(main, ["export-dot", G1])
    assert result.exit_code == 0
    assert result.output.startswith("digraph")
