"""JSON documents, DOT export and the command-line surface."""

import dataclasses
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
    demo_composed,
    demo_g1,
    demo_g2,
    desired_observer,
    determinize,
    export_dot,
    largest_tpo,
    parse_automaton,
    parse_document,
    prune_to_aes,
    random_pair,
    random_system,
    serialize_automaton,
    serialize_document,
    transform_monolithic,
)
from opacedit.cli import main
from opacedit.tpo import state_name

DATA = Path(__file__).resolve().parent.parent / "data"
G1 = str(DATA / "demo_g1.json")
G2 = str(DATA / "demo_g2.json")


def test_data_files_round_trip():
    for path in (G1, G2):
        text = Path(path).read_text(encoding="utf-8")
        assert serialize_automaton(parse_automaton(text)) == text


def test_data_files_hold_the_demo_pair():
    for path, g in ((G1, demo_g1()), (G2, demo_g2())):
        assert Path(path).read_text(encoding="utf-8") == serialize_automaton(g)


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
    assert any(count == 0 for *_, count in annotated.states)
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


@pytest.mark.parametrize(
    "transition",
    [["ghost", "a", "s0"], ["s0", "a", "ghost"], ["s0", "ghost", "s0"]],
    ids=["source", "target", "event"],
)
def test_cli_rejects_transition_citing_unknown_state_or_event(tmp_path, transition):
    doc = {
        "name": "bad",
        "events": [{"name": "a"}],
        "states": [{"name": "s0", "initial": True}],
        "transitions": [transition],
    }
    with pytest.raises(DocumentError) as err:
        parse_automaton(json.dumps(doc))
    assert "$" in str(err.value) and "transitions[0]" in str(err.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["verify-opacity"], ["synthesize", "-k", "1"]):
        result = runner().invoke(main, [*command, str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "entry, flag",
    [("states", "initial"), ("states", "marked"), ("states", "secret"), ("events", "observable"), ("events", "controllable")],
)
def test_cli_rejects_non_bool_flag(tmp_path, entry, flag):
    doc = {
        "name": "g",
        "events": [{"name": "a"}],
        "states": [{"name": "s0", "initial": True}],
        "transitions": [["s0", "a", "s0"]],
    }
    doc[entry][0][flag] = 1
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["verify-opacity"], ["synthesize", "-k", "1"]):
        result = runner().invoke(main, [*command, str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        error = result.output.splitlines()[-1]
        assert error.startswith("Error: ") and f"$.{entry}[0].{flag}: expected true or false, got 1" in error


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
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"name": "g", "events": [], "states": [], "transitions": [], "x": ' + "9" * 5_000 + "}",
    ],
    ids=["deeply-nested", "long-integer"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["verify-opacity", "{doc}"],
        ["abstract", "{doc}", "-o", "{tmp}/bundle"],
        ["tpo", "{doc}"],
        ["transform", "{doc}"],
        ["spec-k", "-k", "1", "--plant", "{doc}"],
        ["synthesize", "-k", "1", "{doc}"],
        ["step", "{doc}"],
        ["export-dot", "{doc}"],
    ],
    ids=["verify-opacity", "abstract", "tpo", "transform", "spec-k", "synthesize", "step", "export-dot"],
)
def test_cli_rejects_valid_json_the_decoder_cannot_hold(tmp_path, text, command):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    result = runner().invoke(main, [arg.format(doc=path, tmp=tmp_path) for arg in command], input="")
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    error = result.output.splitlines()[-1]
    assert error.startswith("Error: ") and ": invalid JSON: " in error


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
    result = runner().invoke(main, ["transform", G1, G2, "--modular", "-o", prefix])
    assert result.exit_code == 0
    assert (tmp_path / "enc.0.json").exists()
    assert (tmp_path / "enc.1.json").exists()


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


def test_cli_step_reads_event_names_that_contain_the_separator(tmp_path):
    bang = Automaton(
        name="bang",
        events=(Event("go!"),),
        states=(State("s0", initial=True), State("s1")),
        transitions=(("s0", "go!", "s1"), ("s1", "go!", "s0")),
    )
    path, out = tmp_path / "bang.json", tmp_path / "structure.json"
    path.write_text(serialize_automaton(bang), encoding="utf-8")
    assert runner().invoke(main, ["synthesize", str(path), "-k", "1", "-o", str(out)]).exit_code == 0
    repl = runner().invoke(main, ["step", str(out)], input="event go!\nevent go! ! stop@go!\n")
    assert repl.exit_code == 0
    lines = repl.output.splitlines()
    assert [line for line in lines if not line.startswith("state ")] == ["emit go!", "emit go!"]


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


def _empty_structure(tmp_path):
    # synthesize exits 3 on a system whose initial state is secret, but still
    # writes the structure, whose supervisor is empty
    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    path, out = tmp_path / "exposed.json", tmp_path / "structure.json"
    path.write_text(serialize_automaton(exposed), encoding="utf-8")
    assert runner().invoke(main, ["synthesize", str(path), "-k", "1", "-o", str(out)]).exit_code == 3
    return str(out)


@pytest.mark.parametrize(
    "command, code, message",
    [
        (["step", "{empty}"], 3, "empty supervisor: opacity is unenforceable"),
        (["synthesize", G1, "-k", "-1"], 2, "Error: --max-erasures must be nonnegative"),
        (["spec-k", "-k", "-1", "--plant", G1], 2, "Error: max_erasures must be nonnegative"),
        (["check", "--suite", "observer-sync", "--count", "0"], 2, "Error: --count must be positive"),
        (["transform", G1, G2], 2, "Error: monolithic transform takes exactly one file; use --modular"),
    ],
    ids=["step-empty", "synthesize-k", "spec-k-k", "check-count", "transform-two-files"],
)
def test_cli_exit_paths(tmp_path, command, code, message):
    if "{empty}" in command:
        command = [arg.format(empty=_empty_structure(tmp_path)) for arg in command]
    result = runner().invoke(main, command)
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.splitlines()
    assert lines[-1] == message
    assert len([line for line in lines if line.startswith("Error:")]) == (code == 2)


@pytest.mark.parametrize(
    "hidden, message",
    [
        ((True, True), "event 'b' is unobservable and shared by components 0 and 1"),
        ((False, True), "event 'b' declared with conflicting flags in components 0 and 1"),
    ],
    ids=["shared-unobservable", "conflicting-flags"],
)
def test_cli_synthesize_rejects_unobservable_or_conflicting_shared_event(tmp_path, hidden, message):
    # ``b`` is the one event the two components share
    files = []
    for i, (g, hide) in enumerate(zip(random_pair(RandomSpec(seed=0, max_states=4)), hidden)):
        events = tuple(
            dataclasses.replace(ev, observable=False) if hide and ev.name == "b" else ev
            for ev in g.events
        )
        path = tmp_path / f"g{i}.json"
        path.write_text(serialize_automaton(dataclasses.replace(g, events=events)), encoding="utf-8")
        files.append(str(path))
    line = _single_error_line(runner().invoke(main, ["synthesize", *files, "-k", "1"]))
    assert message in line


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


def _single_error_line(result):
    """The one ``Error:`` line of a run that exited 2 without a traceback."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    return line


def test_cli_export_dot_rejects_unknown_origin(tmp_path):
    result = runner().invoke(main, ["transform", G1])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    state = next(iter(doc["origins"]))
    doc["origins"][state] = "Q"
    path = tmp_path / "encoded.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    line = _single_error_line(runner().invoke(main, ["export-dot", str(path)]))
    assert f"$.origins.{state}: expected one of Y, Z, W, got 'Q'" in line


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
    names = [state_name(*fields) for fields in largest_tpo(g).states]
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


def _drop_pending_event(doc):
    index = next(i for i, st in enumerate(doc["states"]) if st["kind"] == "Z")
    del doc["states"][index]["event"]
    return f"$.states[{index}]: a Z state needs an event"


def _drop_action(doc):
    index = next(i for i, st in enumerate(doc["states"]) if st["kind"] == "W")
    del doc["states"][index]["action"]
    return f"$.states[{index}]: a W state needs an action"


def _set_unknown_target(doc):
    doc["transitions"][0][3] = "nowhere"
    return "$.transitions[0][3]: unknown state 'nowhere'"


def _deliver_after_erasure(doc):
    index = next(i for i, tr in enumerate(doc["transitions"]) if tr[1] == "wy2")
    doc["transitions"][index][1] = "wy1"
    return f"$.transitions[{index}][1]"


def _set_first_class(cls):
    def edit(doc):
        assert doc["transitions"][0][1] == "yz"
        doc["transitions"][0][1] = cls
        return "$.transitions[0][1]"

    return edit


def _relabel_first(cls, label):
    def edit(doc):
        index = next(i for i, tr in enumerate(doc["transitions"]) if tr[1] == cls)
        doc["transitions"][index][2] = label
        return f"$.transitions[{index}][2]"

    return edit


def _change_pending_on_insert(doc):
    index = next(i for i, tr in enumerate(doc["transitions"]) if tr[1] == "zz")
    pending = doc["transitions"][index][3].rsplit(",", 1)[1]
    other = next(tr[3] for tr in doc["transitions"] if tr[1] == "yz" and not tr[3].endswith("," + pending))
    doc["transitions"][index][3] = other
    return f"$.transitions[{index}][2]"


def _start_at_z_state(doc):
    doc["initial"] = doc["transitions"][0][3]
    return "$.initial: the initial state"


def _set_boolean_count(doc):
    doc["states"][0]["count"] = True
    return "$.states[0].count: expected an integer, got True"


def _set_negative_count(doc):
    doc["states"][0]["count"] = -1
    return "$.states[0].count: expected a nonnegative integer, got -1"


def _add_field(kind, key, value):
    # a field the game never sets on a state of ``kind``
    def edit(doc):
        index = next(i for i, st in enumerate(doc["states"]) if st["kind"] == kind)
        doc["states"][index][key] = value
        return f"$.states[{index}].{key}: a {kind} state"

    return edit


def _set_initial(value):
    def edit(doc):
        doc["initial"] = value
        return "$.initial: expected a string"

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_unknown_kind,
        _set_numeric_event,
        _set_numeric_action,
        _repeat_first_state,
        _set_first_class("bogus"),
        _set_first_class("zz"),
        _drop_pending_event,
        _drop_action,
        _set_unknown_target,
        _deliver_after_erasure,
        _set_boolean_count,
        _set_negative_count,
        _add_field("Y", "event", "zz"),
        _add_field("Y", "action", "alpha"),
        _add_field("Z", "action", "alpha"),
        _add_field("W", "event", "alpha"),
        _add_field("Y", "erased", True),
        _add_field("Z", "erased", True),
        _set_initial([]),
        _set_initial({}),
        _relabel_first("yz", "alpha"),
        _relabel_first("zz", "tau"),
        _change_pending_on_insert,
        _relabel_first("zw1", "gamma"),
        _relabel_first("zw2", "alpha→ε"),
        _relabel_first("wy1", "alpha"),
        _relabel_first("wy2", "ε"),
        _start_at_z_state,
    ],
    ids=[
        "kind",
        "event",
        "action",
        "collision",
        "bogus",
        "zz",
        "z-event",
        "w-action",
        "unknown-target",
        "wy1-erased",
        "count",
        "negative-count",
        "y-event",
        "y-action",
        "z-action",
        "w-event",
        "y-erased",
        "z-erased",
        "initial-list",
        "initial-object",
        "yz-label",
        "zz-label",
        "zz-pending",
        "zw1-label",
        "zw2-label",
        "wy1-label",
        "wy2-label",
        "initial-z",
    ],
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
    assert doc["initial"] == state_name(*mono_tpo.states[mono_tpo.initial])
    assert doc["transitions"][0][0] == state_name(*mono_tpo.states[mono_tpo.transitions[0][0]])
    assert parse_document(json.dumps(doc)).initial == mono_tpo.initial


def _rendered(st):
    return state_name(
        st["kind"], st["x_d"], st["x_f"], st.get("event"), st.get("action"), st.get("erased", False), st.get("count")
    )


def _erase_into_count_0(doc):
    """Point the first ``zw2`` edge at a count-0 copy of its erased W state."""
    index = next(i for i, tr in enumerate(doc["transitions"]) if tr[1] == "zw2")
    target = next(st for st in doc["states"] if _rendered(st) == doc["transitions"][index][3])
    copy = dict(target, count=0)
    doc["states"].append(copy)
    doc["transitions"][index][3] = _rendered(copy)
    return f"$.transitions[{index}]: class 'zw2' does not take count 0 to 0"


def _drop_last_count(doc):
    """Uncount the last state, and cite it by its uncounted name."""
    index = len(doc["states"]) - 1
    old = _rendered(doc["states"][index])
    del doc["states"][index]["count"]
    new = _rendered(doc["states"][index])
    doc["transitions"] = [[new if name == old else name for name in tr] for tr in doc["transitions"]]
    return f"$.states[{index}].count: states mix counted and uncounted ones"


@pytest.mark.parametrize("edit", [_erase_into_count_0, _drop_last_count], ids=["zw2-count", "mixed-counts"])
def test_cli_export_dot_rejects_counts_off_the_erasure_rule(tmp_path, edit):
    doc = json.loads(serialize_document(prune_to_aes(largest_tpo(demo_composed()), 1)))
    where = edit(doc)
    path = tmp_path / "tpo.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    line = _single_error_line(runner().invoke(main, ["export-dot", str(path)]))
    assert where in line


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


def _clear_initial(doc):
    for state in doc["supervisor"]["states"]:
        state["initial"] = False


def _add_initial(doc):
    doc["supervisor"]["states"][-1]["initial"] = True


@pytest.mark.parametrize("edit", [_clear_initial, _add_initial], ids=["none", "two"])
def test_cli_step_rejects_supervisor_without_one_initial_state(tmp_path, edit):
    path = _structure_file(tmp_path, edit)
    line = _single_error_line(runner().invoke(main, ["step", path], input="quit\n"))
    assert "$.supervisor.states: expected exactly one initial state" in line


def _initial_name(doc):
    return next(st["name"] for st in doc["supervisor"]["states"] if st["initial"])


def _add_tau_loop(doc):
    initial = _initial_name(doc)
    loop = [initial, "tau", initial]
    doc["plant"]["transitions"].append(loop)
    doc["supervisor"]["transitions"].append(loop)
    return "$.supervisor.transitions: expected a deterministic supervisor"


def _add_second_beta_edge(doc):
    transitions = doc["supervisor"]["transitions"]
    index = next(i for i, (src, label, _) in enumerate(transitions) if label == "beta")
    source = transitions[index][0]
    transitions.insert(index, [source, "beta", source])
    return "$.supervisor.transitions: expected a deterministic supervisor"


def _add_edge_not_in_plant(doc):
    marked = [st["name"] for st in doc["supervisor"]["states"] if st["marked"]]
    doc["supervisor"]["transitions"].append([_initial_name(doc), "alpha", marked[-1]])
    return f"$.supervisor.transitions[{len(doc['supervisor']['transitions']) - 1}]: transition"


def _flip_marked(doc):
    state = doc["supervisor"]["states"][1]
    state["marked"] = not state["marked"]
    plant_state = next(st for st in doc["plant"]["states"] if st["name"] == state["name"])
    plant_state["marked"] = state["marked"]
    return "$.supervisor.states[1]: expected marked exactly when every component is at Y"


def _move_initial_to_unmarked(doc):
    """Start plant and supervisor alike at a state where a decision is pending."""
    index, name = next((i, st["name"]) for i, st in enumerate(doc["supervisor"]["states"]) if not st["marked"])
    for key in ("plant", "supervisor"):
        for state in doc[key]["states"]:
            state["initial"] = state["name"] == name
    return f"$.supervisor.states[{index}]: expected a marked initial state"


def _flip_secret_in_supervisor_only(doc):
    doc["supervisor"]["states"][1]["secret"] = True
    return "$.supervisor.states[1]: state"


def _set_boolean_bound(doc):
    doc["max_erasures"] = True
    return "$.max_erasures: expected a nonnegative integer, got True"


@pytest.mark.parametrize(
    "edit",
    [
        _add_tau_loop,
        _add_second_beta_edge,
        _add_edge_not_in_plant,
        _flip_marked,
        _move_initial_to_unmarked,
        _flip_secret_in_supervisor_only,
        _set_boolean_bound,
    ],
    ids=["tau", "nondeterministic", "edge-not-in-plant", "marked", "unmarked-initial", "flags", "bool-bound"],
)
def test_cli_step_rejects_invalid_structure_document(tmp_path, edit):
    where = []
    path = _structure_file(tmp_path, lambda doc: where.append(edit(doc)))
    line = _single_error_line(runner().invoke(main, ["step", path], input="quit\n"))
    assert where[0] in line


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
