"""JSON documents for automata, TPOs, encoded components and synthesized
structures.

The automaton document has the shape

    {"name": ..., "events": [{"name", "observable", "controllable"}],
     "states": [{"name", "initial", "marked", "secret"}],
     "transitions": [[source, event, target], ...]}

with event flags defaulting to true, state flags to false, and "tau" legal on
transitions but never under events.  Parsing and serialization are exact
inverses: field order, list order and flags survive a round trip.  Other
document kinds carry a "kind" field; all but "tpo" embed automaton documents.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from operator import getitem
from typing import Any

from .automata import Automaton, Event, InvalidAutomaton, State
from .synthesis import ModularEditStructure
from .tpo import (
    KINDS, W, WY1, WY2, Y, YZ, Z, ZW1, ZW2, ZZ, Tpo, TpoState, TpoTransition, state_names,
)
from .transform import TransformedAutomaton, decoration_table, parse_decorated

KIND_TPO = "tpo"
KIND_TRANSFORMED = "transformed-automaton"
KIND_STRUCTURE = "modular-edit-structure"


class DocumentError(ValueError):
    """Raised on malformed documents; the message cites the offending path."""


def _fail(path: str, message: str) -> None:
    raise DocumentError(f"{path}: {message}")


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_bool(value: Any, path: str, default: bool) -> bool:
    if value is None:
        return default
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r}")
    return value


def _optional_string(value: Any, path: str) -> str | None:
    return None if value is None else _expect_string(value, path)


def _events_from_dict(doc: dict, path: str) -> tuple[Event, ...]:
    events = []
    for i, entry in enumerate(_expect_list(doc.get("events", []), f"{path}.events")):
        here = f"{path}.events[{i}]"
        entry = _expect_object(entry, here)
        events.append(
            Event(
                name=_expect_string(entry.get("name"), f"{here}.name"),
                observable=_expect_bool(entry.get("observable"), f"{here}.observable", True),
                controllable=_expect_bool(entry.get("controllable"), f"{here}.controllable", True),
            )
        )
    return tuple(events)


def _events_to_list(events: tuple[Event, ...]) -> list[dict]:
    return [
        {"name": ev.name, "observable": ev.observable, "controllable": ev.controllable}
        for ev in events
    ]


def automaton_from_dict(doc: Any, path: str = "$") -> Automaton:
    doc = _expect_object(doc, path)
    name = _expect_string(doc.get("name", "automaton"), f"{path}.name")
    events = _events_from_dict(doc, path)
    states = []
    for i, entry in enumerate(_expect_list(doc.get("states", []), f"{path}.states")):
        here = f"{path}.states[{i}]"
        entry = _expect_object(entry, here)
        states.append(
            State(
                name=_expect_string(entry.get("name"), f"{here}.name"),
                initial=_expect_bool(entry.get("initial"), f"{here}.initial", False),
                marked=_expect_bool(entry.get("marked"), f"{here}.marked", False),
                secret=_expect_bool(entry.get("secret"), f"{here}.secret", False),
            )
        )
    # Unknown states and undeclared events are left to ``Automaton``, whose
    # error names ``transitions[i]``.
    transitions = []
    for i, entry in enumerate(_expect_list(doc.get("transitions", []), f"{path}.transitions")):
        here = f"{path}.transitions[{i}]"
        entry = _expect_list(entry, here)
        if len(entry) != 3:
            _fail(here, f"expected [source, event, target], got {len(entry)} items")
        src = _expect_string(entry[0], f"{here}[0]")
        label = _expect_string(entry[1], f"{here}[1]")
        dst = _expect_string(entry[2], f"{here}[2]")
        transitions.append((src, label, dst))
    try:
        return Automaton(
            name=name,
            events=events,
            states=tuple(states),
            transitions=tuple(transitions),
        )
    except InvalidAutomaton as err:
        raise DocumentError(f"{path}: {err}") from err


def automaton_to_dict(a: Automaton) -> dict:
    return {
        "name": a.name,
        "events": _events_to_list(a.events),
        "states": [
            {"name": st.name, "initial": st.initial, "marked": st.marked, "secret": st.secret}
            for st in a.states
        ],
        "transitions": [[src, label, dst] for src, label, dst in a.transitions],
    }


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"invalid JSON: {err}") from err


def _kind(doc: Any) -> Any:
    return doc.get("kind") if isinstance(doc, dict) else None


def parse_automaton(text: str) -> Automaton:
    """Parse an automaton document from JSON text; a document of any other
    kind is an error."""
    doc = _load_json(text)
    kind = _kind(doc)
    if kind is not None:
        _fail("$.kind", f"expected an automaton document, got kind {kind!r}")
    return automaton_from_dict(doc)


def serialize_automaton(a: Automaton) -> str:
    """Serialize an automaton so that ``parse_automaton`` reproduces it."""
    return json.dumps(automaton_to_dict(a), indent=2, ensure_ascii=False) + "\n"


def tpo_to_dict(t: Tpo) -> dict:
    names = state_names(t.states)
    # A state lists its fields in order, leaving out the unset ones.
    states = [
        {key: value for key, value in asdict(st).items() if value is not None and value is not False}
        for st in t.states
    ]
    return {
        "kind": KIND_TPO,
        "name": t.name,
        "events": _events_to_list(t.events),
        "states": states,
        "transitions": [
            [names[tr.source], tr.cls, tr.label, names[tr.target]] for tr in t.transitions
        ],
        "initial": None if t.initial is None else names[t.initial],
    }


# Per transition class: the kind and erased flag of its source and target.
_ENDPOINTS = {
    YZ: ((Y, False), (Z, False)),
    ZZ: ((Z, False), (Z, False)),
    ZW1: ((Z, False), (W, False)),
    ZW2: ((Z, False), (W, True)),
    WY1: ((W, False), (Y, False)),
    WY2: ((W, True), (Y, False)),
}


def tpo_from_dict(doc: Any, path: str = "$") -> Tpo:
    """States are listed by their fields; transitions and ``initial`` cite a
    state by the name ``state_names`` renders for it.  A Z state needs its
    event, a W state its action, and a transition's class must fit the kind
    and erased flag of each endpoint."""
    doc = _expect_object(doc, path)
    name = _expect_string(doc.get("name", "tpo"), f"{path}.name")
    events = _events_from_dict(doc, path)
    states = []
    for i, entry in enumerate(_expect_list(doc.get("states", []), f"{path}.states")):
        here = f"{path}.states[{i}]"
        entry = _expect_object(entry, here)
        count = entry.get("count")
        if count is not None and type(count) is not int:  # bool is an int subclass
            _fail(f"{here}.count", f"expected an integer, got {count!r}")
        kind = entry.get("kind")
        if kind not in KINDS:
            _fail(f"{here}.kind", f"expected one of {', '.join(KINDS)}, got {kind!r}")
        state = TpoState(
            kind=kind,
            x_d=_expect_string(entry.get("x_d"), f"{here}.x_d"),
            x_f=_expect_string(entry.get("x_f"), f"{here}.x_f"),
            event=_optional_string(entry.get("event"), f"{here}.event"),
            action=_optional_string(entry.get("action"), f"{here}.action"),
            erased=_expect_bool(entry.get("erased"), f"{here}.erased", False),
            count=count,
        )
        if kind == Z and state.event is None:
            _fail(here, "a Z state needs an event")
        if kind == W and state.action is None:
            _fail(here, "a W state needs an action")
        states.append(state)
    try:
        names = state_names(states)
    except InvalidAutomaton as err:
        raise DocumentError(f"{path}.states: {err}") from err
    by_name = {rendered: st for st, rendered in names.items()}
    transitions = []
    for i, entry in enumerate(_expect_list(doc.get("transitions", []), f"{path}.transitions")):
        here = f"{path}.transitions[{i}]"
        entry = _expect_list(entry, here)
        if len(entry) != 4:
            _fail(here, f"expected [source, class, label, target], got {len(entry)} items")
        src, cls, label, dst = (
            _expect_string(entry[j], f"{here}[{j}]") for j in range(4)
        )
        if src not in by_name:
            _fail(f"{here}[0]", f"unknown state {src!r}")
        if dst not in by_name:
            _fail(f"{here}[3]", f"unknown state {dst!r}")
        source, target = by_name[src], by_name[dst]
        if cls not in _ENDPOINTS:
            _fail(f"{here}[1]", f"expected one of {', '.join(_ENDPOINTS)}, got {cls!r}")
        if _ENDPOINTS[cls] != ((source.kind, source.erased), (target.kind, target.erased)):
            _fail(f"{here}[1]", f"class {cls!r} does not fit {src!r} -> {dst!r}")
        transitions.append(TpoTransition(source, cls, label, target))
    initial = doc.get("initial")
    if initial is not None and initial not in by_name:
        _fail(f"{path}.initial", f"unknown state {initial!r}")
    return Tpo(
        name=name,
        events=events,
        states=tuple(states),
        transitions=tuple(transitions),
        initial=None if initial is None else by_name[initial],
    )


def transformed_to_dict(t: TransformedAutomaton) -> dict:
    return {
        "kind": KIND_TRANSFORMED,
        "automaton": automaton_to_dict(t.automaton),
        "origins": dict(t.origins),
    }


def transformed_from_dict(doc: Any, path: str = "$") -> TransformedAutomaton:
    doc = _expect_object(doc, path)
    automaton = automaton_from_dict(doc.get("automaton"), f"{path}.automaton")
    origins_doc = _expect_object(doc.get("origins", {}), f"{path}.origins")
    origins = {}
    for key, value in origins_doc.items():
        if value not in KINDS:
            _fail(f"{path}.origins.{key}", f"expected one of {', '.join(KINDS)}, got {value!r}")
        origins[key] = value
    for st in automaton.states:
        if st.name not in origins:
            _fail(f"{path}.origins", f"missing origin for state {st.name!r}")
    if len(origins) != len(automaton.states):
        _fail(f"{path}.origins", "origin given for a name that is not a state")
    decorations = {}
    for i, ev in enumerate(automaton.events):
        try:
            decorations[ev.name] = parse_decorated(ev.name)
        except ValueError as err:
            _fail(f"{path}.automaton.events[{i}].name", str(err))
    return TransformedAutomaton(automaton=automaton, origins=origins, decorations=decorations)


def structure_to_dict(m: ModularEditStructure) -> dict:
    return {
        "kind": KIND_STRUCTURE,
        "max_erasures": m.max_erasures,
        "components": [transformed_to_dict(comp) for comp in m.components],
        "constraint": automaton_to_dict(m.constraint),
        "plant": automaton_to_dict(m.plant),
        "tuple_map": {name: list(parts) for name, parts in m.tuple_map.items()},
        "supervisor": automaton_to_dict(m.supervisor),
        "diagnostics": list(m.diagnostics),
    }


def structure_from_dict(doc: Any, path: str = "$") -> ModularEditStructure:
    doc = _expect_object(doc, path)
    max_erasures = doc.get("max_erasures")
    if type(max_erasures) is not int or max_erasures < 0:  # bool is an int subclass
        _fail(f"{path}.max_erasures", f"expected a nonnegative integer, got {max_erasures!r}")
    components = tuple(
        transformed_from_dict(entry, f"{path}.components[{i}]")
        for i, entry in enumerate(_expect_list(doc.get("components", []), f"{path}.components"))
    )
    constraint = automaton_from_dict(doc.get("constraint"), f"{path}.constraint")
    plant = automaton_from_dict(doc.get("plant"), f"{path}.plant")
    tuple_map_doc = _expect_object(doc.get("tuple_map", {}), f"{path}.tuple_map")
    # Each component's origins hold exactly its state names, so they serve as
    # its state set.  Entry paths are only formatted for an error, which keeps
    # the check cheaper than formatting one per part.
    state_sets = [comp.origins for comp in components] + [{st.name for st in constraint.states}]
    tuple_map = {}
    for key, parts in tuple_map_doc.items():
        if not (
            isinstance(parts, list)
            and len(parts) == len(state_sets)
            and all(isinstance(part, str) and part in states for part, states in zip(parts, state_sets))
        ):
            _fail(
                f"{path}.tuple_map.{key}",
                "expected one state of each component and of the constraint",
            )
        tuple_map[key] = tuple(parts)
    supervisor = automaton_from_dict(doc.get("supervisor"), f"{path}.supervisor")
    if supervisor.states and len(supervisor.initial_states) != 1:
        _fail(
            f"{path}.supervisor.states",
            f"expected exactly one initial state, got {len(supervisor.initial_states)}",
        )
    missing = [st.name for st in plant.states + supervisor.states if st.name not in tuple_map]
    if missing:
        _fail(f"{path}.tuple_map", f"missing entry for state {missing[0]!r}")
    # The runtime follows the supervisor's edges and reads Y from its marked flag.
    if not supervisor.is_deterministic:
        _fail(f"{path}.supervisor.transitions", "expected a deterministic supervisor")
    origins = [comp.origins for comp in components]
    all_y = (Y,) * len(components)
    for i, st in enumerate(supervisor.states):
        if plant.state_map.get(st.name) != st:
            _fail(f"{path}.supervisor.states[{i}]", f"state {st.name!r} is not a plant state with its flags")
        if st.marked != (tuple(map(getitem, origins, tuple_map[st.name])) == all_y):
            _fail(f"{path}.supervisor.states[{i}]", "expected marked exactly when every component is at Y")
    plant_edges = set(plant.transitions)
    for i, edge in enumerate(supervisor.transitions):
        if edge not in plant_edges:
            _fail(f"{path}.supervisor.transitions[{i}]", f"transition {list(edge)!r} is not in the plant")
    # The runtime reads every decoration from the components.
    declared = decoration_table(components)
    for key, automaton in (("plant", plant), ("supervisor", supervisor)):
        for i, ev in enumerate(automaton.events):
            if ev.name not in declared:
                _fail(f"{path}.{key}.events[{i}].name", f"event {ev.name!r} is declared by no component")
    diagnostics = tuple(
        _expect_string(entry, f"{path}.diagnostics[{i}]")
        for i, entry in enumerate(_expect_list(doc.get("diagnostics", []), f"{path}.diagnostics"))
    )
    return ModularEditStructure(
        components=components,
        constraint=constraint,
        plant=plant,
        tuple_map=tuple_map,
        supervisor=supervisor,
        max_erasures=max_erasures,
        diagnostics=diagnostics,
    )


def parse_document(text: str) -> Automaton | Tpo | TransformedAutomaton | ModularEditStructure:
    """Parse any document, dispatching on its "kind" field; documents without
    one are plain automata."""
    doc = _load_json(text)
    kind = _kind(doc)
    if kind is None:
        return automaton_from_dict(doc)
    if kind == KIND_TPO:
        return tpo_from_dict(doc)
    if kind == KIND_TRANSFORMED:
        return transformed_from_dict(doc)
    if kind == KIND_STRUCTURE:
        return structure_from_dict(doc)
    raise DocumentError(f"$.kind: unknown document kind {kind!r}")


def serialize_document(x: Automaton | Tpo | TransformedAutomaton | ModularEditStructure) -> str:
    if isinstance(x, Automaton):
        return serialize_automaton(x)
    if isinstance(x, Tpo):
        doc = tpo_to_dict(x)
    elif isinstance(x, TransformedAutomaton):
        doc = transformed_to_dict(x)
    elif isinstance(x, ModularEditStructure):
        doc = structure_to_dict(x)
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
