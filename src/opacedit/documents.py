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

Documents are written row by row, one f-string per event, state, transition,
``tuple_map`` entry or origin, into the exact bytes of
``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"``: with an indent,
``json.dumps`` runs its pure-Python encoder over every value.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from operator import getitem
from typing import Any

from .automata import EPSILON, TAU, Automaton, Event, InvalidAutomaton, State, erasure_symbol
from .synthesis import ModularEditStructure
from .tpo import ERASE, INSERT, KINDS, MOVES, STOP, SYSTEM, W, Y, Z, Tpo, render_names, run_after
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


# Apart from events and TPO states, the readers below check each entry's
# types inline and format no path for it; an entry that fails the inline check goes
# through the ``_expect_*`` reader, which raises at the entry's path (or
# accepts the few values the inline check leaves to it, such as a ``dict``
# subclass).
_FLAG = (bool, type(None))


def _event_from_dict(entry: Any, here: str) -> Event:
    entry = _expect_object(entry, here)
    return Event(
        name=_expect_string(entry.get("name"), f"{here}.name"),
        observable=_expect_bool(entry.get("observable"), f"{here}.observable", True),
        controllable=_expect_bool(entry.get("controllable"), f"{here}.controllable", True),
    )


def _events_from_dict(doc: dict, path: str) -> tuple[Event, ...]:
    return tuple(
        _event_from_dict(entry, f"{path}.events[{i}]")
        for i, entry in enumerate(_expect_list(doc.get("events", []), f"{path}.events"))
    )


def _state_from_dict(entry: Any, here: str) -> State:
    entry = _expect_object(entry, here)
    return State(
        name=_expect_string(entry.get("name"), f"{here}.name"),
        initial=_expect_bool(entry.get("initial"), f"{here}.initial", False),
        marked=_expect_bool(entry.get("marked"), f"{here}.marked", False),
        secret=_expect_bool(entry.get("secret"), f"{here}.secret", False),
    )


def _string_row(entry: Any, here: str, fields: tuple[str, ...]) -> tuple[str, ...]:
    entry = _expect_list(entry, here)
    if len(entry) != len(fields):
        _fail(here, f"expected [{', '.join(fields)}], got {len(entry)} items")
    return tuple(_expect_string(item, f"{here}[{j}]") for j, item in enumerate(entry))


def automaton_from_dict(doc: Any, path: str = "$") -> Automaton:
    doc = _expect_object(doc, path)
    name = _expect_string(doc.get("name", "automaton"), f"{path}.name")
    events = _events_from_dict(doc, path)
    states = []
    for i, entry in enumerate(_expect_list(doc.get("states", []), f"{path}.states")):
        if (
            type(entry) is dict
            and type(state_name := entry.get("name")) is str
            and type(initial := entry.get("initial")) in _FLAG
            and type(marked := entry.get("marked")) in _FLAG
            and type(secret := entry.get("secret")) in _FLAG
        ):
            states.append(State(state_name, initial is True, marked is True, secret is True))
        else:
            states.append(_state_from_dict(entry, f"{path}.states[{i}]"))
    # Unknown states and undeclared events are left to ``Automaton``, whose
    # error names ``transitions[i]``.
    transitions = []
    for i, entry in enumerate(_expect_list(doc.get("transitions", []), f"{path}.transitions")):
        if (
            type(entry) is list
            and len(entry) == 3
            and type(entry[0]) is str
            and type(entry[1]) is str
            and type(entry[2]) is str
        ):
            transitions.append(tuple(entry))
        else:
            transitions.append(_string_row(entry, f"{path}.transitions[{i}]", ("source", "event", "target")))
    try:
        return Automaton(
            name=name,
            events=events,
            states=tuple(states),
            transitions=tuple(transitions),
        )
    except InvalidAutomaton as err:
        raise DocumentError(f"{path}: {err}") from err


def _load_json(text: str) -> Any:
    """Decode ``text``.  Valid JSON the decoder still cannot hold, nested
    deeper than the recursion limit or with an integer longer than
    ``sys.get_int_max_str_digits()``, is a document error too."""
    try:
        return json.loads(text)
    except RecursionError as err:
        raise DocumentError("invalid JSON: nested too deeply") from err
    except ValueError as err:  # JSONDecodeError is a ValueError
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


def _tpo_state_from_dict(entry: Any, here: str) -> tuple:
    """The fields of one TPO state, in the order ``Tpo`` holds them.  A state
    carries only the fields of its kind: a Z state its event, a W state its
    action and erased flag."""
    entry = _expect_object(entry, here)
    count = entry.get("count")
    if count is not None and type(count) is not int:  # bool is an int subclass
        _fail(f"{here}.count", f"expected an integer, got {count!r}")
    if count is not None and count < 0:
        _fail(f"{here}.count", f"expected a nonnegative integer, got {count!r}")
    kind = entry.get("kind")
    if kind not in KINDS:
        _fail(f"{here}.kind", f"expected one of {', '.join(KINDS)}, got {kind!r}")
    x_d = _expect_string(entry.get("x_d"), f"{here}.x_d")
    x_f = _expect_string(entry.get("x_f"), f"{here}.x_f")
    event = _optional_string(entry.get("event"), f"{here}.event")
    action = _optional_string(entry.get("action"), f"{here}.action")
    erased = _expect_bool(entry.get("erased"), f"{here}.erased", False)
    if kind == Z and event is None:
        _fail(here, "a Z state needs an event")
    if kind == W and action is None:
        _fail(here, "a W state needs an action")
    if kind != Z and event is not None:
        _fail(f"{here}.event", f"a {kind} state carries no event")
    if kind != W and action is not None:
        _fail(f"{here}.action", f"a {kind} state carries no action")
    if kind != W and erased:
        _fail(f"{here}.erased", f"a {kind} state is never erased")
    return (kind, x_d, x_f, event, action, erased, count)


def _label_problem(cls: str, label: str, source: tuple, target: tuple, observable: set[str]) -> str | None:
    """Why ``label`` cannot label a ``cls`` transition from ``source`` to
    ``target`` whose kinds fit the class, or None if it can."""
    _, _, _, pending, action, _, _ = source
    arriving = target[3]
    if cls == INSERT:
        if label not in observable:
            return f"an insertion needs an observable event, got {label!r}"
        if arriving != pending:
            return f"an insertion keeps the pending event {pending!r}, got {arriving!r}"
        return None
    expected = {SYSTEM: arriving, STOP: EPSILON, ERASE: erasure_symbol(pending)}.get(cls, action)
    if label != expected:
        return f"class {cls!r} needs label {expected!r}, got {label!r}"
    return None


def tpo_from_dict(doc: Any, path: str = "$") -> Tpo:
    """States are listed by their fields; transitions and ``initial`` cite a
    state by the name ``render_names`` renders for it.  A Z state needs its
    event, a W state its action, and a transition's class must fit the kind
    and erased flag of each endpoint.  A label must be what its class says:
    the arriving event, an observable insertion that keeps the pending event,
    ``ε`` for a stop, the pending event's erasure symbol, the delivered
    action.  The initial state is a Y state.  A count is on every state or on
    none, and a transition's target count is ``run_after`` of its source's."""
    doc = _expect_object(doc, path)
    name = _expect_string(doc.get("name", "tpo"), f"{path}.name")
    events = _events_from_dict(doc, path)
    states = [
        _tpo_state_from_dict(entry, f"{path}.states[{i}]")
        for i, entry in enumerate(_expect_list(doc.get("states", []), f"{path}.states"))
    ]
    try:
        position = {rendered: pos for pos, rendered in enumerate(render_names(states))}
    except InvalidAutomaton as err:
        raise DocumentError(f"{path}.states: {err}") from err
    observable = {ev.name for ev in events if ev.observable}
    transitions = []
    for i, entry in enumerate(_expect_list(doc.get("transitions", []), f"{path}.transitions")):
        if not (
            type(entry) is list
            and len(entry) == 4
            and type(entry[0]) is str
            and type(entry[1]) is str
            and type(entry[2]) is str
            and type(entry[3]) is str
        ):
            entry = _string_row(entry, f"{path}.transitions[{i}]", ("source", "class", "label", "target"))
        src, cls, label, dst = entry
        if src not in position:
            _fail(f"{path}.transitions[{i}][0]", f"unknown state {src!r}")
        if dst not in position:
            _fail(f"{path}.transitions[{i}][3]", f"unknown state {dst!r}")
        source, target = states[position[src]], states[position[dst]]
        move = MOVES.get(cls)
        if move is None:
            _fail(f"{path}.transitions[{i}][1]", f"expected one of {', '.join(MOVES)}, got {cls!r}")
        if (move.source, move.target) != ((source[0], source[5]), (target[0], target[5])):
            _fail(f"{path}.transitions[{i}][1]", f"class {cls!r} does not fit {src!r} -> {dst!r}")
        problem = _label_problem(cls, label, source, target, observable)
        if problem is not None:
            _fail(f"{path}.transitions[{i}][2]", problem)
        transitions.append((position[src], cls, label, position[dst]))
    initial = _optional_string(doc.get("initial"), f"{path}.initial")
    if initial is not None and initial not in position:
        _fail(f"{path}.initial", f"unknown state {initial!r}")
    if initial is not None and states[position[initial]][0] != Y:
        _fail(f"{path}.initial", f"the initial state {initial!r} is not a Y state")
    counted = [fields[6] is not None for fields in states]
    if any(counted) and not all(counted):
        _fail(f"{path}.states[{counted.index(not counted[0])}].count", "states mix counted and uncounted ones")
    for i, (src, cls, _, dst) in enumerate(transitions if any(counted) else ()):
        before, after = states[src][6], states[dst][6]
        if after != run_after(cls, before):
            _fail(f"{path}.transitions[{i}]", f"class {cls!r} does not take count {before} to {after}")
    return Tpo(name, events, states, transitions, None if initial is None else position[initial])


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
        if st.initial and not st.marked:
            _fail(f"{path}.supervisor.states[{i}]", "expected a marked initial state: a session starts at Y")
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


# Writing.  Each function appends the rows of one value to ``out``; ``pad``
# is the indentation of the line the value opens on.  An item row starts with
# ",\n" and its own indentation; ``_close`` drops the first row's comma.

_JSON_BOOL = {True: "true", False: "false"}


def _close(out: list[str], first: int, pad: str, bracket: str) -> None:
    """Close the array or object opened at ``out[first - 1]``; an empty one
    stays on one line, as ``json.dumps`` writes it."""
    if len(out) == first:
        out.append(bracket)
    else:
        out[first] = out[first][1:]
        out.append(f"\n{pad}{bracket}")


def _write_events(out: list[str], events: tuple[Event, ...], pad: str) -> None:
    item, field = pad + "  ", pad + "    "
    out.append("[")
    first = len(out)
    out += [
        f',\n{item}{{\n{field}"name": {encode_basestring(ev.name)},'
        f'\n{field}"observable": {_JSON_BOOL[ev.observable]},'
        f'\n{field}"controllable": {_JSON_BOOL[ev.controllable]}\n{item}}}'
        for ev in events
    ]
    _close(out, first, pad, "]")


def _write_automaton(out: list[str], a: Automaton, pad: str) -> None:
    key, item, field = pad + "  ", pad + "    ", pad + "      "
    out.append(f'{{\n{key}"name": {encode_basestring(a.name)},\n{key}"events": ')
    _write_events(out, a.events, key)
    # Each name is encoded once; transitions cite them many times.
    names = {st.name: encode_basestring(st.name) for st in a.states}
    labels = {ev.name: encode_basestring(ev.name) for ev in a.events}
    labels[TAU] = encode_basestring(TAU)
    out.append(f',\n{key}"states": [')
    first = len(out)
    out += [
        f',\n{item}{{\n{field}"name": {names[st.name]},'
        f'\n{field}"initial": {_JSON_BOOL[st.initial]},'
        f'\n{field}"marked": {_JSON_BOOL[st.marked]},'
        f'\n{field}"secret": {_JSON_BOOL[st.secret]}\n{item}}}'
        for st in a.states
    ]
    _close(out, first, key, "]")
    out.append(f',\n{key}"transitions": [')
    first = len(out)
    out += [
        f",\n{item}[\n{field}{names[src]},\n{field}{labels[label]},\n{field}{names[dst]}\n{item}]"
        for src, label, dst in a.transitions
    ]
    _close(out, first, key, "]")
    out.append(f"\n{pad}}}")


def _tpo_state_row(fields: tuple, item: str, field: str) -> str:
    """A state lists its fields in order, leaving out the unset ones."""
    kind, x_d, x_f, event, action, erased, count = fields
    row = (
        f',\n{item}{{\n{field}"kind": {encode_basestring(kind)},'
        f'\n{field}"x_d": {encode_basestring(x_d)},'
        f'\n{field}"x_f": {encode_basestring(x_f)}'
    )
    if event is not None:
        row += f',\n{field}"event": {encode_basestring(event)}'
    if action is not None:
        row += f',\n{field}"action": {encode_basestring(action)}'
    if erased:
        row += f',\n{field}"erased": true'
    if count is not None:
        row += f',\n{field}"count": {count}'
    return f"{row}\n{item}}}"


def _write_tpo(out: list[str], t: Tpo) -> None:
    names = [encode_basestring(name) for name in render_names(t.states)]
    out.append(f'{{\n  "kind": "{KIND_TPO}",\n  "name": {encode_basestring(t.name)},\n  "events": ')
    _write_events(out, t.events, "  ")
    out.append(',\n  "states": [')
    first = len(out)
    out += [_tpo_state_row(fields, "    ", "      ") for fields in t.states]
    _close(out, first, "  ", "]")
    out.append(',\n  "transitions": [')
    first = len(out)
    out += [
        f",\n    [\n      {names[src]},"
        f"\n      {encode_basestring(cls)},"
        f"\n      {encode_basestring(label)},"
        f"\n      {names[dst]}\n    ]"
        for src, cls, label, dst in t.transitions
    ]
    _close(out, first, "  ", "]")
    initial = "null" if t.initial is None else names[t.initial]
    out.append(f',\n  "initial": {initial}\n}}')


def _write_transformed(out: list[str], t: TransformedAutomaton, pad: str) -> None:
    key, item = pad + "  ", pad + "    "
    out.append(f'{{\n{key}"kind": "{KIND_TRANSFORMED}",\n{key}"automaton": ')
    _write_automaton(out, t.automaton, key)
    out.append(f',\n{key}"origins": {{')
    first = len(out)
    out += [
        f",\n{item}{encode_basestring(name)}: {encode_basestring(origin)}"
        for name, origin in t.origins.items()
    ]
    _close(out, first, key, "}")
    out.append(f"\n{pad}}}")


def _write_structure(out: list[str], m: ModularEditStructure) -> None:
    out.append(
        f'{{\n  "kind": "{KIND_STRUCTURE}",'
        f'\n  "max_erasures": {m.max_erasures},\n  "components": ['
    )
    first = len(out)
    for comp in m.components:
        out.append(",\n    ")
        _write_transformed(out, comp, "    ")
    _close(out, first, "  ", "]")
    out.append(',\n  "constraint": ')
    _write_automaton(out, m.constraint, "  ")
    out.append(',\n  "plant": ')
    _write_automaton(out, m.plant, "  ")
    out.append(',\n  "tuple_map": {')
    first = len(out)
    sep = ",\n      "
    out += [
        f",\n    {encode_basestring(name)}: [\n      {sep.join(map(encode_basestring, parts))}\n    ]"
        if parts
        else f",\n    {encode_basestring(name)}: []"
        for name, parts in m.tuple_map.items()
    ]
    _close(out, first, "  ", "}")
    out.append(',\n  "supervisor": ')
    _write_automaton(out, m.supervisor, "  ")
    out.append(',\n  "diagnostics": [')
    first = len(out)
    out += [f",\n    {encode_basestring(line)}" for line in m.diagnostics]
    _close(out, first, "  ", "]")
    out.append("\n}")


def serialize_automaton(a: Automaton) -> str:
    """Serialize an automaton so that ``parse_automaton`` reproduces it."""
    out: list[str] = []
    _write_automaton(out, a, "")
    out.append("\n")
    return "".join(out)


def serialize_document(x: Automaton | Tpo | TransformedAutomaton | ModularEditStructure) -> str:
    """The bytes of ``json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"``
    for the document ``doc`` of ``x``'s kind, written without building it."""
    if isinstance(x, Automaton):
        return serialize_automaton(x)
    out: list[str] = []
    if isinstance(x, Tpo):
        _write_tpo(out, x)
    elif isinstance(x, TransformedAutomaton):
        _write_transformed(out, x, "")
    elif isinstance(x, ModularEditStructure):
        _write_structure(out, x)
    else:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    out.append("\n")
    return "".join(out)
