"""The document writer against a reference: each kind built as a dict and
rendered by ``json.dumps(indent=2, ensure_ascii=False)``, the way documents
were written before the direct writer.  The writer must produce the same
text for every document, on every supported Python version."""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opacedit import (
    Automaton,
    Event,
    InvalidAutomaton,
    RandomSpec,
    State,
    build_largest_tpo,
    demo_g1,
    demo_g2,
    demo_pair,
    prune_to_aes,
    random_pair,
    serialize_automaton,
    serialize_document,
    synthesize_modular_edit_structure,
    transform_monolithic,
)
from opacedit.synthesis import ModularEditStructure, encode_components
from opacedit.tpo import DELIVER_ERASED, ERASE, SYSTEM, W, Y, Z, Tpo, render_names
from opacedit.transform import TransformedAutomaton

# --- reference ------------------------------------------------------------


def _events_to_list(events):
    return [
        {"name": ev.name, "observable": ev.observable, "controllable": ev.controllable}
        for ev in events
    ]


def _automaton_to_dict(a):
    return {
        "name": a.name,
        "events": _events_to_list(a.events),
        "states": [
            {"name": s.name, "initial": s.initial, "marked": s.marked, "secret": s.secret}
            for s in a.states
        ],
        "transitions": [[src, label, dst] for src, label, dst in a.transitions],
    }


_TPO_FIELDS = ("kind", "x_d", "x_f", "event", "action", "erased", "count")


def _tpo_to_dict(t):
    names = render_names(t.states)
    states = [
        {key: value for key, value in zip(_TPO_FIELDS, s) if value is not None and value is not False}
        for s in t.states
    ]
    return {
        "kind": "tpo",
        "name": t.name,
        "events": _events_to_list(t.events),
        "states": states,
        "transitions": [[names[src], cls, label, names[dst]] for src, cls, label, dst in t.transitions],
        "initial": None if t.initial is None else names[t.initial],
    }


def _transformed_to_dict(t):
    return {
        "kind": "transformed-automaton",
        "automaton": _automaton_to_dict(t.automaton),
        "origins": dict(t.origins),
    }


def _structure_to_dict(m):
    return {
        "kind": "modular-edit-structure",
        "max_erasures": m.max_erasures,
        "components": [_transformed_to_dict(comp) for comp in m.components],
        "constraint": _automaton_to_dict(m.constraint),
        "plant": _automaton_to_dict(m.plant),
        "tuple_map": {name: list(parts) for name, parts in m.tuple_map.items()},
        "supervisor": _automaton_to_dict(m.supervisor),
        "diagnostics": list(m.diagnostics),
    }


_TO_DICT = {
    Automaton: _automaton_to_dict,
    Tpo: _tpo_to_dict,
    TransformedAutomaton: _transformed_to_dict,
    ModularEditStructure: _structure_to_dict,
}


def _reference(x):
    return json.dumps(_TO_DICT[type(x)](x), indent=2, ensure_ascii=False) + "\n"


def _assert_written_as_reference(x):
    expected = _reference(x)
    assert serialize_document(x) == expected, f"{type(x).__name__} {getattr(x, 'name', '')!r}"
    if isinstance(x, Automaton):
        assert serialize_automaton(x) == expected


# --- documents ------------------------------------------------------------


def _documents(systems, k=1):
    """Each component, its largest TPO (counted to ``k`` erasures too), its
    encoding and the structure synthesized from all of them."""
    bundles, components = encode_components(systems)
    tpos = [build_largest_tpo(b.h_obd, b.h_b, name=f"tpo{i}") for i, b in enumerate(bundles)]
    m = synthesize_modular_edit_structure(systems, k)
    return [*systems, *tpos, *(prune_to_aes(t, k) for t in tpos), *components, m, m.supervisor]


_EMPTY = Automaton(name="empty", events=(), states=(), transitions=())


def _rename(a, names):
    """``a`` with each event and state name ``n`` replaced by ``names(n)``."""
    return Automaton(
        name=names(a.name),
        events=tuple(Event(names(ev.name), ev.observable, ev.controllable) for ev in a.events),
        states=tuple(State(names(s.name), s.initial, s.marked, s.secret) for s in a.states),
        transitions=tuple(
            (names(src), label if label == "tau" else names(label), names(dst))
            for src, label, dst in a.transitions
        ),
    )


# Characters ``json.dumps`` escapes (quote, backslash, newline) and ones it
# leaves alone with ``ensure_ascii=False``; the library writes ε and → itself.
_SPECIAL = '"\\\n\x7f\u2028ε→'


def test_writer_matches_reference_on_the_demo_pair(mono_tpo, structure):
    for x in [
        demo_g1(),
        demo_g2(),
        mono_tpo,
        prune_to_aes(mono_tpo, 1),
        transform_monolithic(mono_tpo),
        structure,
        *_documents(list(demo_pair())),
    ]:
        _assert_written_as_reference(x)


def test_writer_matches_reference_on_random_pairs_and_rings(ring):
    families = (
        [list(random_pair(RandomSpec(seed=seed))) for seed in range(20)]
        + [ring(seed) for seed in range(12)]
        + [ring(seed, 4) for seed in range(4)]
    )
    documents = [x for systems in families for x in _documents(systems)]
    for x in documents:
        _assert_written_as_reference(x)
    # The families hold the edge cases the writer must get right.
    structures = [x for x in documents if isinstance(x, ModularEditStructure)]
    tpos = [x for x in documents if isinstance(x, Tpo)]
    assert any(m.is_empty() for m in structures)
    assert any(m.diagnostics for m in structures) and any(not m.diagnostics for m in structures)
    assert any(t.initial is None for t in tpos)
    assert any(s[-1] is not None for t in tpos for s in t.states)


def test_writer_matches_reference_on_empty_documents():
    empty_tpo = Tpo(name="empty", events=(), states=(), transitions=(), initial=None)
    bare = TransformedAutomaton(automaton=_EMPTY, origins={}, decorations={})
    for x in [
        _EMPTY,
        empty_tpo,
        bare,
        ModularEditStructure(
            components=(), constraint=_EMPTY, plant=_EMPTY, tuple_map={}, supervisor=_EMPTY, max_erasures=0
        ),
        ModularEditStructure(
            components=(bare, bare),
            constraint=_EMPTY,
            plant=_EMPTY,
            tuple_map={"x": ()},
            supervisor=_EMPTY,
            max_erasures=3,
            diagnostics=("one", "two"),
        ),
    ]:
        _assert_written_as_reference(x)


def test_writer_matches_reference_on_names_with_special_characters():
    systems = [_rename(g, lambda n: f"{n}{_SPECIAL}") for g in demo_pair()]
    documents = _documents(systems)
    assert any(isinstance(x, ModularEditStructure) and not x.is_empty() for x in documents)
    for x in documents:
        _assert_written_as_reference(x)


_NAMES = st.lists(
    st.text(min_size=1, max_size=6).filter(lambda n: n != "tau"), min_size=1, max_size=4, unique=True
)


@settings(max_examples=150, deadline=None)
@given(names=_NAMES, flags=st.lists(st.booleans(), min_size=12, max_size=12))
def test_writer_matches_reference_on_any_names(names, flags):
    a = Automaton(
        name=names[-1],
        events=tuple(Event(n, flags[i % 12], flags[(i + 1) % 12]) for i, n in enumerate(names)),
        states=tuple(
            State(n, flags[(i + 2) % 12], flags[(i + 3) % 12], flags[(i + 4) % 12])
            for i, n in enumerate(names)
        ),
        transitions=tuple(zip(names, names, reversed(names))),
    )
    y = [(Y, n, n, None, None, False, None) for n in names]
    z = [(Z, n, n, n, None, False, i if flags[i] else None) for i, n in enumerate(names)]
    w = [(W, n, n, None, n, True, None) for n in names]
    try:
        render_names(y + z + w)
    except InvalidAutomaton:
        assume(False)
    # y[i], z[i] and w[i] sit at positions i, m + i and 2m + i
    m = len(names)
    tpo = Tpo(
        name=names[0],
        events=a.events,
        states=y + z + w,
        transitions=[
            tr
            for i, n in enumerate(names)
            for tr in (
                (i, SYSTEM, n, m + i),
                (m + i, ERASE, n, 2 * m + i),
                (2 * m + i, DELIVER_ERASED, n, m - 1 - i),
            )
        ],
        initial=0 if flags[0] else None,
    )
    encoded = TransformedAutomaton(automaton=a, origins={n: Y for n in names}, decorations={})
    structure = ModularEditStructure(
        components=(encoded,),
        constraint=a,
        plant=a,
        tuple_map={n: (n, names[0]) for n in names},
        supervisor=a,
        max_erasures=len(names),
        diagnostics=tuple(names),
    )
    for x in (a, tpo, encoded, structure):
        _assert_written_as_reference(x)
