"""Encoding TPOs as plants: decorated events, origins, modular alphabets."""

import json
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from opacedit import (
    EPSILON,
    Automaton,
    DecoratedEvent,
    InvalidAutomaton,
    State,
    build_constraint_automaton,
    build_largest_tpo,
    demo_pair,
    desired_observer,
    determinize,
    parse_decorated,
    product_plant,
    transform_modular,
    transform_monolithic,
)
from opacedit.cli import main
from opacedit.documents import parse_document, serialize_automaton, serialize_document
from opacedit.oracle import RandomSpec, random_pair, random_system
from opacedit.synthesis import encode_components
from opacedit import tpo as tpo_module
from opacedit.tpo import Y, Z, render_names
from opacedit.transform import (
    DELIVER,
    DELIVER_ERASED,
    ERASE,
    INSERT,
    STOP,
    SYSTEM,
    TransformedAutomaton,
    _decorate,
    is_plain_event_name,
    run_label,
)


def test_decorated_name_round_trip(structure):
    for comp in structure.components:
        for name, dec in comp.decorations.items():
            assert dec.name == name
            assert parse_decorated(name) == dec


def test_decoration_controllability(structure):
    for comp in structure.components:
        for dec in comp.decorations.values():
            if dec.kind in (INSERT, STOP, ERASE):
                assert dec.controllable
            else:
                assert not dec.controllable


def test_parse_decorated_rejects_garbage():
    with pytest.raises(ValueError):
        parse_decorated("ins:a")  # missing context
    with pytest.raises(ValueError):
        parse_decorated("stop@")
    with pytest.raises(ValueError):
        parse_decorated("frob:a@b")  # unknown prefix with decoration syntax
    # plain names without decoration syntax stay system events
    assert parse_decorated("frobnicate").kind == SYSTEM


def test_unknown_decoration_kind_has_no_name():
    with pytest.raises(ValueError, match="unknown decoration kind 'bogus'"):
        DecoratedEvent(kind="bogus", base="a").name


# Names built from the pieces of the decoration syntax, kept when the
# encoding's input check accepts them.
_PIECES = ["ins", "erz", "out", "drop", "stop", ":", "@", "a", "b"]
plain_names = (
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=5).map("".join).filter(is_plain_event_name)
)


@settings(max_examples=300, deadline=None)
@given(base=plain_names, context=plain_names)
def test_decorations_of_accepted_names_read_back(base, context):
    for dec in (
        DecoratedEvent(kind=SYSTEM, base=base),
        DecoratedEvent(kind=INSERT, base=base, context=context),
        DecoratedEvent(kind=STOP, base=EPSILON, context=context),
        DecoratedEvent(kind=ERASE, base=base, context=context),
        DecoratedEvent(kind=DELIVER, base=base, context=context),
        DecoratedEvent(kind=DELIVER_ERASED, base=base, context=context),
    ):
        assert parse_decorated(dec.name) == dec


def test_monolithic_encoding_mirrors_tpo(mono_tpo):
    enc = transform_monolithic(mono_tpo)
    names = render_names(mono_tpo.states)
    assert set(enc.origins) == set(names)
    # marked states are exactly the Y layer
    for st in enc.automaton.states:
        assert st.marked == (enc.origins[st.name] == "Y")
    # every plant edge carries the run label of the matching TPO edge
    tpo_edges = {
        (names[src], (cls, EPSILON if cls == "zw1" else label), names[dst])
        for src, cls, label, dst in mono_tpo.transitions
    }
    for src, label, dst in enc.automaton.transitions:
        dec = enc.decorations[label]
        assert (src, run_label(dec), dst) in tpo_edges


def test_monolithic_encoding_is_deterministic(mono_tpo):
    enc = transform_monolithic(mono_tpo)
    seen = set()
    for src, label, dst in enc.automaton.transitions:
        assert (src, label) not in seen
        seen.add((src, label))


def test_encoding_matches_states_by_value_not_identity(mono_tpo):
    # A TPO read back from its document holds equal copies of the states and
    # transitions, not the same objects, and encodes the same way.
    copied = parse_document(serialize_document(mono_tpo))
    assert copied == mono_tpo
    _assert_same_encodings((transform_monolithic(copied),), (transform_monolithic(mono_tpo),))
    initial = render_names(mono_tpo.states)[mono_tpo.initial]
    assert transform_monolithic(copied).automaton.initial_states == (initial,)


def test_modular_alphabet_blocks_foreign_context_shared_decisions(structure):
    # a shared event decided under a context the component cannot observe is
    # declared but never enabled, so the product blocks it
    comp = structure.components[0]
    events = {ev.name for ev in comp.automaton.events}
    labelled = {label for _, label, _ in comp.automaton.transitions}
    assert "ins:alpha@beta" in events
    assert "ins:alpha@beta" not in labelled


def test_modular_foreign_private_events_self_loop(structure):
    comp = structure.components[0]  # alphabet gamma/alpha; beta is foreign
    loops = [
        (src, dst) for src, label, dst in comp.automaton.transitions if label == "beta"
    ]
    assert loops
    assert all(src == dst for src, dst in loops)
    for src, _ in loops:
        assert comp.origins[src] == "Y"
    assert not comp.automaton.event_map["beta"].controllable


def test_modular_own_decisions_present(structure):
    comp0, comp1 = structure.components
    labels0 = {label for _, label, _ in comp0.automaton.transitions}
    labels1 = {label for _, label, _ in comp1.automaton.transitions}
    assert "erz:gamma@gamma" in labels0
    assert "stop@beta" in labels1
    # shared-event decisions appear in both components
    assert "erz:alpha@alpha" in labels0 and "erz:alpha@alpha" in labels1


# Reference copies of the encoding as it was built in two steps: a monolithic
# builder, then a modular pass that rebuilt each component with the foreign
# events added.  The single builder must reproduce them exactly.


def _reference_monolithic(t, name=None):
    names = render_names(t.states)
    contexts = sorted({event for kind, _, _, event, *_ in t.states if kind == Z})
    alphabet = sorted(ev.name for ev in t.events if ev.observable)
    events = {}
    for base in alphabet:
        events[base] = DecoratedEvent(kind=SYSTEM, base=base).event()
    for context in contexts:
        for base in alphabet:
            dec = DecoratedEvent(kind=INSERT, base=base, context=context)
            events[dec.name] = dec.event()
        for dec in (
            DecoratedEvent(kind=STOP, base=EPSILON, context=context),
            DecoratedEvent(kind=ERASE, base=context, context=context),
        ):
            events[dec.name] = dec.event()
    transitions = []
    decorations = {}
    for src, cls, label, dst in t.transitions:
        kind, _, _, event, *_ = t.states[src]
        dec = _decorate(cls, label, event if kind == Z else None)
        if dec.name not in events:
            events[dec.name] = dec.event()
        decorations[dec.name] = dec
        transitions.append((names[src], dec.name, names[dst]))
    for ev_name in events:
        decorations.setdefault(ev_name, parse_decorated(ev_name))
    states = tuple(
        State(name=name, initial=(pos == t.initial), marked=(st[0] == Y), secret=False)
        for pos, (st, name) in enumerate(zip(t.states, names))
    )
    automaton = Automaton(
        name=name or f"{t.name}^T",
        events=tuple(sorted(events.values(), key=lambda ev: ev.name)),
        states=states,
        transitions=tuple(transitions),
    )
    if not automaton.is_deterministic:
        raise InvalidAutomaton("transformed TPO is not deterministic")
    origins = {name: st[0] for st, name in zip(t.states, names)}
    return TransformedAutomaton(automaton=automaton, origins=origins, decorations=decorations)


def _reference_modular(ts, alphabets, names=None):
    sigma = [{ev.name: ev for ev in alphabet} for alphabet in alphabets]
    results = []
    for i, t in enumerate(ts):
        name = names[i] if names else f"{t.name}^T"
        mono = _reference_monolithic(t, name=name)
        events = {ev.name: ev for ev in mono.automaton.events}
        decorations = dict(mono.decorations)
        transitions = list(mono.automaton.transitions)
        local = set(sigma[i])
        foreign = set()
        for j, table in enumerate(sigma):
            if j != i:
                foreign |= set(table) - local
        for alpha in sorted(foreign):
            dec = DecoratedEvent(kind=SYSTEM, base=alpha)
            events.setdefault(alpha, dec.event())
            decorations.setdefault(alpha, dec)
            for st in mono.automaton.states:
                if mono.origins[st.name] == Y:
                    transitions.append((st.name, alpha, st.name))
        for j, table in enumerate(sigma):
            if j == i:
                continue
            shared = sorted(local & set(table))
            for alpha in sorted(set(table) - local):
                for base in shared:
                    for dec in (
                        DecoratedEvent(kind=INSERT, base=base, context=alpha),
                        DecoratedEvent(kind=DELIVER, base=base, context=alpha),
                        DecoratedEvent(kind=DELIVER_ERASED, base=base, context=alpha),
                    ):
                        events.setdefault(dec.name, dec.event())
                        decorations.setdefault(dec.name, dec)
        automaton = Automaton(
            name=name,
            events=tuple(sorted(events.values(), key=lambda ev: ev.name)),
            states=mono.automaton.states,
            transitions=tuple(transitions),
        )
        results.append(
            TransformedAutomaton(automaton=automaton, origins=mono.origins, decorations=decorations)
        )
    return tuple(results)


def _assert_same_encodings(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.automaton == w.automaton
        assert g.origins == w.origins
        assert g.decorations == w.decorations


def _assert_one_path(systems):
    """The single builder agrees with the reference copies; returns the K0
    product of the components."""
    bundles, components = encode_components(systems)
    tpos = [build_largest_tpo(b.h_obd, b.h_b, name=f"tpo{i}") for i, b in enumerate(bundles)]
    alphabets = [b.abstracted.events for b in bundles]
    names = [f"{g.name}^T" for g in systems]
    _assert_same_encodings(components, _reference_modular(tpos, alphabets, names=names))
    for t in tpos:
        _assert_same_encodings((transform_monolithic(t),), (_reference_monolithic(t),))
    spec = build_constraint_automaton(0, components, name="K0")
    return product_plant(components, spec, name="product").automaton


def _counts(systems):
    return bool(_assert_one_path(systems).states)


# Pieces of the names TPO states are rendered from, and legal event names
# that read like them or like decorations.
_STATE_PIECES = [",", "{}", "()", "|", "#", "→", "é", "Ω"]
_EVENT_NAMES = ["stop", "ins", "α,β", "{b}", "(c)|", "#d", "e→f", "ü!"]


def _awkward(systems):
    """``systems`` with every state and event renamed to an awkward but legal
    name; events shared between components stay shared."""
    events = sorted({ev.name for g in systems for ev in g.events})
    rename = {ev: _EVENT_NAMES[k] + _EVENT_NAMES[-1 - k] for k, ev in enumerate(events)}
    renamed = []
    for g in systems:
        table = {
            st.name: f"{_STATE_PIECES[k % 8]}{st.name}{_STATE_PIECES[(k + 3) % 8]}"
            for k, st in enumerate(g.states)
        }
        renamed.append(
            Automaton(
                name=g.name,
                events=tuple(replace(ev, name=rename[ev.name]) for ev in g.events),
                states=tuple(replace(st, name=table[st.name]) for st in g.states),
                transitions=tuple(
                    (table[src], rename.get(label, label), table[dst]) for src, label, dst in g.transitions
                ),
            )
        )
    return renamed


def test_one_path_matches_reference_on_demo_pair():
    assert _counts(list(demo_pair()))
    assert _counts(_awkward(demo_pair()))


def test_one_path_matches_reference_on_random_pairs():
    counts = [_counts(list(random_pair(RandomSpec(seed=seed)))) for seed in range(20)]
    # floor: most seeds give an empty product, so a generator change must
    # not quietly leave these checks with nothing to compare
    assert sum(counts) >= 9


def test_one_path_matches_reference_on_rings_of_three(ring):
    counts = [_counts(ring(seed)) for seed in range(16)]
    assert sum(counts) >= 12
    assert _counts(_awkward(ring(0)))


@pytest.mark.parametrize("seed", range(40))
def test_monolithic_is_the_one_component_case(seed):
    g = random_system(RandomSpec(seed=seed))
    observer = determinize(g)
    t = build_largest_tpo(desired_observer(observer), observer)
    _assert_same_encodings((transform_monolithic(t, name="G^T"),), (_reference_monolithic(t, name="G^T"),))


def test_encoding_renders_each_tpo_state_name_once(monkeypatch, ring):
    render = tpo_module.state_name
    calls = []

    def counted(*fields):
        calls.append(fields)
        return render(*fields)

    monkeypatch.setattr(tpo_module, "state_name", counted)
    for systems in (list(demo_pair()), ring(0)):
        calls.clear()
        _, components = encode_components(systems)
        rendered = sum(len(comp.origins) for comp in components)
        assert rendered > 0
        assert len(calls) == rendered


def _renamed(g, table):
    return Automaton(
        name=g.name,
        events=g.events,
        states=tuple(State(table[st.name], st.initial, st.marked, st.secret) for st in g.states),
        transitions=tuple((table[src], label, table[dst]) for src, label, dst in g.transitions),
    )


def _modular_components(files, prefix):
    result = CliRunner().invoke(main, ["transform", "--modular", *files, "-o", prefix])
    assert result.exit_code == 0, result.output
    components = []
    for i in range(len(files)):
        with open(f"{prefix}.{i}.json", encoding="utf-8") as handle:
            components.append(json.load(handle)["automaton"])
    return components


def test_modular_transform_handles_state_names_with_brackets_and_commas(tmp_path):
    # the estimates of these states are named like ({q(0},{q(0}), which the
    # library's own name syntax cannot be split back into its two fields
    g1, g2 = demo_pair()
    tables = (
        {"q0": "q(0", "q1": "q,1)", "q2": "(q2", "q3": "q3)"},
        {"s0": "s(0,", "s1": "s1", "s2": "s)2", "s3": "s,3"},
    )
    files = {"plain": [], "odd": []}
    for g, table in zip((g1, g2), tables):
        for kind, system in (("plain", g), ("odd", _renamed(g, table))):
            path = tmp_path / f"{kind}-{g.name}.json"
            path.write_text(serialize_automaton(system), encoding="utf-8")
            files[kind].append(str(path))
    plain = _modular_components(files["plain"], str(tmp_path / "plain"))
    odd = _modular_components(files["odd"], str(tmp_path / "odd"))
    assert len(odd) == len(plain) == 2
    for got, want in zip(odd, plain):
        assert len(got["states"]) == len(want["states"])
        assert len(got["transitions"]) == len(want["transitions"])
        assert sorted(label for _, label, _ in got["transitions"]) == sorted(
            label for _, label, _ in want["transitions"]
        )
