"""Encoding TPOs as plants: decorated events, origins, modular alphabets."""

import json

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
    abstract_component,
    augment_missing_insertions,
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
from opacedit.documents import serialize_automaton
from opacedit.oracle import RandomSpec, random_pair, random_system
from opacedit.synthesis import encode_components
from opacedit.tpo import TpoState, W, Y, Z
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
            if dec.kind in ("insert", "stop", "erase"):
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
    assert parse_decorated("frobnicate").kind == "system"


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
    assert set(enc.origins) == {st.name for st in mono_tpo.states}
    # marked states are exactly the Y layer
    for st in enc.automaton.states:
        assert st.marked == (enc.origins[st.name] == "Y")
    # every plant edge carries the run label of the matching TPO edge
    tpo_edges = {
        (tr.source.name, run_label_of(tr), tr.target.name) for tr in mono_tpo.transitions
    }
    for src, label, dst in enc.automaton.transitions:
        dec = enc.decorations[label]
        assert (src, run_label(dec), dst) in tpo_edges


def run_label_of(tr):
    from opacedit.automata import EPSILON

    label = EPSILON if tr.cls == "zw1" else tr.label
    return (tr.cls, label)


def test_monolithic_encoding_is_deterministic(mono_tpo):
    enc = transform_monolithic(mono_tpo)
    seen = set()
    for src, label, dst in enc.automaton.transitions:
        assert (src, label) not in seen
        seen.add((src, label))


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


def test_augment_adds_only_insertion_edges(pair):
    bundles = [abstract_component(g) for g in pair]
    tpos = [build_largest_tpo(b.h_obd, b.h_b) for b in bundles]
    components = transform_modular(
        tpos, [b.abstracted.events for b in bundles], names=["L", "R"]
    )
    spec = build_constraint_automaton(0, components, name="K0")
    plant = product_plant(components, spec, name="product")
    augmented = augment_missing_insertions(plant.automaton, plant.tuple_map, tpos, bundles)
    old_edges = set(plant.automaton.transitions)
    new_edges = set(augmented.transitions)
    assert old_edges <= new_edges
    assert augmented.states == plant.automaton.states
    for _, label, _ in new_edges - old_edges:
        assert parse_decorated(label).kind == "insert"


# Reference copies of the encoding as it was built in two steps: a monolithic
# builder, then a modular pass that rebuilt each component with the foreign
# events added; and of the insertion recovery that parsed estimates back out
# of state names.  The single builder must reproduce them exactly.


def _reference_monolithic(t, name=None):
    contexts = sorted({st.event for st in t.states if st.kind == Z})
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
    for tr in t.transitions:
        pending = tr.source.event if tr.source.kind == Z else None
        dec = _decorate(tr, pending)
        if dec.name not in events:
            events[dec.name] = dec.event()
        decorations[dec.name] = dec
        transitions.append((tr.source.name, dec.name, tr.target.name))
    for ev_name in events:
        decorations.setdefault(ev_name, parse_decorated(ev_name))
    states = tuple(
        State(name=st.name, initial=(st == t.initial), marked=(st.kind == Y), secret=False)
        for st in t.states
    )
    automaton = Automaton(
        name=name or f"{t.name}^T",
        events=tuple(sorted(events.values(), key=lambda ev: ev.name)),
        states=states,
        transitions=tuple(transitions),
    )
    if not automaton.is_deterministic:
        raise InvalidAutomaton("transformed TPO is not deterministic")
    origins = {st.name: st.kind for st in t.states}
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


def _reference_augment(product, tuple_map, components, bundles, name=None):
    observers = [bundle.h_obd.automaton for bundle in bundles]
    knows = [{ev.name for ev in bundle.component.events} for bundle in bundles]
    parsed = [dict(comp.origins) for comp in components]

    def split_y(state_name):
        inner = state_name[1:-1]
        depth = 0
        for pos, ch in enumerate(inner):
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
            elif ch == "," and depth == 0:
                return inner[:pos], inner[pos + 1 :]
        raise ValueError(f"cannot split state name {state_name!r}")

    events = {ev.name: ev for ev in product.events}
    added = []
    existing = set(product.transitions)
    for prod_state, parts in tuple_map.items():
        comp_states = parts[: len(components)]
        kinds = [parsed[i][comp_states[i]] for i in range(len(components))]
        if any(kind == W for kind in kinds):
            continue
        pending = None
        for i, kind in enumerate(kinds):
            if kind == Z:
                pending = comp_states[i].rsplit(",", 1)[1][:-1]
                break
        if pending is None:
            continue
        for sigma in sorted(set().union(*knows)):
            movers = [i for i in range(len(components)) if sigma in knows[i]]
            if not movers:
                continue
            targets = list(comp_states)
            ok = True
            for i in movers:
                if kinds[i] != Y:
                    ok = False
                    break
                x_d, x_f = split_y(comp_states[i])
                nxt = observers[i].successors(x_d, sigma)
                if not nxt:
                    ok = False
                    break
                targets[i] = f"({nxt[0]},{x_f})"
            if not ok:
                continue
            target_tuple = tuple(targets) + tuple(parts[len(components) :])
            target_name = None
            for cand, cand_parts in tuple_map.items():
                if cand_parts == target_tuple:
                    target_name = cand
                    break
            if target_name is None:
                continue
            dec = DecoratedEvent(kind=INSERT, base=sigma, context=pending)
            if dec.name not in events:
                events[dec.name] = dec.event()
            edge = (prod_state, dec.name, target_name)
            if edge not in existing:
                added.append(edge)
                existing.add(edge)
    return Automaton(
        name=name or f"{product.name}+ins",
        events=tuple(sorted(events.values(), key=lambda ev: ev.name)),
        states=product.states,
        transitions=tuple(list(product.transitions) + added),
    )


def _assert_same_encodings(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.automaton == w.automaton
        assert g.origins == w.origins
        assert g.decorations == w.decorations


def _assert_one_path(systems):
    """The single builder and the new insertion recovery agree with the
    reference copies; returns the K0 product and its augmented version."""
    bundles, tpos, components = encode_components(systems)
    alphabets = [b.abstracted.events for b in bundles]
    names = [f"{g.name}^T" for g in systems]
    _assert_same_encodings(components, _reference_modular(tpos, alphabets, names=names))
    for t in tpos:
        _assert_same_encodings((transform_monolithic(t),), (_reference_monolithic(t),))
    spec = build_constraint_automaton(0, components, name="K0")
    plant = product_plant(components, spec, name="product")
    augmented = augment_missing_insertions(plant.automaton, plant.tuple_map, tpos, bundles)
    assert augmented == _reference_augment(plant.automaton, plant.tuple_map, components, bundles)
    return plant.automaton, augmented


def _counts(systems):
    product, augmented = _assert_one_path(systems)
    return bool(product.states), len(augmented.transitions) > len(product.transitions)


def test_one_path_matches_reference_on_demo_pair():
    assert _counts(list(demo_pair())) == (True, True)


def test_one_path_matches_reference_on_random_pairs():
    counts = [_counts(list(random_pair(RandomSpec(seed=seed)))) for seed in range(20)]
    # floors: most seeds give an empty product, so a generator change must
    # not quietly leave these checks with nothing to compare
    assert sum(nonempty for nonempty, _ in counts) >= 9
    assert sum(augmented for _, augmented in counts) >= 4


def test_one_path_matches_reference_on_rings_of_three(ring):
    counts = [_counts(ring(seed)) for seed in range(16)]
    assert sum(nonempty for nonempty, _ in counts) >= 12
    assert sum(augmented for _, augmented in counts) >= 7


@pytest.mark.parametrize("seed", range(40))
def test_monolithic_is_the_one_component_case(seed):
    g = random_system(RandomSpec(seed=seed))
    observer = determinize(g)
    t = build_largest_tpo(desired_observer(observer), observer)
    _assert_same_encodings((transform_monolithic(t, name="G^T"),), (_reference_monolithic(t, name="G^T"),))


def test_encoding_renders_each_tpo_state_name_once(monkeypatch, ring):
    render = TpoState.name.fget
    calls = []

    def counted(state):
        calls.append(state)
        return render(state)

    monkeypatch.setattr(TpoState, "name", property(counted))
    for systems in (list(demo_pair()), ring(0)):
        calls.clear()
        _, tpos, _ = encode_components(systems)
        rendered = sum(len(t.states) for t in tpos)
        assert rendered > 0
        assert len(calls) <= rendered


def _renamed(g, table):
    return Automaton(
        name=g.name,
        events=g.events,
        states=tuple(State(table[st.name], st.initial, st.marked, st.secret) for st in g.states),
        transitions=tuple((table[src], label, table[dst]) for src, label, dst in g.transitions),
    )


def _augmented_product(files, prefix):
    result = CliRunner().invoke(
        main, ["transform", "--modular", "--augment-remark2", *files, "-o", prefix]
    )
    assert result.exit_code == 0, result.output
    with open(f"{prefix}.product.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_augment_handles_state_names_with_brackets_and_commas(tmp_path):
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
    plain = _augmented_product(files["plain"], str(tmp_path / "plain"))
    odd = _augmented_product(files["odd"], str(tmp_path / "odd"))
    assert len(odd["states"]) == len(plain["states"])
    assert sorted(label for _, label, _ in odd["transitions"]) == sorted(
        label for _, label, _ in plain["transitions"]
    )
