"""What a structure holds in memory: one object per name once loaded, no
successor tables left on the parts of the product, the plant or the
supervisor, and a loaded structure no larger than the one synthesis returns.
Synthesis, writing and parsing pause the cyclic collector and leave it as
the caller had it."""

import gc
import tracemalloc

import pytest

from opacedit import (
    TAU,
    Automaton,
    DocumentError,
    Event,
    InvalidAutomaton,
    RandomSpec,
    State,
    demo_pair,
    parse_document,
    random_pair,
    serialize_document,
    synthesize_modular_edit_structure,
)

# Plant 443 and supervisor 200 states.
SEED9 = RandomSpec(seed=9, max_states=8, alphabet_size=6)


def _names(automaton):
    """Each state name of ``automaton``, keyed by itself."""
    return {st.name: st.name for st in automaton.states}


@pytest.mark.parametrize("systems", [demo_pair, lambda: random_pair(SEED9)], ids=["demo", "seed9"])
def test_a_loaded_structure_holds_one_object_per_name(systems):
    m = synthesize_modular_edit_structure(list(systems()), max_erasures=1)
    assert not m.is_empty()
    loaded = parse_document(serialize_document(m))
    automata = [comp.automaton for comp in loaded.components]
    for a in automata + [loaded.constraint, loaded.plant, loaded.supervisor]:
        states, events = _names(a), {ev.name: ev.name for ev in a.events}
        for src, label, dst in a.transitions:
            assert src is states[src] and dst is states[dst], a.name
            assert label == TAU or label is events[label], a.name
    parts = [_names(comp.automaton) for comp in loaded.components] + [_names(loaded.constraint)]
    for comp, names in zip(loaded.components, parts):
        assert all(key is names[key] for key in comp.origins)
    plant = _names(loaded.plant)
    for key, local in loaded.tuple_map.items():
        assert key is plant[key]
        assert all(part is names[part] for part, names in zip(local, parts, strict=True))


def _retained(make):
    """``make()`` and the bytes it leaves allocated once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = make()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_loaded_structure_is_no_larger_than_a_synthesized_one():
    systems = list(random_pair(SEED9))
    m, synthesized = _retained(lambda: synthesize_modular_edit_structure(systems, max_erasures=1))
    assert (len(m.plant.states), len(m.supervisor.states)) == (443, 200)
    # The product and the fixpoint build their successor tables and drop them.
    for part in [comp.automaton for comp in m.components] + [m.constraint, m.plant, m.supervisor]:
        assert "_out" not in vars(part), part.name
    text = serialize_document(m)
    _, loaded = _retained(lambda: parse_document(text))
    assert loaded <= 1.1 * synthesized, (loaded, synthesized)


def _reserved():
    """A component whose event name is reserved for decorations."""
    return Automaton(
        name="G",
        events=(Event("a@b"),),
        states=(State("s0", initial=True), State("s1", secret=True)),
        transitions=(("s0", "a@b", "s1"),),
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_parsing_leaves_the_collector_as_it_was(enabled):
    """So do synthesis and the writer, which pause it too, on success and
    on error."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        m = synthesize_modular_edit_structure(list(demo_pair()), max_erasures=1)
        assert gc.isenabled() is enabled
        text = serialize_document(m)
        assert gc.isenabled() is enabled
        parse_document(text)
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidAutomaton, match="reserved"):
            synthesize_modular_edit_structure([_reserved()], max_erasures=1)
        assert gc.isenabled() is enabled
        with pytest.raises(TypeError):
            serialize_document(m.tuple_map)
        assert gc.isenabled() is enabled
        with pytest.raises(DocumentError):
            parse_document(text.replace('"kind": "', '"kind": "bogus-', 1))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
