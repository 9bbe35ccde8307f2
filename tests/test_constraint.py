"""The consecutive-erasure specification automaton K."""

from types import SimpleNamespace

from languages import language_upto

from opacedit import (
    build_constraint_automaton,
    constraint_alphabet,
    parse_decorated,
)

# A component reduced to what the constraint reads: one insert and one erase.
ONE_OF_EACH = [
    SimpleNamespace(decorations={name: parse_decorated(name) for name in ("ins:a@a", "erz:a@a")})
]


def test_constraint_alphabet_collects_decisions(structure):
    spec = constraint_alphabet(structure.components)
    assert "erz:gamma@gamma" in spec.erasures
    assert "ins:gamma@gamma" in spec.inserts
    assert all(name.startswith("ins:") for name in spec.inserts)
    assert all(name.startswith("erz:") for name in spec.erasures)
    # stops and deliveries never constrain the budget
    assert not any(name.startswith("stop@") for name in spec.inserts + spec.erasures)


def test_chain_shape():
    k = build_constraint_automaton(2, ONE_OF_EACH)
    names = [st.name for st in k.states]
    assert names == ["x1", "x2", "x3", "x4"]
    marked = [st.name for st in k.states if st.marked]
    assert marked == ["x1", "x2", "x3"]
    assert k.states[0].initial


def test_erasures_advance_and_inserts_reset():
    k = build_constraint_automaton(1, ONE_OF_EACH)
    succ = dict(((src, label), dst) for src, label, dst in k.transitions)
    assert succ[("x1", "erz:a@a")] == "x2"
    assert succ[("x2", "erz:a@a")] == "x3"
    assert succ[("x1", "ins:a@a")] == "x1"
    assert succ[("x2", "ins:a@a")] == "x1"
    # the overflow state is a dead end
    assert not [tr for tr in k.transitions if tr[0] == "x3"]


def test_language_never_exceeds_budget():
    # the overflow state is reachable (it is what synthesis prunes against)
    # but it is a dead end, so streaks longer than k+1 never occur
    k = build_constraint_automaton(1, ONE_OF_EACH)
    for string in language_upto(k, 5):
        streak = 0
        for symbol in string:
            streak = streak + 1 if symbol.startswith("erz:") else 0
            assert streak <= 2


def test_supervisor_never_visits_overflow(structure):
    # for k=1 the chain has states x1..x3; x3 must never appear in a kept tuple
    for st in structure.supervisor.states:
        assert "K:x3" not in st.name
    assert any("K:x2" in st.name for st in structure.supervisor.states)


def test_decisions_outside_sigma_k_do_not_move_k(structure):
    # stops and deliveries are not in K's alphabet at all
    k_events = {ev.name for ev in structure.constraint.events}
    assert not any(name.startswith("stop@") for name in k_events)
    assert not any(name.startswith("out:") for name in k_events)
    assert not any(name.startswith("drop:") for name in k_events)
