"""Plant composition and the supremal controllable nonblocking supervisor."""

import random
from collections import deque

import pytest

from opacedit import (
    Automaton,
    Event,
    InvalidAutomaton,
    State,
    demo_pair,
    supremal_controllable_nonblocking,
    synthesize_modular_edit_structure,
)
from opacedit.oracle import RandomSpec, random_pair
from opacedit.synthesis import ProductPlant, product_plant


def test_structure_is_nonempty(structure):
    assert not structure.is_empty()
    assert structure.removed_states == len(structure.plant.states) - len(
        structure.supervisor.states
    )
    assert structure.removed_states > 0
    assert not structure.diagnostics


def test_supervisor_is_subautomaton_of_plant(structure):
    plant_states = {st.name for st in structure.plant.states}
    plant_edges = set(structure.plant.transitions)
    assert {st.name for st in structure.supervisor.states} <= plant_states
    assert set(structure.supervisor.transitions) <= plant_edges


def test_supervisor_is_controllable(structure):
    # no kept state may lose an uncontrollable plant edge
    kept = {st.name for st in structure.supervisor.states}
    kept_edges = set(structure.supervisor.transitions)
    uncontrollable = {
        ev.name for ev in structure.plant.events if not ev.controllable
    }
    for src, label, dst in structure.plant.transitions:
        if src in kept and label in uncontrollable:
            assert (src, label, dst) in kept_edges


def test_supervisor_is_nonblocking(structure):
    sup = structure.supervisor
    marked = {st.name for st in sup.states if st.marked}
    assert marked
    incoming = {}
    for src, _, dst in sup.transitions:
        incoming.setdefault(dst, set()).add(src)
    coaccessible = set(marked)
    frontier = list(marked)
    while frontier:
        here = frontier.pop()
        for src in incoming.get(here, ()):
            if src not in coaccessible:
                coaccessible.add(src)
                frontier.append(src)
    assert {st.name for st in sup.states} == coaccessible


def test_marked_states_are_all_y_tuples(structure):
    for st in structure.supervisor.states:
        assert st.marked == structure.all_y(st.name)


def test_uncontrollable_branch_to_blocking_state_is_cut():
    # u is uncontrollable and leads somewhere that can never reach a marked
    # state, so the controllable entry c into that region must be disabled
    plant = Automaton(
        name="plant",
        events=(Event("c", controllable=True), Event("u", controllable=False)),
        states=(
            State("p0", initial=True, marked=True),
            State("p1"),
            State("p2"),
        ),
        transitions=(("p0", "c", "p1"), ("p1", "u", "p2")),
    )
    sup = supremal_controllable_nonblocking(plant)
    names = {st.name for st in sup.states}
    assert names == {"p0"}


def test_synthesis_logs_passes(pair):
    lines = []
    synthesize_modular_edit_structure(pair, max_erasures=1, log=lines.append)
    assert lines
    assert all("pass" in line for line in lines)


def test_unenforceable_component_reports_diagnostics():
    exposed = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    m = synthesize_modular_edit_structure([exposed], max_erasures=1)
    assert m.is_empty()
    assert any("unenforceable" in d for d in m.diagnostics)
    assert any("empty supervisor" in d for d in m.diagnostics)


def test_product_tuple_map_tracks_components(structure):
    width = len(structure.components) + 1  # components plus the constraint
    for name, parts in structure.tuple_map.items():
        assert len(parts) == width
        assert name.startswith("(") and name.endswith(")")


def test_product_rejects_nondeterministic_part(structure):
    spec = structure.constraint
    src, label, dst = spec.transitions[0]
    other = next(st.name for st in spec.states if st.name != dst)
    branching = Automaton(
        name="K-branching",
        events=spec.events,
        states=spec.states,
        transitions=spec.transitions + ((src, label, other),),
    )
    with pytest.raises(InvalidAutomaton, match="K-branching"):
        product_plant(structure.components, branching)
    assert product_plant(structure.components, spec).automaton == structure.plant


def test_monolithic_supervisor_matches_fixture_aes():
    from opacedit import demo_composed
    from opacedit.oracle import check_supervisor_equals_aes

    assert check_supervisor_equals_aes(demo_composed(), max_erasures=1)


def test_plant_blocks_foreign_context_shared_decisions(structure):
    # decisions declared but never enabled stay impossible in the product
    labelled = {label for _, label, _ in structure.plant.transitions}
    assert "ins:alpha@beta" not in labelled
    plant_events = {ev.name for ev in structure.plant.events}
    assert "ins:alpha@beta" in plant_events


# --- differential tests of the synthesis back end ---------------------------
#
# ``_reference_product`` and ``_reference_supervisor`` keep the textbook
# versions of ``product_plant`` (probe every event of the merged alphabet in
# every state) and ``supremal_controllable_nonblocking`` (rescan every
# transition in every round).  The library's versions must produce the same
# automata, state for state and transition for transition in the same order,
# and the same ``log=`` lines.

def _tuple_name(parts):
    return "(" + "|".join(parts[:-1]) + "|K:" + parts[-1] + ")"


def _reference_product(components, spec, name="plant"):
    parts = [comp.automaton for comp in components] + [spec]
    alphabets = [{ev.name for ev in part.events} for part in parts]
    merged = {}
    for part in parts:
        for ev in part.events:
            known = merged.setdefault(ev.name, ev)
            if known != ev:
                raise InvalidAutomaton(f"event {ev.name!r} has conflicting flags")
    events = tuple(sorted(merged.values(), key=lambda ev: ev.name))
    if any(not part.initial_states for part in parts):
        return ProductPlant(Automaton(name=name, events=events, states=(), transitions=()), {})
    start = tuple(part.initial_states[0] for part in parts)
    index, order, transitions = {start: _tuple_name(start)}, [start], []
    queue = deque([start])
    while queue:
        here = queue.popleft()
        for ev in events:
            targets = []
            for i, part in enumerate(parts):
                if ev.name not in alphabets[i]:
                    targets.append(here[i])
                    continue
                nxt = part.successors(here[i], ev.name)
                if not nxt:
                    break
                if len(nxt) > 1:
                    raise InvalidAutomaton(f"component {i} is nondeterministic on {ev.name!r}")
                targets.append(nxt[0])
            else:
                dst = tuple(targets)
                if dst not in index:
                    index[dst] = _tuple_name(dst)
                    order.append(dst)
                    queue.append(dst)
                transitions.append((index[here], ev.name, index[dst]))
    states = tuple(
        State(
            name=index[t],
            initial=(t == start),
            marked=all(part.state_map[t[i]].marked for i, part in enumerate(parts)),
        )
        for t in order
    )
    automaton = Automaton(name=name, events=events, states=states, transitions=tuple(transitions))
    return ProductPlant(automaton, {index[t]: t for t in order})


def _reference_supervisor(plant, log=None, name=None):
    uncontrollable = {ev.name for ev in plant.events if not ev.controllable}
    alive = set(plant.reachable_states())
    iteration = 0
    while True:
        iteration += 1
        changed = False
        incoming = {s: [] for s in alive}
        for src, _, dst in plant.transitions:
            if src in alive and dst in alive:
                incoming[dst].append(src)
        coreach = set(m for m in plant.marked_states if m in alive)
        queue = deque(coreach)
        while queue:
            for prev in incoming[queue.popleft()]:
                if prev not in coreach:
                    coreach.add(prev)
                    queue.append(prev)
        if alive - coreach:
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(alive - coreach)} blocking")
            alive = coreach
        while True:
            bad = {
                src
                for src, label, dst in plant.transitions
                if src in alive and label in uncontrollable and dst not in alive
            }
            if not bad:
                break
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(bad)} uncontrollable")
            alive -= bad
        adjacency = {s: [] for s in alive}
        for src, _, dst in plant.transitions:
            if src in alive and dst in alive:
                adjacency[src].append(dst)
        reach = set(s for s in plant.initial_states if s in alive)
        queue = deque(reach)
        while queue:
            for nxt in adjacency[queue.popleft()]:
                if nxt not in reach:
                    reach.add(nxt)
                    queue.append(nxt)
        if reach != alive:
            changed = True
            if log:
                log(f"pass {iteration}: removed {len(alive - reach)} unreachable")
            alive = reach
        if not changed:
            break
    return Automaton(
        name=name or f"sup({plant.name})",
        events=plant.events,
        states=tuple(st for st in plant.states if st.name in alive),
        transitions=tuple(t for t in plant.transitions if t[0] in alive and t[2] in alive),
    )


def _assert_same_supervisor(plant):
    got_log, want_log = [], []
    got = supremal_controllable_nonblocking(plant, log=got_log.append, name="sup")
    want = _reference_supervisor(plant, log=want_log.append, name="sup")
    assert got == want
    assert got_log == want_log
    return got_log


def _assert_same_back_end(systems, max_erasures=1):
    m = synthesize_modular_edit_structure(systems, max_erasures=max_erasures)
    got = product_plant(m.components, m.constraint)
    want = _reference_product(m.components, m.constraint)
    assert got.automaton.states == want.automaton.states
    assert got.automaton.transitions == want.automaton.transitions
    assert got.automaton == want.automaton
    assert list(got.tuple_map.items()) == list(want.tuple_map.items())
    _assert_same_supervisor(got.automaton)


def test_back_end_matches_reference_on_demo_pair():
    for k in (0, 1, 2):
        _assert_same_back_end(list(demo_pair()), max_erasures=k)


@pytest.mark.parametrize("seed", range(20))
def test_back_end_matches_reference_on_random_pairs(seed):
    _assert_same_back_end(list(random_pair(RandomSpec(seed=seed))))


@pytest.mark.parametrize("seed", range(16))
def test_back_end_matches_reference_on_rings_of_three(seed, ring):
    _assert_same_back_end(ring(seed))


def test_back_end_matches_reference_on_a_large_ring(ring):
    # index 23 of this stream has a product of about 2,700 states
    systems = ring(23)
    m = synthesize_modular_edit_structure(systems, max_erasures=1)
    assert len(m.plant.states) > 2000 and not m.is_empty()
    _assert_same_back_end(systems)


def test_supervisor_walks_deep_uncontrollable_chains_layer_by_layer():
    # a blocking sink d is entered by an uncontrollable chain a3 -> a2 -> a1
    # -> d and a side branch b2 -> a1; the controllable entries into the
    # chain from p0 must all be cut, one layer at a time
    plant = Automaton(
        name="plant",
        events=(Event("c"), Event("u", controllable=False), Event("v", controllable=False)),
        states=(
            State("p0", initial=True, marked=True),
            State("p1", marked=True),
            State("a3"),
            State("a2"),
            State("b2"),
            State("a1"),
            State("d"),
        ),
        transitions=(
            ("p0", "c", "a3"),
            ("p0", "c", "b2"),
            ("p0", "c", "p1"),
            ("p1", "c", "p0"),
            ("a3", "u", "a2"),
            ("a3", "c", "p0"),
            ("a2", "v", "a1"),
            ("a2", "c", "p1"),
            ("b2", "u", "a1"),
            ("b2", "c", "p0"),
            ("a1", "u", "d"),
            ("a1", "c", "p0"),
        ),
    )
    lines = _assert_same_supervisor(plant)
    assert lines == [
        "pass 1: removed 1 blocking",
        "pass 1: removed 1 uncontrollable",
        "pass 1: removed 2 uncontrollable",
        "pass 1: removed 1 uncontrollable",
    ]
    sup = supremal_controllable_nonblocking(plant)
    assert {st.name for st in sup.states} == {"p0", "p1"}


@pytest.mark.parametrize("seed", range(40))
def test_supervisor_matches_reference_on_random_plants(seed):
    # random plants with tau moves, several marked states and a mix of
    # controllable and uncontrollable events take several passes
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(rng.randint(2, 30))]
    events = tuple(Event(f"e{j}", controllable=rng.random() < 0.5) for j in range(4))
    transitions = tuple(
        (src, rng.choice([ev.name for ev in events] + ["tau"]), rng.choice(names))
        for src in names
        for _ in range(rng.randint(0, 3))
    )
    states = tuple(
        State(nm, initial=(i == 0), marked=rng.random() < 0.2) for i, nm in enumerate(names)
    )
    _assert_same_supervisor(Automaton("plant", events, states, transitions))


def test_supervisor_computes_reachability_once(structure, monkeypatch):
    calls = []
    original = Automaton.reachable_states

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(Automaton, "reachable_states", counted)
    supremal_controllable_nonblocking(structure.plant)
    assert len(calls) <= 1
