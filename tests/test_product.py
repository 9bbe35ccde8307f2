"""``synchronous_product`` against a naive reference product.

The reference probes every merged event at every state, in sorted name
order, and then each part's ``tau`` moves in part order, reading each part's
moves straight off its transition list.  The product only takes the events
every participant can take; both must give the same states with the same
flags in the same order, the same transitions in the same order and the
same ``tuple_map``.
"""

from collections import deque
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from opacedit import TAU, Automaton, Event, State
from opacedit.automata import synchronous_product


def _name(local):
    return "(" + ",".join(local) + ")"


def _moves(part, local, label):
    return [dst for src, move, dst in part.transitions if src == local and move == label]


def _reference_product(parts, name):
    merged = {ev.name: ev for part in parts for ev in part.events}
    events = tuple(sorted(merged.values(), key=lambda ev: ev.name))
    declared = [{ev.name for ev in part.events} for part in parts]
    tuple_map, index, transitions, queue = {}, {}, [], deque()

    def admit(local):
        if local not in index:
            index[local] = _name(local)
            tuple_map[index[local]] = local
            queue.append(local)
        return index[local]

    for start in product(*(part.initial_states for part in parts)):
        admit(start)
    while queue:
        here = queue.popleft()
        for ev in events:
            choices = [
                _moves(part, local, ev.name) if ev.name in names else [local]
                for part, names, local in zip(parts, declared, here)
            ]
            for target in product(*choices):
                transitions.append((index[here], ev.name, admit(target)))
        for i, part in enumerate(parts):
            for dst in _moves(part, here[i], TAU):
                transitions.append((index[here], TAU, admit(here[:i] + (dst,) + here[i + 1 :])))
    states = []
    for label, local in tuple_map.items():
        flags = [part.state_map[x] for part, x in zip(parts, local)]
        states.append(
            State(
                label,
                all(st.initial for st in flags),
                all(st.marked for st in flags),
                any(st.secret for st in flags),
            )
        )
    automaton = Automaton(name=name, events=events, states=tuple(states), transitions=tuple(transitions))
    return automaton, tuple_map


# Each event name has fixed flags, so parts that share it agree on them.
_POOL = {name: Event(name, observable=i % 3 != 2, controllable=i % 2 == 0) for i, name in enumerate("abcde")}


@st.composite
def _part(draw, i, moving, idle):
    """Part ``i``: up to four states; some of the pool's events and the
    events ``moving``, with transitions drawn on them and ``tau``; and the
    events ``idle``, declared with no transition.  Several initial states
    and nondeterministic targets are allowed."""
    states = [f"s{n}" for n in range(draw(st.integers(1, 4)))]
    used = draw(st.lists(st.sampled_from(sorted(_POOL)), unique=True, max_size=4)) + moving
    moves = draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(used + [TAU]), st.sampled_from(states)),
            unique=True,
            max_size=10,
        )
    )
    flags = [draw(st.tuples(st.booleans(), st.booleans(), st.booleans())) for _ in states]
    return Automaton(
        name=f"P{i}",
        events=tuple(_POOL.get(name, Event(name)) for name in used + idle),
        states=tuple(State(name, *flag) for name, flag in zip(states, flags)),
        transitions=tuple(moves),
    )


@st.composite
def _parts(draw):
    """Two to four parts.  Part 0 may move on ``z``, which part 1 declares
    and never enables, and the last part declares ``u`` and never uses it."""
    count = draw(st.integers(2, 4))
    return [
        draw(_part(i, ["z"] if i == 0 else [], (["z"] if i == 1 else []) + (["u"] if i == count - 1 else [])))
        for i in range(count)
    ]


@settings(max_examples=300, deadline=None)
@given(parts=_parts())
def test_product_matches_the_probing_reference(parts):
    got, got_map = synchronous_product(parts, "P", _name)
    want, want_map = _reference_product(parts, "P")
    assert got.events == want.events
    assert got.states == want.states
    assert got.transitions == want.transitions
    assert list(got_map.items()) == list(want_map.items())
