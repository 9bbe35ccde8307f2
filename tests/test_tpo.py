"""Three-player observers: construction, runs, the erasure bound, pruning."""

from dataclasses import replace

import pytest

from opacedit import (
    Run,
    TpoState,
    build_largest_tpo,
    check_complete,
    constrain_erasures,
    demo_composed,
    desired_observer,
    determinize,
    edit_projection,
    iter_runs,
    prune_to_aes,
    run_string,
)

A = "{(q0,s0)}"
B = "{(q0,s1),(q0,s2)}"
C = "{(q1,s0),(q2,s0)}"
D = "{(q1,s1),(q1,s2),(q2,s1),(q2,s2)}"
E = "{(q3,s3)}"


def y(xd, xf):
    return TpoState(kind="Y", x_d=xd, x_f=xf)


def z(xd, xf, e):
    return TpoState(kind="Z", x_d=xd, x_f=xf, event=e)


def w_erased(xd, xf, e):
    return TpoState(kind="W", x_d=xd, x_f=xf, action=e, erased=True)


def w_commit(xd, xf, e):
    return TpoState(kind="W", x_d=xd, x_f=xf, action=e)


def test_initial_state_pairs_both_estimates(mono_tpo):
    assert mono_tpo.initial == y(A, A)


def test_kind_layers_alternate(mono_tpo):
    for tr in mono_tpo.transitions:
        src, dst = tr.source, tr.target
        if tr.cls == "yz":
            assert (src.kind, dst.kind) == ("Y", "Z")
        elif tr.cls == "zz":
            assert (src.kind, dst.kind) == ("Z", "Z")
        elif tr.cls in ("zw1", "zw2"):
            assert (src.kind, dst.kind) == ("Z", "W")
        else:
            assert (src.kind, dst.kind) == ("W", "Y")


def test_insertion_moves_intruder_estimate_only(mono_tpo, composed):
    obsd = desired_observer(determinize(composed))
    for tr in mono_tpo.transitions:
        if tr.cls == "zz":
            src, dst = tr.source, tr.target
            assert src.x_f == dst.x_f
            assert src.event == dst.event
            assert obsd.automaton.successors(src.x_d, tr.label) == (dst.x_d,)


def test_erasure_keeps_intruder_estimate(mono_tpo):
    for tr in mono_tpo.transitions:
        if tr.cls == "zw2":
            src, dst = tr.source, tr.target
            assert dst.erased
            assert src.x_d == dst.x_d


def test_commit_and_erased_w_states_are_distinct(mono_tpo):
    names = set(mono_tpo.states)
    assert z(A, C, "beta") in names
    assert w_commit(A, C, "beta") in names
    assert w_erased(A, C, "beta") in names


def test_stop_requires_safe_delivery(mono_tpo):
    # alpha from (A,D) is never safe, so no stop decision exists there
    out = mono_tpo.outgoing()
    decisions = {tr.cls for tr in out[z(A, D, "alpha")]}
    assert "zw1" not in decisions
    assert "zw2" in decisions


def test_largest_tpo_is_complete(mono_tpo, composed):
    assert check_complete(mono_tpo, composed, depth=6)


def test_empty_desired_observer_gives_empty_tpo():
    from opacedit import Automaton, Event, State

    g = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    assert t.initial is None
    assert not t.states


def test_run_string_and_edit_projection(mono_tpo):
    # erase gamma, then pass beta through: the system produced gamma.beta
    # while the intruder saw only beta
    path = [
        y(A, A),
        z(A, A, "gamma"),
        w_erased(A, A, "gamma"),
        y(A, C),
        z(A, C, "beta"),
        w_commit(A, C, "beta"),
        y(B, D),
    ]
    out = mono_tpo.outgoing()
    steps = []
    for src, dst in zip(path, path[1:]):
        (tr,) = [t for t in out[src] if t.target == dst]
        steps.append(tr)
    run = Run(tpo=mono_tpo, states=tuple(path), steps=tuple(steps))
    assert run_string(run) == ("beta",)
    assert edit_projection(run) == ("gamma", "beta")


def test_run_rejects_disconnected_steps(mono_tpo):
    with pytest.raises(ValueError):
        Run(tpo=mono_tpo, states=(y(A, C),), steps=())


def test_iter_runs_yields_prefix_closed_runs(mono_tpo):
    runs = list(iter_runs(mono_tpo, max_events=2))
    assert runs
    for run in runs:
        assert run.states[0] == mono_tpo.initial
        assert len(run.states) == len(run.steps) + 1


def test_constrain_erasures_counts_reset_on_insert(mono_tpo):
    annotated = constrain_erasures(mono_tpo, 1)
    for tr in annotated.transitions:
        src, dst = tr.source, tr.target
        if tr.cls == "zz":
            assert dst.count == 0
        elif tr.cls == "zw2":
            assert dst.count == src.count + 1
        else:
            assert dst.count == src.count
    assert all(st.count <= 1 for st in annotated.states)


def test_constrain_erasures_zero_budget_blocks_all_erasures(mono_tpo):
    annotated = constrain_erasures(mono_tpo, 0)
    assert all(tr.cls != "zw2" for tr in annotated.transitions)


def test_prune_to_aes_reference_removals(mono_tpo):
    aes = prune_to_aes(mono_tpo, 1)
    bases = {replace(st, count=None) for st in aes.states}
    removed = [
        y(A, D),
        y(B, E),
        z(A, D, "alpha"),
        w_erased(A, D, "alpha"),
        y(A, E),
        w_erased(B, D, "alpha"),
        w_erased(A, C, "beta"),
        w_erased(A, B, "gamma"),
    ]
    for name in removed:
        assert name not in bases, name
    assert aes.states
    assert aes.initial is not None


def test_prune_to_aes_drops_decision_cycles_without_exit():
    # with no erasure budget an insertion loop that never reaches a safe
    # delivery is losing even though it always has outgoing decisions
    g = demo_composed()
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    aes = prune_to_aes(t, 0)
    out = aes.outgoing()
    states = aes.states
    coacc = {s for s in states if s.kind == "Y"}
    changed = True
    while changed:
        changed = False
        for n in states:
            if n not in coacc and any(tr.target in coacc for tr in out[n]):
                coacc.add(n)
                changed = True
    assert set(states) == coacc


def test_prune_to_aes_unenforceable_returns_empty():
    from opacedit import Automaton, Event, State

    g = Automaton(
        name="exposed",
        events=(Event("a"),),
        states=(State("s0", initial=True, secret=True), State("s1")),
        transitions=(("s0", "a", "s1"),),
    )
    obs = determinize(g)
    t = build_largest_tpo(desired_observer(obs), obs)
    assert t.initial is None
    assert prune_to_aes(t, 2).initial is None
