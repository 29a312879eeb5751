import random

import pytest

from liveupdate.automata import BudgetError
from liveupdate.formula import t_true
from liveupdate.monitor import build_monitor, cut_from_phi, cut_monitor, reachable_obligations
from liveupdate.parser import parse_formula
from liveupdate.rewrite import af_word, evolve
from liveupdate.traces import APTable

from gen import random_formula, random_machine, random_trace


def L(*names):
    return frozenset(names)


AP_M1 = APTable(("m1",), ("i1",))
PHI1 = "G (m1 -> X F i1)"


def test_response_monitor_labels():
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="edge")
    labels = {str(l) for l in reachable_obligations(mon)}
    assert labels == {"true", "X F i1", "F i1", "F i1 && X F i1"}
    assert len(mon) == 4


def test_response_monitor_edges():
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="edge")
    # from the empty obligation, a measurement raises the response duty
    after_m1 = mon.step(mon.initial, L("m1"))
    assert str(mon.label(after_m1)) == "X F i1"
    # return to the empty obligation happens exactly on i1 without m1
    nodes_true = {i for i in range(len(mon)) if mon.label(i) is t_true()}
    for i in range(len(mon)):
        if i in nodes_true:
            continue
        for letter, dst in mon.edges[i].items():
            if dst in nodes_true:
                assert "i1" in letter and "m1" not in letter


def test_eventually_monitor_absorbing():
    ap = APTable((), ("a",))
    mon = build_monitor(parse_formula("F a"), ap, anchor="edge")
    labels = {str(l) for l in reachable_obligations(mon)}
    assert labels == {"F a", "true"}
    top = mon.step(mon.initial, L("a"))
    assert mon.label(top) is t_true()
    assert mon.step(top, L()) == top
    assert mon.step(top, L("a")) == top


def test_release_free_labels_equal_states():
    rng = random.Random(21)
    ap = APTable(("a",), ("b",))
    for _ in range(100):
        f = random_formula(rng, ["a", "b"], 2)
        if not f.is_release_free():
            continue
        mon = build_monitor(f, ap, anchor="edge")
        for i in range(len(mon)):
            assert mon.label(i) is mon.nodes[i].formula


def test_state_anchor_runs_af_word():
    rng = random.Random(22)
    ap = APTable(("a",), ("b",))
    for _ in range(150):
        f = random_formula(rng, ["a", "b"], 3)
        mon = build_monitor(f, ap, anchor="state", max_states=3000)
        word = random_trace(rng, ["a", "b"], 4)
        node = mon.run(word)
        assert mon.nodes[node].formula is af_word(f, word)
        assert mon.label(node) is evolve(word, f)


def test_cut_reproduces_five_states_four_labels(top_cycle_machine):
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="edge")
    cut = cut_monitor(mon, top_cycle_machine)
    assert len(cut) == 5
    labels = reachable_obligations(cut)
    assert len(labels) == 4
    assert {str(l) for l in labels} == {"true", "X F i1", "F i1", "F i1 && X F i1"}


def test_cut_is_overapproximated_by_uncut(top_cycle_machine):
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="state")
    cut = cut_monitor(mon, top_cycle_machine)
    uncut_labels = {l.key for l in reachable_obligations(mon)}
    cut_labels = {l.key for l in reachable_obligations(cut)}
    assert cut_labels <= uncut_labels


def test_cut_states_equal_af_word_closure():
    rng = random.Random(23)
    ap = APTable(("x",), ("y",))
    for _ in range(40):
        f = random_formula(rng, ["x", "y"], 2)
        m = random_machine(rng, ap, 2)
        cut = cut_from_phi(f, m, max_states=3000)
        got = {node.formula.key for node in cut.nodes}
        want = set()
        for eta in m.fin_traces(6):  # deep enough to close the small product
            want.add(af_word(f, eta).key)
        assert got == want, str(f)
        for anchor in ("state", "edge"):
            direct = cut_from_phi(f, m, anchor, max_states=3000)
            via = cut_monitor(build_monitor(f, ap, anchor=anchor, max_states=3000), m)
            assert direct.nodes == via.nodes and direct.edges == via.edges, (str(f), anchor)


def test_cut_label_matches_evolve_along_traces(fig1_machine, relay2):
    mon = build_monitor(relay2.spec, relay2.ap, anchor="state", max_states=5000)
    cut = cut_monitor(mon, fig1_machine, max_states=5000)
    for eta in sorted(fig1_machine.fin_traces(3)):
        assert cut.label(cut.run(eta)) is evolve(eta, relay2.spec)


def test_cut_keeps_edges_for_untracked_inputs():
    # two machine inputs projecting onto the same tracked letter must keep
    # their separate edges (they reach different machine states)
    from liveupdate.machine import parse_machine

    m = parse_machine(
        "inputs: m1 aux\noutputs: i1\n"
        "state p initial { }\nstate q { i1 }\n"
        "p --aux--> q\np --!aux--> p\n"
        "q --aux--> q\nq --!aux--> p\n")
    ap = APTable(("m1", "aux"), ("i1",))
    mon = build_monitor(parse_formula(PHI1), ap, anchor="state")
    cut = cut_monitor(mon, m)
    machine_states = {node.machine_state for node in cut.nodes}
    assert machine_states == {0, 1}
    # stepping with full machine letters follows the machine deterministically
    node = cut.run((frozenset(("aux",)), frozenset(("i1", "aux"))))
    assert cut.nodes[node].machine_state == 1


def test_budget_error():
    phi = parse_formula("G (a -> X F b) && G (b -> X F a)")
    with pytest.raises(BudgetError, match="monitor exceeds 2 states"):
        build_monitor(phi, APTable(("a",), ("b",)), max_states=2)


def test_cut_budget_counts_cut_states_only(fig1_machine, relay2):
    # the cut of relay(2) has 27 states, the uncut monitor 66
    assert len(cut_from_phi(relay2.spec, fig1_machine, max_states=27)) == 27
    with pytest.raises(BudgetError, match="monitor exceeds 26 states"):
        cut_from_phi(relay2.spec, fig1_machine, max_states=26)


def test_monitor_exports(top_cycle_machine):
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="edge")
    cut = cut_monitor(mon, top_cycle_machine)
    dot = cut.to_dot()
    assert "digraph" in dot and "F i1" in dot
    data = cut.to_json()
    assert data["initial"] == 0
    assert len(data["states"]) == 5
