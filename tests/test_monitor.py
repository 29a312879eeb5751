import random

import pytest

import recursive
from liveupdate import monitor, rewrite
from liveupdate.automata import BudgetError
from liveupdate.benchmarks import TABLE1_ROWS, family
from liveupdate.formula import t_true
from liveupdate.monitor import build_monitor, cut_from_phi, cut_monitor, reachable_obligations
from liveupdate.parser import parse_formula
from liveupdate.rewrite import af_word, evolve, start_walk
from liveupdate.synthesis import SynthesisProblem, synth_ltl
from liveupdate.traces import APTable

from gen import fin_traces, is_release_free, random_formula, random_machine, random_trace


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
        if not is_release_free(f):
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
        for eta in fin_traces(m, 6):  # deep enough to close the small product
            want.add(af_word(f, eta).key)
        assert got == want, str(f)
        for anchor in ("state", "edge"):
            direct = cut_from_phi(f, m, anchor, max_states=3000)
            via = cut_monitor(build_monitor(f, ap, anchor=anchor, max_states=3000), m)
            assert direct.nodes == via.nodes and direct.edges == via.edges, (str(f), anchor)


def test_cut_label_matches_evolve_along_traces(fig1_machine, relay2):
    mon = build_monitor(relay2.spec, relay2.ap, anchor="state", max_states=5000)
    cut = cut_monitor(mon, fig1_machine, max_states=5000)
    for eta in sorted(fin_traces(fig1_machine, 3)):
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


def test_a_cut_monitor_steps_only_on_the_machines_letters(top_cycle_machine):
    # the initial state c1 outputs i1, so every letter of the machine there
    # carries i1; the uncut monitor projects any letter onto the atoms
    cut = cut_from_phi(parse_formula(PHI1), top_cycle_machine)
    assert cut.nodes[cut.step(cut.initial, L("i1", "m1"))].machine_state == 0
    with pytest.raises(KeyError, match="letter not available from this node"):
        cut.step(cut.initial, L("m1"))
    mon = build_monitor(parse_formula(PHI1), AP_M1, anchor="state")
    assert mon.step(mon.initial, L("m1", "other")) == mon.step(mon.initial, L("m1"))


def test_cut_rejects_what_build_monitor_rejects(top_cycle_machine):
    phi = parse_formula("G (m0 -> X F i1)")
    for build in (lambda: build_monitor(phi, top_cycle_machine.ap),
                  lambda: cut_from_phi(phi, top_cycle_machine)):
        with pytest.raises(ValueError, match=r"formula mentions undeclared propositions: \['m0'\]"):
            build()


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


@pytest.mark.parametrize("name, n", [("response", 1), ("relay", 1), ("arbiter-full", 2),
                                     ("arbiter-prioritized", 2)])
def test_edge_monitor_matches_the_positional_reference(monkeypatch, name, n):
    if name == "response":
        phi, ap = parse_formula(PHI1), AP_M1
    else:
        inst = family(name, n)
        phi, ap = inst.spec, inst.ap
    mon = build_monitor(phi, ap, anchor="edge")
    monkeypatch.setattr(monitor, "edge_step", recursive.positional_edge_step)
    reference = build_monitor(phi, ap, anchor="edge")
    assert mon.edges == reference.edges


def test_edge_cut_of_relay2_closes(fig1_machine, relay2):
    assert len(cut_from_phi(relay2.spec, fig1_machine, anchor="edge")) == 261


def test_cut_derived_per_conjunct_equals_the_plain_cut(monkeypatch, fig1_machine, relay2,
                                                        relay2_synthesized):
    # the state-anchored cut derives its states conjunct by conjunct; on
    # relay(2) and on every table row's initial specification and machine it
    # must give the nodes, edges and labels of the derivation of the whole,
    # and the edge-anchored cut keeps no conjunct states
    cases = [(relay2.spec, fig1_machine), (relay2.spec, relay2_synthesized.machine)]
    for name in sorted({row.initial for row in TABLE1_ROWS} - {("relay", 2)}):
        inst = family(*name)
        cases.append((inst.spec, synth_ltl(SynthesisProblem(inst.spec, inst.ap)).machine))
    factored = 0
    for phi, machine in cases:
        monkeypatch.setattr(rewrite, "_AF", {})
        monkeypatch.setattr(rewrite, "_PARTS", {})
        monkeypatch.setattr(monitor, "start_walk", lambda _phi: None)
        plain = cut_from_phi(phi, machine)
        monkeypatch.setattr(monitor, "start_walk", start_walk)
        cut_from_phi(phi, machine, "edge")
        assert rewrite._PARTS == {}
        monkeypatch.setattr(rewrite, "_AF", {})
        conj = cut_from_phi(phi, machine)
        factored += len(rewrite._PARTS) > 1
        assert conj.nodes == plain.nodes and conj.edges == plain.edges, str(phi)
        assert conj.to_json() == plain.to_json()
    assert factored == len(cases) - 1  # all but arbiter-prioritized(2), which has X over a literal
