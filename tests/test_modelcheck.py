import random

import pytest

from liveupdate import automata
from liveupdate.formula import f_and, t_true
from liveupdate.machine import parse_machine
from liveupdate.modelcheck import (LiveProblem, mc_finite_live, mc_obligations, mc_universal_live,
                                   mc_universal_product)
from liveupdate.automata import mc_ltl
from liveupdate.monitor import cut_from_phi, reachable_obligations
from liveupdate.parser import parse_formula
from liveupdate.semantics import words_membership
from liveupdate.traces import APTable, parse_trace

from gen import fin_traces, random_formula, random_machine


def L(*names):
    return frozenset(names)


NEVER_I0 = """
inputs: m0 m1
outputs: i0 i1 r
state s0 initial { i1 r }
s0 --*--> s0
"""


@pytest.fixture(scope="module")
def relay_eta():
    return parse_trace("m1 i0 i1 r ; i1 ; m0 m1")


def test_finite_live_relay_pass(fig1_machine, relay2, relay_eta):
    p = LiveProblem(relay2.spec, relay2.spec, relay2.ap, eta=relay_eta)
    assert mc_finite_live(fig1_machine, p).passed


def test_finite_live_missing_grant_fails(relay2, relay_eta):
    ts_u = parse_machine(NEVER_I0)
    p = LiveProblem(relay2.spec, t_true(), relay2.ap, eta=relay_eta)
    verdict = mc_finite_live(ts_u, p)
    assert not verdict.passed
    # the witness violates the update language
    assert not words_membership(relay2.spec, t_true(), relay_eta, verdict.witness.lasso)
    assert all("i0" not in verdict.witness.lasso.letter(i)
               for i in range(verdict.witness.lasso.positions))


def test_finite_live_empty_trace_is_plain_mc():
    ap = APTable(("r",), ("g",))
    m = parse_machine("inputs: r\noutputs: g\nstate s0 initial { g }\ns0 --*--> s0\n")
    psi = parse_formula("G F g")
    p = LiveProblem(t_true(), psi, ap, eta=())
    assert mc_finite_live(m, p).passed == mc_ltl(m, psi).passed


def test_universal_trivial_initial_reduces_to_plain():
    ap = APTable(("r",), ("g",))
    ts_i = parse_machine("inputs: r\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    ts_u = parse_machine("inputs: r\noutputs: g\nstate s0 initial { g }\ns0 --*--> s0\n")
    psi = parse_formula("G F g")
    p = LiveProblem(t_true(), psi, ap, ts_i=ts_i)
    assert mc_universal_live(ts_u, p).passed == mc_ltl(ts_u, psi).passed


def test_universal_live_requires_pending_discharge(fig1_machine, relay2):
    # an update that never grants i1 cannot absorb executions that owe it
    ts_u = parse_machine(
        "inputs: m0 m1\noutputs: i0 i1 r\nstate s0 initial { i0 r }\ns0 --*--> s0\n")
    p = LiveProblem(relay2.spec, t_true(), relay2.ap, ts_i=fig1_machine)
    verdict = mc_universal_live(ts_u, p)
    assert not verdict.passed
    assert verdict.failing_obligation is not None


def test_universal_live_fig1_self_update(fig1_machine, relay2):
    p = LiveProblem(relay2.spec, relay2.spec, relay2.ap, ts_i=fig1_machine)
    assert mc_universal_live(fig1_machine, p).passed


def test_universal_live_budget_counts_cut_states(fig1_machine, relay2):
    # the cut of relay(2) has 27 states, the uncut monitor 66
    p = LiveProblem(relay2.spec, relay2.spec, relay2.ap, ts_i=fig1_machine)
    verdict = mc_universal_live(fig1_machine, p, max_states=40)
    assert verdict.passed and verdict.details["monitor_states"] == 27


def test_universal_equals_bruteforce_small():
    rng = random.Random(15)
    ap = APTable(("x",), ("y",))
    for _ in range(40):
        phi = random_formula(rng, ["x", "y"], 2)
        psi = random_formula(rng, ["x", "y"], 2)
        ts_i = random_machine(rng, ap, 2)
        ts_u = random_machine(rng, ap, 2)
        p = LiveProblem(phi, psi, ap, ts_i=ts_i)
        got = mc_universal_live(ts_u, p).passed
        brute = all(
            mc_finite_live(ts_u, LiveProblem(phi, psi, ap, eta=eta)).passed
            for eta in fin_traces(ts_i, 4)
        )
        assert got == brute, f"{phi} | {psi}"


def test_obligations_search_each_product_once(fig1_machine, relay2, monkeypatch):
    searched = []
    product_lasso = automata._product_lasso

    def counted(initials, steps, nba):
        searched.append(id(nba))
        return product_lasso(initials, steps, nba)

    monkeypatch.setattr(automata, "_product_lasso", counted)
    relay = reachable_obligations(cut_from_phi(relay2.spec, fig1_machine))
    cases = [(ts_u, relay, relay2.spec) for ts_u in (fig1_machine, parse_machine(NEVER_I0))]
    rng = random.Random(29)
    ap = APTable(("x",), ("y",))
    for _ in range(60):
        obligations = [random_formula(rng, ["x", "y"], 2) for _ in range(3)]
        cases.append((random_machine(rng, ap, 2), obligations + obligations[:1],
                      random_formula(rng, ["x", "y"], 2)))
    counts = []
    for ts_u, obligations, psi in cases:
        searched.clear()
        got = mc_obligations(ts_u, obligations, psi)
        shared = len(searched)
        assert shared == len(set(searched))
        alone = [mc_ltl(ts_u, f_and((o, psi))) for o in obligations]
        counts.append((shared, len(searched) - shared))
        assert got.details["obligations"] == [{"obligation": str(o), "outcome": v.outcome}
                                              for o, v in zip(obligations, alone)]
        first = next(((o, v) for o, v in zip(obligations, alone) if not v.passed), None)
        assert got.passed == (first is None)
        if first is not None:
            assert got.failing_obligation is first[0] and got.witness == first[1].witness
    assert all(shared <= apart for shared, apart in counts)
    assert counts[0][0] < counts[0][1]  # relay(2)'s obligations share their psi conjuncts


def test_universal_product_agrees(fig1_machine, relay2):
    ts_u = parse_machine(NEVER_I0)
    live = mc_universal_live(ts_u, LiveProblem(relay2.spec, t_true(), relay2.ap, ts_i=fig1_machine))
    prod = mc_universal_product(fig1_machine, ts_u, relay2.spec, t_true(), relay2.ap)
    assert live.passed == prod.passed
    assert not prod.passed


def test_universal_product_epsilon_case():
    # an update system violating only the empty-execution obligation
    ap = APTable((), ("a",))
    ts_i = parse_machine("inputs:\noutputs: a\nstate s0 initial { a }\ns0 --*--> s0\n")
    ts_u = parse_machine("inputs:\noutputs: a\nstate s0 initial { }\ns0 --*--> s0\n")
    phi = t_true()
    psi = parse_formula("G a")
    live = mc_universal_live(ts_u, LiveProblem(phi, psi, ap, ts_i=ts_i))
    prod = mc_universal_product(ts_i, ts_u, phi, psi, ap)
    assert not live.passed and not prod.passed


def test_update_proposition_reserved(fig1_machine, relay2):
    ap_bad = APTable(relay2.ap.inputs + ("update",), relay2.ap.outputs)
    with pytest.raises(ValueError):
        mc_universal_product(fig1_machine, fig1_machine, relay2.spec, t_true(), ap_bad)


def test_problem_validation():
    ap = APTable(("r",), ("g",))
    with pytest.raises(ValueError):
        LiveProblem(t_true(), t_true(), ap)  # neither eta nor ts_i
    with pytest.raises(ValueError):
        LiveProblem(parse_formula("undeclared"), t_true(), ap, eta=())


def test_each_checker_needs_its_kind_of_problem(fig1_machine, relay2):
    finite = LiveProblem(relay2.spec, t_true(), relay2.ap, eta=())
    universal = LiveProblem(relay2.spec, t_true(), relay2.ap, ts_i=fig1_machine)
    with pytest.raises(ValueError, match="finite-trace checking needs a recorded execution"):
        mc_finite_live(fig1_machine, universal)
    with pytest.raises(ValueError, match="universal checking needs the initial system"):
        mc_universal_live(fig1_machine, finite)


def test_both_checkers_reject_undeclared_update_propositions():
    ap = APTable(("m1",), ("i1",))
    ts_i = parse_machine("inputs: m1\noutputs: i1\nstate s0 initial { i1 }\ns0 --*--> s0\n")
    ts_u = parse_machine("inputs: m1 zz\noutputs: i1\nstate s0 initial { i1 }\ns0 --*--> s0\n")
    phi = parse_formula("G (m1 -> X F i1)")
    with pytest.raises(ValueError, match="update system"):
        mc_universal_live(ts_u, LiveProblem(phi, t_true(), ap, ts_i=ts_i))
    with pytest.raises(ValueError, match="update system"):
        mc_finite_live(ts_u, LiveProblem(phi, t_true(), ap, eta=()))
