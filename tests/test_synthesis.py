import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from liveupdate.automata import _NBA, BudgetError, _conjunct_automata, _product_lasso, ltl_to_nba, mc_ltl
from liveupdate.benchmarks import TABLE1_ROWS, family, update_pair
from liveupdate.formula import f_and, neg, t_true
from liveupdate.machine import parse_machine, serialize_machine
from liveupdate.modelcheck import LiveProblem, mc_finite_live
from liveupdate.monitor import build_monitor, cut_from_phi, reachable_obligations
from liveupdate.parser import parse_formula
from liveupdate.rewrite import evolve
from liveupdate import automata, monitor, sat, synthesis
from liveupdate.synthesis import (
    EnvMachine,
    SynthesisProblem,
    SynthesisResult,
    _Encoder,
    env_counterexample,
    synth_finite_live,
    synth_ltl,
    synth_universal_live,
)
from liveupdate.traces import APTable, Cube, LassoTrace, all_letters, parse_trace

from gen import random_formula
from nba import accepts_lasso


def L(*names):
    return frozenset(names)


AP_RG = APTable(("r",), ("g",))


def emit_dimacs(problem, k, side="system"):
    """The DIMACS CNF of one bound of one side of ``problem``."""
    automata = _conjunct_automata(problem.spec if side == "system" else neg(problem.spec))
    enc = _Encoder(automata, problem.ap, k, "moore" if side == "system" else "mealy-env")
    return sat.to_dimacs(enc.nv, enc.clauses)


def searched(enc):
    """The model that an internal solve of the CNF of ``enc`` ends with, or None."""
    s = sat.Solver(enc.nv, enc.clauses)
    return s.model() if s.solve() else None


def unsat(self, conflict_budget=None, deadline=None):
    """A ``Solver.solve`` that ends every attempt at once, without a model."""
    return False


def test_constant_grant():
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> F g)"), AP_RG))
    assert result.realizable
    assert len(result.machine) == 1
    assert mc_ltl(result.machine, parse_formula("G (r -> F g)")).passed


def test_contradiction_unrealizable():
    result = synth_ltl(SynthesisProblem(parse_formula("G (g <-> !g)"), AP_RG))
    assert result.outcome == "unrealizable"
    assert result.certificate is not None


def test_input_driven_unrealizable():
    # the system cannot promise the environment sends r
    result = synth_ltl(SynthesisProblem(parse_formula("F r"), AP_RG))
    assert result.outcome == "unrealizable"


def test_certificate_refutes_spec():
    spec = parse_formula("G !g && G F g")
    result = synth_ltl(SynthesisProblem(spec, AP_RG))
    assert result.outcome == "unrealizable"
    assert env_counterexample(result.certificate, ltl_to_nba(spec)) is None


def random_specs():
    rng = random.Random(4242)
    return [f_and([random_formula(rng, ["r", "g"], 3) for _ in range(2)]) for _ in range(60)]


def test_monotone_in_bound():
    # a machine or strategy of size k is one of size k+1 with a state that is
    # never reached, so a satisfiable bound stays satisfiable above it
    spec = parse_formula("G (r -> X g) && G (!r -> X !g)")
    res = synth_ltl(SynthesisProblem(spec, AP_RG))
    assert res.realizable
    k = len(res.machine)
    for k2 in (k + 1, k + 2):
        enc = _Encoder(_conjunct_automata(spec), AP_RG, k2, "moore")
        assert searched(enc) is not None
    for side in ("moore", "mealy-env"):
        for spec in random_specs():
            automata = _conjunct_automata(spec if side == "moore" else neg(spec))
            found = [searched(_Encoder(automata, AP_RG, k, side)) is not None for k in (1, 2, 3)]
            assert found == sorted(found), (side, str(spec), found)


@pytest.mark.parametrize("side", ["moore", "mealy-env"])
def test_every_satisfiable_attempt_decodes_to_a_verified_winner(side):
    # each bound of each side on its own, not just the attempt that synth_ltl keeps
    for spec in random_specs():
        automata = _conjunct_automata(spec if side == "moore" else neg(spec))
        for k in (1, 2, 3):
            enc = _Encoder(automata, AP_RG, k, side)
            model = searched(enc)
            if model is None:
                continue
            if side == "moore":
                assert mc_ltl(enc.extract_moore(model), spec).passed, (str(spec), k)
            else:
                assert env_counterexample(enc.extract_env(model), ltl_to_nba(spec)) is None, \
                    (str(spec), k)


@pytest.mark.parametrize("k", [1, 2])
def test_counters_only_in_accepting_sccs(k):
    # the negation of G (r -> X g) has an accepting state on no cycle and an
    # accepting sink that loops on every letter: neither gets a counter, and
    # the sink is unreachable in every machine state
    [nba] = _conjunct_automata(parse_formula("G (r -> X g)"))
    [sink] = [q for q in nba.accepting if nba.edges[q] == ((Cube(L(), L()), q),)]
    enc = _Encoder([nba], AP_RG, k, "moore")
    machine_vars = k * len(enc.trans) + len(enc.out)
    assert enc.nv == machine_vars + k * len(nba)  # transitions, outputs, reach

    def reach(t, q):
        return machine_vars + t * len(nba) + q + 1

    assert [c for c in enc.clauses if len(c) == 1 and c[0] < 0] == [[-reach(t, sink)]
                                                                     for t in range(k)]


def test_never_both_verdicts():
    rng = random.Random(77)
    for _ in range(40):
        spec = random_formula(rng, ["r", "g"], 2)
        res = synth_ltl(SynthesisProblem(spec, AP_RG, cap=3))
        assert res.outcome in ("realizable", "unrealizable", "unknown")
        # soundness gates inside synth_ltl re-verify both kinds of winners


def test_finite_live_empty_trace_plain():
    psi = parse_formula("G F g")
    result = synth_finite_live(t_true(), psi, (), AP_RG)
    assert result.realizable
    assert mc_ltl(result.machine, psi).passed


def test_finite_live_relay_station_drop(relay2):
    # the recorded execution owes instruction i1; the shrunk update
    # specification no longer mentions station 1 but the machine must still
    # discharge the pending duty
    relay1 = family("relay", 1)
    eta = parse_trace("m1 i0 i1 r ; i1 ; m0 m1")
    ap = relay2.ap.union(relay1.ap)
    result = synth_finite_live(relay2.spec, relay1.spec, eta, ap)
    assert result.realizable
    assert mc_ltl(result.machine, parse_formula("F i1")).passed
    assert mc_finite_live(result.machine,
                          LiveProblem(relay2.spec, relay1.spec, ap, eta=eta)).passed


def test_finite_live_forced_grant_conflict():
    # pending grant duty against a no-spurious-grant update specification
    simple = family("arbiter-simple", 2)
    full = family("arbiter-full", 2)
    ap = simple.ap.union(full.ap)
    eta = (frozenset(),)  # one silent step: both grant duties already open
    result = synth_finite_live(simple.spec, full.spec, eta, ap)
    assert result.outcome == "unrealizable"


def test_universal_trivial_initial(monkeypatch):
    from liveupdate.machine import parse_machine
    builds = []

    def counted(*a, **kw):
        builds.append(a)
        return build_monitor(*a, **kw)

    for module in (monitor, synthesis):
        monkeypatch.setattr(module, "build_monitor", counted, raising=False)
    ts_i = parse_machine("inputs: r\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    psi = parse_formula("G (r -> F g)")
    result = synth_universal_live(ts_i, t_true(), psi, AP_RG)
    assert result.realizable
    assert [e["outcome"] for e in result.per_obligation] == ["realizable"]
    assert builds == []  # the cut is taken straight from phi


def test_universal_rejects_an_initial_machine_outside_the_ap_table():
    ts_i = parse_machine("inputs: r zz\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    with pytest.raises(ValueError, match="initial system"):
        synth_universal_live(ts_i, t_true(), parse_formula("G (r -> F g)"), AP_RG)


def test_universal_budget_counts_cut_states(fig1_machine, relay2):
    # the cut of relay(2) has 27 states, the uncut monitor 66
    relay1 = family("relay", 1)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec,
                                  relay2.ap.union(relay1.ap), monitor_budget=40)
    assert result.realizable
    assert len(result.per_obligation) == 7


def test_universal_deadline_is_one_deadline(monkeypatch, fig1_machine, relay2):
    # a fake clock: each attempt takes 3 s of a deadline 10 s away
    now = [100.0]
    starts = []

    def slow_solve(self, conflict_budget=None, deadline=None):
        starts.append(now[0] - 100.0)
        now[0] += 3.0
        return False  # ends at its first run, without a conflict or a model

    clock = SimpleNamespace(monotonic=lambda: now[0])  # the translations read it too
    monkeypatch.setattr(synthesis, "time", clock)
    monkeypatch.setattr(automata, "time", clock)
    monkeypatch.setattr(sat.Solver, "solve", slow_solve)
    relay1 = family("relay", 1)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec,
                                  relay2.ap.union(relay1.ap), deadline=110.0)
    assert starts == [0.0, 3.0, 6.0, 9.0]
    assert result.outcome == "unknown"
    assert result.reason == "the deadline passed before the system attempt at bound 3"
    assert [e["outcome"] for e in result.per_obligation] == ["unknown"] * 7


def test_universal_deadline_reaches_the_monitor_cut(monkeypatch, fig1_machine, relay2):
    # a fake clock that advances 1 s per reading, and a deadline 10 s away:
    # the 27-state cut of relay(2) stops at its 11th node, and no synthesis starts
    now = [100.0]

    def monotonic():
        now[0] += 1.0
        return now[0]

    clock = SimpleNamespace(monotonic=monotonic)
    monkeypatch.setattr(automata, "time", clock)
    monkeypatch.setattr(synthesis, "time", clock)
    relay1 = family("relay", 1)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec,
                                  relay2.ap.union(relay1.ap), deadline=110.0)
    assert result.outcome == "unknown"
    assert result.reason == "the deadline passed during the monitor cut"
    assert result.stats == () and result.per_obligation == ()
    assert now[0] == 111.0


@pytest.mark.parametrize("defer_states,order", [
    (120, [("system", 1, 4096), ("environment", 1, 512), ("system", 2, 8192),
           ("environment", 2, 1024), ("system", 3, 16384), ("environment", 3, 2048)]),
    (0, [("system", 1, 4096), ("system", 2, 8192), ("system", 3, 16384),
         ("environment", 1, 512), ("environment", 2, 1024), ("environment", 3, 2048)]),
])
def test_attempt_order(monkeypatch, defer_states, order):
    # (side, bound, conflict budget) of each attempt, on a frozen clock
    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: 100.0))
    monkeypatch.setattr(synthesis, "_ENV_DEFER_STATES", defer_states)
    monkeypatch.setattr(sat.Solver, "solve", unsat)
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG, cap=3))
    assert result.outcome == "unknown"
    assert [(a["side"], a["bound"], a["budget"]) for a in result.stats] == order


def scripted_runs(monkeypatch, needs):
    """Replace each attempt's solve by a script: the attempt of side and
    bound ``key`` ends without a model once it has analysed ``needs[key]``
    conflicts, and one that reaches its budget first runs out of it.  Returns
    the log of runs, as (side, bound, target)."""
    runs = []

    def run(self, problem, target):
        runs.append((self.side, self.k, target))
        self.enc = self.enc or SimpleNamespace(nv=0)
        if self.budget is None:  # an external solver answers in one run
            return False
        self.sat = self.sat or SimpleNamespace(conflicts=0)
        need = needs[(self.side, self.k)]
        self.sat.conflicts = min(target, need, self.budget)
        return False if self.sat.conflicts == need else None

    monkeypatch.setattr(synthesis._Attempt, "run", run)
    return runs


def test_environment_attempt_outlives_the_last_system_bound(monkeypatch):
    # e1 races s2, the last system bound, which ends first: e1 runs on alone
    # to its budget in one solve, and e2 then starts, alone
    runs = scripted_runs(monkeypatch, {("system", 1): 0, ("system", 2): 2,
                                       ("environment", 1): 5, ("environment", 2): 0})
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG,
                                        bounds=(1, 2), cap=2))
    assert result.outcome == "unknown"
    assert [(a["side"], a["bound"]) for a in result.stats] == [
        ("system", 1), ("system", 2), ("environment", 1), ("environment", 2)]
    assert runs == [("system", 1, 4096), ("environment", 1, 1), ("system", 2, 1),
                    ("environment", 1, 2), ("system", 2, 2), ("environment", 1, 512),
                    ("environment", 2, 1024)]


def test_external_solver_runs_each_pair_in_turn(monkeypatch):
    # without a conflict count, e_i runs to its answer, then s_{i+1}
    runs = scripted_runs(monkeypatch, {})
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG, cap=3,
                                        solver="an-external-solver"))
    assert result.outcome == "unknown"
    order = [("system", 1), ("environment", 1), ("system", 2), ("environment", 2),
             ("system", 3), ("environment", 3)]
    assert [(a["side"], a["bound"]) for a in result.stats] == order
    assert runs == [(side, k, None) for side, k in order]


def test_search_path_does_not_depend_on_the_clock(monkeypatch):
    # without a deadline, a clock that advances 10 s per reading gives the
    # attempts of a frozen clock, conflicts included; small environment
    # budgets, so that some attempts run out of theirs
    monkeypatch.setattr(synthesis, "_ENV_CONFLICTS", 16)
    inst = family("arbiter-full", 2)
    runs = []
    for step in (0.0, 10.0):
        now = [100.0]

        def monotonic(step=step):
            now[0] += step
            return now[0]

        clock = SimpleNamespace(monotonic=monotonic)
        synthesis._SYNTH.clear()  # search afresh, not from the first run's entry
        synthesis._CLASSES.clear()
        monkeypatch.setattr(synthesis, "time", clock)
        monkeypatch.setattr(sat, "time", clock)
        result = synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=4))
        runs.append((result.outcome, [{k: v for k, v in a.items() if k != "time"}
                                      for a in result.stats]))
    assert runs[0] == runs[1]
    outcome, attempts = runs[0]
    assert outcome == "realizable"
    exhausted = [a for a in attempts if a["timeout"]]
    assert exhausted and all(a["conflicts"] == a["budget"] for a in exhausted)


def test_environment_schedule_is_lazy(monkeypatch):
    # a fake clock: each attempt takes 3 s of a deadline 10 s away; the cap
    # must not decide how much memory the four attempts take
    now = [100.0]

    def slow_unsat(self, conflict_budget=None, deadline=None):
        now[0] += 3.0
        return False

    clock = SimpleNamespace(monotonic=lambda: now[0])  # the translations read it too
    monkeypatch.setattr(synthesis, "time", clock)
    monkeypatch.setattr(automata, "time", clock)
    monkeypatch.setattr(sat.Solver, "solve", slow_unsat)
    problem = SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG, cap=10_000, deadline=110.0)
    tracemalloc.start()
    try:
        result = synth_ltl(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.outcome == "unknown" and len(result.stats) == 4
    assert peak < 1 << 20


def test_unknown_names_the_last_bound_of_each_side(monkeypatch):
    monkeypatch.setattr(sat.Solver, "solve", unsat)
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG, cap=24))
    assert result.outcome == "unknown"
    assert result.reason == ("no machine up to bound 16 and no environment strategy up to "
                             "bound 24: 0 of 32 attempts ran out of their conflict budget")


def test_certificate_is_checked_against_the_encoded_automata():
    # fresh atoms, so no earlier test has translated this specification
    spec = parse_formula("G !gnt12 && G F gnt12")
    result = synth_ltl(SynthesisProblem(spec, APTable(("req12",), ("gnt12",))))
    assert result.outcome == "unrealizable"
    assert (spec, 20000) not in _NBA


def test_exhausted_budgets_give_a_reason():
    inst = family("arbiter-full", 2)
    result = synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=3))
    assert result.outcome == "unknown"
    assert result.reason == ("no machine and no environment strategy up to bound 3: "
                             "2 of 6 attempts ran out of their conflict budget")


@pytest.mark.parametrize("initial,update,outcome", [
    (("arbiter-simple", 2), ("arbiter-prioritized", 2), "realizable"),
    (("arbiter-simple", 2), ("arbiter-full", 2), "unrealizable"),
])
def test_universal_solves_the_conjunction_first(monkeypatch, initial, update, outcome):
    bi, bu, ap = update_pair(initial, update)
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    obligations = reachable_obligations(cut_from_phi(bi.spec, ts_i))
    separately = [synth_ltl(SynthesisProblem(f_and((o, bu.spec)), ap)).outcome
                  for o in obligations]
    specs = []

    def counted(problem):
        specs.append(problem.spec)
        return synth_ltl(problem)

    monkeypatch.setattr(synthesis, "synth_ltl", counted)
    result = synth_universal_live(ts_i, bi.spec, bu.spec, ap)
    assert result.outcome == outcome
    assert [e["outcome"] for e in result.per_obligation] == separately
    assert specs[0] is f_and(list(obligations) + [bu.spec])
    assert len(specs) == (1 if outcome == "realizable" else 1 + len(obligations))


def test_universal_verdict_from_an_unrealizable_obligation(monkeypatch):
    # the conjunction is forced to unknown; an unrealizable o && psi decides
    bi, bu, ap = update_pair(("arbiter-simple", 2), ("arbiter-full", 2))
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    obligations = reachable_obligations(cut_from_phi(bi.spec, ts_i))
    conjunction = f_and(list(obligations) + [bu.spec])
    search = synthesis.synth_ltl

    def forced(problem):
        if problem.spec is conjunction:
            return SynthesisResult("unknown", reason="forced")
        return search(problem)

    monkeypatch.setattr(synthesis, "synth_ltl", forced)
    result = synth_universal_live(ts_i, bi.spec, bu.spec, ap)
    assert result.outcome == "unrealizable" and result.reason is None
    refuted = [o for o in obligations
               if search(SynthesisProblem(f_and((o, bu.spec)), ap)).outcome == "unrealizable"]
    assert result.certificate is search(SynthesisProblem(f_and((refuted[0], bu.spec)), ap)).certificate
    assert env_counterexample(result.certificate, ltl_to_nba(conjunction)) is None


def test_second_call_is_answered_from_the_memo(monkeypatch):
    problem = SynthesisProblem(parse_formula("G (r -> X g) && G F !g"), AP_RG)
    first = synth_ltl(problem)
    built = []

    class Counted(_Encoder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(synthesis, "_Encoder", Counted)
    again = synth_ltl(SynthesisProblem(problem.spec, AP_RG, deadline=float("inf")))
    assert built == []
    assert (again.outcome, again.machine, again.stats) == (first.outcome, first.machine, first.stats)


def counted_runs(monkeypatch):
    """The (side, bound) of every ``_Attempt.run`` from now on."""
    runs = []
    run = synthesis._Attempt.run

    def counted(self, *args):
        runs.append((self.side, self.k))
        return run(self, *args)

    monkeypatch.setattr(synthesis._Attempt, "run", counted)
    return runs


def arbiter_and_abp(goal=""):
    """arbiter-full(2) and abp-receiver(2), which renames it with r -> m and
    g -> a, each with ``F`` of its ``goal``-th output conjoined if given."""
    problems = []
    for inst, out in ((family("arbiter-full", 2), "g"), (family("abp-receiver", 2), "a")):
        goals = [parse_formula(f"F {out}{goal}")] if goal else []
        problems.append(SynthesisProblem(f_and([inst.spec, *goals]), inst.ap, cap=4))
    return problems


@pytest.mark.parametrize("goal", ["", "0"])
def test_renamed_copy_is_answered_from_the_memo(monkeypatch, goal):
    arbiter, abp = arbiter_and_abp(goal)
    first = synth_ltl(arbiter)
    runs = counted_runs(monkeypatch)
    again = synth_ltl(abp)
    assert runs == []
    assert again.outcome == first.outcome == ("unrealizable" if goal else "realizable")
    assert again.stats == first.stats
    if goal:
        assert again.certificate.ap == abp.ap
        assert env_counterexample(again.certificate, ltl_to_nba(abp.spec)) is None
    else:
        assert again.machine.ap == abp.ap and mc_ltl(again.machine, abp.spec).passed
    assert synth_ltl(abp) is again  # kept under its own key too


ARB2 = APTable(("r0", "r1"), ("g0", "g1"))


@pytest.mark.parametrize("first,second,cap,searched", [
    # a renaming of the propositions, then the same shape with another binding
    (("G (r0 -> F g0) && G (r1 -> X g0)", ARB2), ("G (r1 -> F g1) && G (r0 -> X g1)", ARB2), 16,
     False),
    (("G (r0 -> F g0) && G (r1 -> X g0)", ARB2), ("G (r0 -> F g0) && G (r1 -> X g1)", ARB2), 16,
     True),
    # a renaming, then one that swaps the roles, one with an unused
    # proposition more, and one with another cap
    (("G (r -> F g)", AP_RG), ("G (q -> F h)", APTable(("q",), ("h",))), 16, False),
    (("G (r -> F g)", AP_RG), ("G (g -> F r)", AP_RG), 16, True),
    (("G (r -> F g)", AP_RG), ("G (q -> F h)", APTable(("q",), ("h", "x"))), 16, True),
    (("G (r -> F g)", AP_RG), ("G (q -> F h)", APTable(("q",), ("h",))), 8, True),
])
def test_only_a_renamed_copy_is_looked_up(monkeypatch, first, second, cap, searched):
    synth_ltl(SynthesisProblem(parse_formula(first[0]), first[1]))
    runs = counted_runs(monkeypatch)
    synth_ltl(SynthesisProblem(parse_formula(second[0]), second[1], cap=cap))
    assert bool(runs) is searched


def test_a_colliding_class_key_is_searched(monkeypatch):
    # the class key is only an index: a hit also needs the stored
    # specification, renamed, to be the caller's
    naming = synthesis._naming
    monkeypatch.setattr(synthesis, "_naming", lambda spec, ap: (0, naming(spec, ap)[1]))
    synth_ltl(SynthesisProblem(parse_formula("G (r -> F g)"), AP_RG))
    runs = counted_runs(monkeypatch)
    assert synth_ltl(SynthesisProblem(parse_formula("G !g"), AP_RG)).realizable
    assert runs


@pytest.mark.parametrize("goal,error", [("", "synthesized machine"),
                                        ("0", "environment certificate")])
def test_corrupted_relabel_fails_verification(monkeypatch, goal, error):
    arbiter, abp = arbiter_and_abp(goal)
    synth_ltl(arbiter)
    relabel = synthesis._relabel

    def corrupted(result, to, ap):
        result = relabel(result, to, ap)
        if result.machine is not None:  # never grant
            result.machine.outputs = [frozenset() for _ in result.machine.outputs]
        else:  # always request
            env = result.certificate
            env.table = {key: (frozenset(ap.inputs), dst) for key, (_, dst) in env.table.items()}
        return result

    monkeypatch.setattr(synthesis, "_relabel", corrupted)
    with pytest.raises(AssertionError, match=f"{error} failed verification"):
        synth_ltl(abp)


def test_renamed_row_is_answered_from_the_memo(monkeypatch):
    # abp-receiver:1->2 after arbiter:2s->2f: every specification of its
    # universal synthesis renames one of arbiter:2s->2f's
    def row(initial, update):
        bi, bu, ap = update_pair(initial, update)
        ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
        runs = counted_runs(monkeypatch)
        result = synth_universal_live(ts_i, bi.spec, bu.spec, ap)
        return runs, [result.outcome, list(result.per_obligation)]

    row(("arbiter-simple", 2), ("arbiter-full", 2))
    runs, found = row(("abp-receiver", 1), ("abp-receiver", 2))
    assert runs == []
    code = ("import json\n"
            "from liveupdate.benchmarks import update_pair\n"
            "from liveupdate.synthesis import SynthesisProblem, synth_ltl, synth_universal_live\n"
            "bi, bu, ap = update_pair(('abp-receiver', 1), ('abp-receiver', 2))\n"
            "ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine\n"
            "r = synth_universal_live(ts_i, bi.spec, bu.spec, ap)\n"
            "print(json.dumps([r.outcome, list(r.per_obligation)]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(synthesis.__file__).parents[1])}
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True).stdout
    assert found == json.loads(fresh)
    assert found[0] == "unrealizable" and {"realizable", "unrealizable"} == {
        e["outcome"] for e in found[1]}


def test_unknown_is_not_remembered():
    spec = parse_formula("G (r -> X g)")
    late = synth_ltl(SynthesisProblem(spec, AP_RG, deadline=0.0))
    assert late.outcome == "unknown" and synthesis._SYNTH == {}
    assert synth_ltl(SynthesisProblem(spec, AP_RG)).outcome == "realizable"
    inst = family("arbiter-full", 2)
    assert synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=3)).outcome == "unknown"
    assert len(synthesis._SYNTH) == 1


def test_memo_keys_on_bounds_cap_and_solver():
    # no machine of one state: the external solver's first attempt runs
    # before any kept machine of two states could answer
    spec = parse_formula("G (r -> X g) && G (!r -> X !g)")
    for kwargs in ({}, {"bounds": (2, 3)}, {"cap": 8}):
        synth_ltl(SynthesisProblem(spec, AP_RG, **kwargs))
    assert len(synthesis._SYNTH) == 3
    with pytest.raises(FileNotFoundError):  # searched, not looked up
        synth_ltl(SynthesisProblem(spec, AP_RG, solver="no-such-solver"))


def test_universal_leaves_the_remembered_conjunction_alone():
    from liveupdate.machine import parse_machine
    ts_i = parse_machine("inputs: r\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    psi = parse_formula("G (r -> F g)")
    first = synth_universal_live(ts_i, t_true(), psi, AP_RG)
    again = synth_universal_live(ts_i, t_true(), psi, AP_RG)
    assert again == first and first.per_obligation
    (remembered,) = synthesis._SYNTH.values()
    assert remembered.machine is first.machine and remembered.per_obligation == ()


RELAY2_MACHINE = Path(__file__).parents[1] / "bench" / "inputs" / "machines" / "relay-2.machine"


def relay_executions(count, seed=38):
    """``count`` seeded executions of the committed relay(2) machine, of up
    to 8 letters each."""
    ts_i = parse_machine(RELAY2_MACHINE.read_text())
    rng = random.Random(seed)
    return [ts_i.run([frozenset(a for a in ts_i.ap.inputs if rng.random() < 0.5)
                      for _ in range(rng.randrange(9))]) for _ in range(count)]


def checked_machines(monkeypatch):
    """The (machine, spec) of every ``mc_ltl`` call of ``synth_ltl`` from now on."""
    calls = []

    def spy(machine, spec, *args, **kwargs):
        calls.append((machine, spec))
        return mc_ltl(machine, spec, *args, **kwargs)

    monkeypatch.setattr(synthesis, "mc_ltl", spy)
    return calls


def without_time(stats):
    return [{k: v for k, v in a.items() if k != "time"} for a in stats]


def test_a_kept_machine_answers_at_the_bound_a_fresh_search_wins(monkeypatch):
    # two executions of the attempt ledger: the 2-state machine found for the
    # first passes the check of the second's obligation before s2, where a
    # fresh search of it wins too; s1 still runs, and the environment
    # automaton of the second's specification is never translated
    bi, bu, ap = update_pair(("relay", 2), ("relay", 1))
    first, second = (parse_trace(text) for text in list(RELAY_LEDGER)[1:3])
    spec = f_and((evolve(second, bi.spec), bu.spec))
    fresh = synth_finite_live(bi.spec, bu.spec, second, ap)
    synthesis._SYNTH.clear()
    synthesis._CLASSES.clear()
    monkeypatch.setattr(automata, "_NBA", {})
    earlier = synth_finite_live(bi.spec, bu.spec, first, ap)
    runs = counted_runs(monkeypatch)
    result = synth_finite_live(bi.spec, bu.spec, second, ap)
    assert (result.outcome, len(result.machine)) == (fresh.outcome, len(fresh.machine)) \
        == ("realizable", 2)
    assert result.machine is earlier.machine and mc_ltl(result.machine, spec).passed
    assert runs == [("system", 1)]
    *searched, entry = result.stats
    assert without_time(searched) == without_time(fresh.stats[:1])
    assert entry["kept"] and (entry["side"], entry["bound"], entry["sat"]) == ("system", 2, True)
    assert spec not in {f for f, _ in automata._NBA}
    assert synth_ltl(SynthesisProblem(spec, ap)) is result  # kept like a searched answer


def test_a_kept_machine_that_fails_the_check_is_not_returned(monkeypatch):
    spec = parse_formula("G (r -> X g) && G (!r -> X !g)")  # no machine of one state
    fresh = synth_ltl(SynthesisProblem(spec, AP_RG))
    synthesis._SYNTH.clear()
    synthesis._CLASSES.clear()
    kept = synth_ltl(SynthesisProblem(parse_formula("G g"), AP_RG)).machine
    calls = checked_machines(monkeypatch)
    result = synth_ltl(SynthesisProblem(spec, AP_RG))
    assert calls[0] == (kept, spec) and not mc_ltl(kept, spec).passed
    assert result.machine is not kept and calls[1:] == [(result.machine, spec)]
    assert (result.outcome, len(result.machine)) == (fresh.outcome, len(fresh.machine))
    assert without_time(result.stats) == without_time(fresh.stats)


@pytest.mark.parametrize("bounds, ap", [((3,), AP_RG), ((1, 2), APTable(("r",), ("g", "x")))],
                         ids=["another-size", "another-table"])
def test_only_a_kept_machine_of_the_bound_and_the_table_is_tried(monkeypatch, bounds, ap):
    # kept machines of 1 and 2 states over r/g, each of which passes the
    # check of the spec: neither is tried at bound 3, nor over another table
    spec = parse_formula("G (r -> X g)")
    kept = [synth_ltl(SynthesisProblem(parse_formula(text), AP_RG)).machine
            for text in ("G g", "G (r -> X g) && G (!r -> X !g)")]
    assert [len(m) for m in kept] == [1, 2] and all(mc_ltl(m, spec).passed for m in kept)
    calls = checked_machines(monkeypatch)
    result = synth_ltl(SynthesisProblem(spec, ap, bounds=bounds, cap=max(bounds)))
    assert result.realizable and len(result.machine) == bounds[0]
    assert calls == [(result.machine, spec)]
    assert not any(a.get("kept") for a in result.stats)


def test_a_kept_answer_stops_the_environment_attempt_beside_it():
    # arbiter-full(2): e1 still races when s3 ends without a machine, so
    # the 4-state machine kept from the search with cap 4 answers s4 of the
    # search with cap 6, and e1 is recorded as stopped after it
    inst = family("arbiter-full", 2)
    first = synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=4))
    result = synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=6))
    assert result.machine is first.machine and len(result.machine) == 4
    *searched, entry, stopped = result.stats
    assert without_time(searched) == without_time(first.stats[:3])
    assert entry["kept"] and (entry["side"], entry["bound"]) == ("system", 4)
    assert (stopped["side"], stopped["bound"], stopped["sat"], stopped["timeout"]) == (
        "environment", 1, None, False)
    assert stopped["conflicts"] <= first.stats[3]["conflicts"]


def test_check_of_a_kept_machine_past_the_deadline_is_unknown(monkeypatch):
    # a fake clock that jumps past the deadline once a translation starts:
    # the check of a kept machine before s1 translates the spec's automata,
    # so it ends unknown with a reason that names it, and nothing is kept
    monkeypatch.setattr(automata, "_NBA", {})
    kept = synth_ltl(SynthesisProblem(parse_formula("G g"), AP_RG))
    now = [100.0]
    translate = automata._translate

    def slow(f, max_states, deadline=None):
        now[0] = 200.0
        return translate(f, max_states, deadline)

    clock = SimpleNamespace(monotonic=lambda: now[0])
    for module in (automata, synthesis, sat):
        monkeypatch.setattr(module, "time", clock)
    monkeypatch.setattr(automata, "_translate", slow)
    runs = counted_runs(monkeypatch)
    spec = parse_formula("G (r -> X g)")
    result = synth_ltl(SynthesisProblem(spec, AP_RG, deadline=110.0))
    assert runs == [] and now[0] == 200.0
    assert result.outcome == "unknown" and result.stats == ()
    assert result.reason == "the deadline passed during the check of a kept machine"
    assert list(synthesis._SYNTH.values()) == [kept]
    assert synth_ltl(SynthesisProblem(spec, AP_RG)).machine is kept.machine


def test_kept_answers_keep_the_outcome_and_size_of_a_fresh_search():
    # seeded executions of the relay(2) machine, solved in turn, where a
    # machine kept from one answers another, and each solved afresh
    bi, bu, ap = update_pair(("relay", 2), ("relay", 1))
    executions = relay_executions(12)
    in_turn = [synth_finite_live(bi.spec, bu.spec, eta, ap) for eta in executions]
    fresh = []
    for eta in executions:
        synthesis._SYNTH.clear()
        synthesis._CLASSES.clear()
        fresh.append(synth_finite_live(bi.spec, bu.spec, eta, ap))

    def found(r):
        return r.outcome, r.machine and len(r.machine)

    assert list(map(found, in_turn)) == list(map(found, fresh))
    assert any(a.get("kept") for r in in_turn for a in r.stats)


def test_finite_live_checks_inputs_before_synthesis(monkeypatch):
    problems = []

    def record(problem):
        problems.append(problem)
        return SynthesisResult("unknown")

    monkeypatch.setattr(synthesis, "synth_ltl", record)
    with pytest.raises(ValueError, match="undeclared"):
        synth_finite_live(t_true(), parse_formula("G F g"), (L("x"),), AP_RG)
    assert problems == []


def _with_undeclared(names: dict[int, str]) -> tuple:
    """A five-letter trace over AP_RG with ``names[i]`` added to letter i."""
    return tuple(letter | {names[i]} if i in names else letter
                 for i, letter in enumerate((L("r"), L("g"), L(), L("r", "g"), L("r"))))


# an undeclared name in the first, a middle or the last letter; with two bad
# letters, the first one's name, though the other's sorts first
@pytest.mark.parametrize("eta, names", [(_with_undeclared({0: "x"}), ["x"]),
                                        (_with_undeclared({2: "x"}), ["x"]),
                                        (_with_undeclared({4: "x"}), ["x"]),
                                        (_with_undeclared({1: "y", 3: "x"}), ["y"])])
def test_finite_live_rejects_the_first_undeclared_letter(monkeypatch, eta, names):
    problems = []
    monkeypatch.setattr(synthesis, "synth_ltl", problems.append)
    phi, psi = parse_formula("G (r -> F g)"), parse_formula("G F g")
    message = re.escape(f"letter mentions undeclared propositions: {names}")
    with pytest.raises(ValueError, match=message):
        LiveProblem(phi, psi, AP_RG, eta=eta)
    with pytest.raises(ValueError, match=message):
        synth_finite_live(phi, psi, eta, AP_RG)
    assert problems == []


def test_corrupted_machine_fails_verification(monkeypatch):
    extract = _Encoder.extract_moore

    def never_grant(self, model):
        machine = extract(self, model)
        machine.outputs = [frozenset() for _ in machine.outputs]
        return machine

    monkeypatch.setattr(_Encoder, "extract_moore", never_grant)
    with pytest.raises(AssertionError, match="synthesized machine failed verification"):
        synth_finite_live(t_true(), parse_formula("G F g"), (), AP_RG)


@pytest.mark.parametrize("spec, ap, outcome", [
    (family("relay", 1).spec, family("relay", 1).ap, "realizable"),
    (parse_formula("F r && G (r -> X g)"), AP_RG, "unrealizable"),
], ids=["relay-1", "env-certificate"])
def test_verification_translates_nothing(monkeypatch, spec, ap, outcome):
    # the machine or certificate is checked against the automata that the
    # search encoded: no translation happens after the search
    monkeypatch.setattr(automata, "_NBA", {})
    searched = []
    verified = synthesis._verified

    def spy(result, f):
        searched.append(set(automata._NBA))
        return verified(result, f)

    monkeypatch.setattr(synthesis, "_verified", spy)
    result = synth_ltl(SynthesisProblem(spec, ap))
    assert result.outcome == outcome
    assert searched == [set(automata._NBA)] and len(automata._NBA) > 1


def test_corrupted_certificate_fails_verification(monkeypatch):
    extract = _Encoder.extract_env

    def always_request(self, model):
        env = extract(self, model)
        env.table = {key: (frozenset(self.ap.inputs), dst) for key, (_, dst) in env.table.items()}
        return env

    monkeypatch.setattr(_Encoder, "extract_env", always_request)
    with pytest.raises(AssertionError, match="environment certificate failed verification"):
        synth_ltl(SynthesisProblem(parse_formula("F r"), AP_RG))


def test_env_counterexample_agrees_with_the_product_of_its_table():
    # the twin of the Moore-side product test: seeded random certificates
    # against the automata of random formulas, each product searched by
    # env_counterexample and by a step generator that reads the table
    def table_steps(env):
        def steps(e):
            for a in all_letters(env.ap.outputs):
                emit, e2 = env.table[(e, a)]
                yield a | emit, a | emit, e2
        return steps

    rng = random.Random(53)
    ap = APTable(("x",), ("y",))
    found = 0
    for _ in range(120):
        k = rng.randint(1, 3)
        env = EnvMachine(ap, k, rng.randrange(k), {
            (t, a): (rng.choice(all_letters(ap.inputs)), rng.randrange(k))
            for t in range(k) for a in all_letters(ap.outputs)})
        f = random_formula(rng, ["x", "y"], 2)
        nba = ltl_to_nba(f)
        lasso = env_counterexample(env, nba)
        reference = _product_lasso([env.initial], table_steps(env), nba)
        assert lasso == (reference and LassoTrace(*map(tuple, reference))), str(f)
        if lasso is None:
            continue
        found += 1
        assert accepts_lasso(nba, lasso), str(f)
        e = env.initial
        for i, letter in enumerate(lasso.prefix + lasso.loop):
            if i == len(lasso.prefix):
                loop_start = e
            emit, e = env.table[(e, letter & frozenset(ap.outputs))]
            assert letter == (letter & frozenset(ap.outputs)) | emit, str(f)
        assert e == loop_start, str(f)
    assert 0 < found < 120

@pytest.mark.parametrize("side", ["system", "environment"])
def test_translation_past_the_deadline_is_unknown(monkeypatch, side):
    # a fake clock that jumps past the deadline once the translation of one
    # side's automata starts: the environment automaton is of the whole
    # specification, whose negation is a disjunction, and a system automaton
    # of a conjunct's negation.  The result is unknown, its reason names that
    # translation, and neither it nor the automaton is kept
    spec = parse_formula("G (r -> X g) && G (!r -> X !g)")  # no machine of one state
    now, late = [100.0], []
    translate = automata._translate

    def slow(f, max_states, deadline=None):
        if (f is spec) == (side == "environment"):
            now[0] = 200.0
            late.append(f)
        return translate(f, max_states, deadline)

    clock = SimpleNamespace(monotonic=lambda: now[0])
    for module in (automata, synthesis, sat):
        monkeypatch.setattr(module, "time", clock)
    monkeypatch.setattr(automata, "_NBA", {})
    monkeypatch.setattr(automata, "_translate", slow)
    result = synth_ltl(SynthesisProblem(spec, AP_RG, deadline=150.0))
    assert result.outcome == "unknown"
    assert result.reason == f"the deadline passed during the translation of the {side} automata"
    assert [a["side"] for a in result.stats] == ([] if side == "system" else ["system"])
    assert synthesis._SYNTH == {} and late and late[0] not in {f for f, _ in automata._NBA}


@pytest.mark.parametrize("first, copy", [("G (r -> F g)", "G (q -> F h)"),
                                         ("F r && G (r -> X g)", "F q && G (q -> X h)")],
                         ids=["machine", "certificate"])
def test_check_of_a_renamed_copy_past_the_deadline_is_unknown(monkeypatch, first, copy):
    # a fake clock that jumps past the deadline once a translation starts:
    # the check of a renamed copy translates the copy's automata, so it ends
    # unknown with a reason that names it, and the copy is not kept
    monkeypatch.setattr(automata, "_NBA", {})
    kept = synth_ltl(SynthesisProblem(parse_formula(first), AP_RG))
    now = [100.0]
    translate = automata._translate

    def slow(f, max_states, deadline=None):
        now[0] = 200.0
        return translate(f, max_states, deadline)

    clock = SimpleNamespace(monotonic=lambda: now[0])
    for module in (automata, synthesis, sat):
        monkeypatch.setattr(module, "time", clock)
    monkeypatch.setattr(automata, "_translate", slow)
    runs = counted_runs(monkeypatch)
    qh = APTable(("q",), ("h",))
    result = synth_ltl(SynthesisProblem(parse_formula(copy), qh, deadline=110.0))
    assert runs == [] and now[0] == 200.0
    assert result.outcome == "unknown"
    assert result.reason == "the deadline passed during the check of a renamed copy"
    assert list(synthesis._SYNTH.values()) == [kept]
    assert synth_ltl(SynthesisProblem(parse_formula(copy), qh)).outcome == kept.outcome

def test_env_automaton_budget_gives_unknown(monkeypatch):
    def budgeted(f, max_states=20000, deadline=None):
        if max_states == synthesis._ENV_MAX_STATES:
            raise BudgetError("forced")
        return ltl_to_nba(f, max_states, deadline=deadline)

    monkeypatch.setattr(automata, "ltl_to_nba", budgeted)
    spec = parse_formula("G (r -> X g) && G (r -> X !g)")
    result = synth_ltl(SynthesisProblem(spec, AP_RG, bounds=(1, 2), cap=2))
    assert result.outcome == "unknown"
    assert [s["side"] for s in result.stats] == ["system", "system"]
    assert result.reason == ("no machine up to bound 2, and the environment automata exceed "
                             "their budget: 0 of 2 attempts ran out of their conflict budget")


def test_monitor_budget_gives_unknown(fig1_machine, relay2):
    # the cut of relay(2) has 27 states: a budget of 26 ends the call as the
    # deadline does, unknown without obligations, and raises nothing
    relay1 = family("relay", 1)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec,
                                  relay2.ap.union(relay1.ap), monitor_budget=26)
    assert result.outcome == "unknown"
    assert result.reason == "monitor exceeds 26 states (frontier 4) in the monitor cut"
    assert result.stats == () and result.per_obligation == ()


@pytest.mark.parametrize("entry", ["synth_ltl", "synth_finite_live", "synth_universal_live"])
def test_system_automaton_budget_gives_unknown(monkeypatch, top_cycle_machine, entry):
    # the automaton of one conjunct of the update specification runs out of
    # its budget, so every search of every entry point ends before its first
    # attempt, and the reason names the translation
    psi = parse_formula("G (m1 -> X F i1) && G (i1 -> X !i1)")
    over = neg(psi.children[0])

    def budgeted(f, max_states=20000, deadline=None):
        if f is over:
            raise BudgetError("automaton exceeds 20000 states (frontier 7)")
        return ltl_to_nba(f, max_states, deadline=deadline)

    monkeypatch.setattr(automata, "_NBA", {})
    monkeypatch.setattr(automata, "ltl_to_nba", budgeted)
    ap = top_cycle_machine.ap
    if entry == "synth_ltl":
        result = synth_ltl(SynthesisProblem(psi, ap))
    elif entry == "synth_finite_live":
        result = synth_finite_live(parse_formula("G (m1 -> X F i1)"), psi,
                                   parse_trace("m1 ; i1 m1"), ap)
    else:
        result = synth_universal_live(top_cycle_machine, parse_formula("G (m1 -> X F i1)"),
                                      psi, ap)
        assert [e["outcome"] for e in result.per_obligation] == ["unknown"] * 2
    assert result.outcome == "unknown" and result.stats == ()
    assert result.reason == ("automaton exceeds 20000 states (frontier 7) in the translation "
                             "of the system automata")
    assert synthesis._SYNTH == {}


def test_universal_verdict_survives_a_conjunction_out_of_budget(monkeypatch):
    # the translation of the conjunction runs out of its state budget: the
    # obligations are still solved one by one, and an unrealizable one
    # certifies the conjunction
    bi, bu, ap = update_pair(("arbiter-simple", 2), ("arbiter-full", 2))
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    obligations = reachable_obligations(cut_from_phi(bi.spec, ts_i))
    separately = [synth_ltl(SynthesisProblem(f_and((o, bu.spec)), ap)) for o in obligations]
    conjunction = f_and(list(obligations) + [bu.spec])
    translate = synthesis._conjunct_automata

    def budgeted(f, *args, **kwargs):
        if f is conjunction:
            raise BudgetError("automaton exceeds 20000 states (frontier 7)")
        return translate(f, *args, **kwargs)

    monkeypatch.setattr(synthesis, "_conjunct_automata", budgeted)
    result = synth_universal_live(ts_i, bi.spec, bu.spec, ap)
    assert result.outcome == "unrealizable" and result.reason is None
    assert [e["outcome"] for e in result.per_obligation] == [r.outcome for r in separately]
    refuted = next(r for r in separately if r.outcome == "unrealizable")
    assert result.certificate is refuted.certificate


@pytest.mark.parametrize("exc, reason", [
    (TimeoutError("the deadline passed during the solve"),
     "the deadline passed during the environment attempt at bound 1"),
    (sat.SolverError("external solver gave no verdict"),
     "external solver gave no verdict in the environment attempt at bound 1"),
], ids=["deadline", "solver"])
def test_running_out_in_a_pair_names_the_attempt(monkeypatch, exc, reason):
    # s1 ends without a machine; e1 and s2 race, each a conflict ahead in
    # turn, and e1's second run raises: its entry comes first, with timeout
    # set for the deadline alone, then s2's, stopped
    calls = []

    def solve(self, conflict_budget=None, deadline=None):
        calls.append(conflict_budget)
        if len(calls) == 1:
            return False
        if len(calls) == 4:
            raise exc
        self.conflicts = conflict_budget
        return None

    monkeypatch.setattr(sat.Solver, "solve", solve)
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG))
    assert calls == [4096, 1, 1, 2]
    assert result.outcome == "unknown" and result.reason == reason
    assert [(a["side"], a["bound"], a["sat"], a["timeout"]) for a in result.stats] == [
        ("system", 1, False, False),
        ("environment", 1, None, isinstance(exc, TimeoutError)),
        ("system", 2, None, False)]


@pytest.mark.parametrize("key", ["visit->seq-visit", "relay:2->1", "arbiter:2s->2f",
                                 "abp-receiver:1->2"])
def test_encoding_has_no_tautologies(key):
    row = next(r for r in TABLE1_ROWS if r.key == key)
    bi, bu, ap = update_pair(row.initial, row.update)
    for spec in (bu.spec, f_and((bi.spec, bu.spec))):
        for side, f in (("moore", spec), ("mealy-env", neg(spec))):
            automata = _conjunct_automata(f)
            for k in (1, 2):
                enc = _Encoder(automata, ap, k, side)
                assert not [c for c in enc.clauses if set(c) & {-lit for lit in c}], (key, side, k)


def test_only_an_external_attempt_keeps_the_clauses(monkeypatch):
    # the internal solver copies the CNF, so its attempt drops the encoder's
    # clause lists and counts them; an external solver is given them
    problem = SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG)
    automata = _conjunct_automata(problem.spec)
    count = len(_Encoder(automata, AP_RG, 2, "moore").clauses)
    internal = synthesis._Attempt("system", 2, 100, automata)
    assert internal.run(problem, None)
    assert internal.enc.clauses == [] and internal.entry(True, False)["clauses"] == count
    given = []

    def solve_external(solver, nv, clauses, timeout):
        given.append(len(clauses))
        return False, set()

    monkeypatch.setattr(synthesis, "solve_external", solve_external)
    external = synthesis._Attempt("system", 2, None, automata)
    assert external.run(problem, None) is False
    assert given == [count] and len(external.enc.clauses) == count
    assert external.entry(False, False)["clauses"] == count


def test_kept_encoding_shape_gives_the_fresh_cnf():
    # an automaton's shape is kept per read letters and emitted propositions:
    # the same automata under the propositions in another order, or read by
    # the other side, give the CNF that an empty table gives
    spec = parse_formula("G (r1 -> F (g1 && !g2)) && G (r2 -> X (g2 || !g1))")
    aps = [APTable(("r1", "r2"), ("g1", "g2")), APTable(("r2", "r1"), ("g2", "g1"))]
    cases = [(automata, ap, k, mode) for mode, f in (("moore", spec), ("mealy-env", neg(spec)))
             for automata in [_conjunct_automata(f)] for ap in aps for k in (1, 2)]
    kept = [_Encoder(*case).clauses for case in cases]
    fresh = []
    for case in cases:
        synthesis._SHAPES.clear()
        fresh.append(_Encoder(*case).clauses)
    assert kept == fresh


@pytest.mark.parametrize("side", ["moore", "mealy-env"])
def test_encoder_clauses_are_proper(side):
    # the solver keeps a clause as it is given, but for its repeated literals:
    # with none, and no tautology either, it searches the encoder's CNF itself
    for spec in random_specs():
        automata = _conjunct_automata(spec if side == "moore" else neg(spec))
        for k in (1, 2, 3):
            for c in _Encoder(automata, AP_RG, k, side).clauses:
                assert c and len(set(c)) == len(c) and not set(c) & {-lit for lit in c}, \
                    (str(spec), k, c)


# The attempt ledger, (side, bound, vars, clauses, conflicts, sat) per attempt,
# of relay:2->1 in synth-universal and of three recorded relay(2) executions in
# synth-finite.  A change meant to keep the search keeps it; one meant to
# change the search updates it and says why.
RELAY_LEDGER = {
    "universal": [("system", 1, 81, 461, 2, False), ("environment", 1, 109, 1221, 14, False),
                  ("system", 2, 170, 1941, 35, True)],
    "i0 m1 ; i0 r ; i1 ; - ; m1 ; i1 m1 ; i1 m0 ; i0 i1 m0 m1 r ; i0 i1 m1 r ; i1 m0 m1 ; i0 m0 m1 r": [
        ("system", 1, 50, 234, 2, False), ("environment", 1, 116, 1301, 5, False),
        ("system", 2, 108, 1020, 28, True)],
    "i0 m0 m1 ; i0 m0 r ; i0 i1 m0 r ; i0 m0 ; i0 ; m0 m1 ; i0 m0 r": [
        ("system", 1, 51, 263, 2, False), ("environment", 1, 157, 1999, 13, False),
        ("system", 2, 110, 1145, 30, True)],
    "i0 m0 ; i0 m0 ; i0 m1 ; i0 m0 r ; i0 i1 r ; i0 m0 ; i0 m0 m1 ; i0 r ; i1 m1 ; i1 m0": [
        ("system", 1, 51, 263, 2, False), ("environment", 1, 99, 1103, 24, False),
        ("system", 2, 110, 1145, 29, True)],
}


# The sha256 of ``to_dimacs`` of each attempt's CNF in the ledger, in its
# order: a change that keeps the search keeps every clause and its literal
# order, which sizes and conflict counts alone may not show.
RELAY_CNF_SHA256 = {
    "universal": ["a6af2f122b1ce2dbe2c868fa19ded63eb1e1bac2d059c93be83ca4b6b0be2840",
                  "661f0b28e33b1fb56b61cc5a99de97e2eec27259535bf01cb21e095f59baf40e",
                  "8cbdafdf820bcace7c1a3200e131429405df059ab0e1ba6cf566631c416f634d"],
    "i0 m1 ; i0 r ; i1 ; - ; m1 ; i1 m1 ; i1 m0 ; i0 i1 m0 m1 r ; i0 i1 m1 r ; i1 m0 m1 ; i0 m0 m1 r": [
        "8f9efe7300b32ea6a2b629a8d17a51f658fe8e891a500b618c8428d20fda3381",
        "994456f9f92f8b0ea9a12c1c43a877db10cdc9897283da1558e932205e7d4253",
        "e6f9322db7782632fd5c812338189bfb02d626d84969480b1ff2e153e6487660"],
    "i0 m0 m1 ; i0 m0 r ; i0 i1 m0 r ; i0 m0 ; i0 ; m0 m1 ; i0 m0 r": [
        "7e6a97fdab57fd35ec9b72cc4b404b39169cfc8af0fbcd9328dd5b4e9b1b6d54",
        "6424cff3ce8e7ac7a7e44dd847a6045378ef16283c46a939dc177d6d6ff14b6c",
        "5cdda53f4ccd6fb11ce338d11037a27f5db9ac3be3ec2df024880329a4d4367d"],
    "i0 m0 ; i0 m0 ; i0 m1 ; i0 m0 r ; i0 i1 r ; i0 m0 ; i0 m0 m1 ; i0 r ; i1 m1 ; i1 m0": [
        "02e66638067726b2f14784c89eb5114de022db38f99c7bf9452388976e94f79a",
        "f7760ca9c076996b8a82bc72d78f6046bbb459381e587809586612715a126ba1",
        "68b08d09977fb57c620bfd45f014c502b6eb945735a20fd59e22a0324f82587f"],
}


def relay_ledger_runs(monkeypatch, built):
    """``(key, result)`` for each problem of ``RELAY_LEDGER`` in turn, with
    ``built(enc)`` called on every encoder once its CNF is built, before a
    solver takes the clauses."""
    encode = _Encoder._build

    def build(enc):
        encode(enc)
        built(enc)

    monkeypatch.setattr(_Encoder, "_build", build)
    ts_i = parse_machine(RELAY2_MACHINE.read_text())
    bi, bu, ap = update_pair(("relay", 2), ("relay", 1))
    for text in RELAY_LEDGER:
        synthesis._SYNTH.clear()  # searched afresh, not answered by a machine kept before
        synthesis._CLASSES.clear()
        yield text, (synth_universal_live(ts_i, bi.spec, bu.spec, ap) if text == "universal"
                     else synth_finite_live(bi.spec, bu.spec, parse_trace(text), ap))


def test_attempt_ledger_is_pinned(monkeypatch):
    cnfs = {}  # (side, bound) -> digest, per ledger entry

    def digest(enc):
        side = "system" if enc.mode == "moore" else "environment"
        cnfs[(side, enc.k)] = hashlib.sha256(sat.to_dimacs(enc.nv, enc.clauses).encode()).hexdigest()

    results, digests = {}, {}
    for text, result in relay_ledger_runs(monkeypatch, digest):
        results[text] = result
        digests[text] = [cnfs[(a["side"], a["bound"])] for a in result.stats]
        cnfs.clear()
    assert {key: [(a["side"], a["bound"], a["vars"], a["clauses"], a["conflicts"], a["sat"])
                  for a in result.stats] for key, result in results.items()} == RELAY_LEDGER
    assert digests == RELAY_CNF_SHA256


def test_no_clause_list_is_shared(monkeypatch):
    # a solver owns the clause lists it is given and reorders their literals,
    # which is sound only if the encoder builds every clause as a list of its
    # own: no list object appears twice in one CNF, nor in two CNFs of the
    # ledger's attempts.  Every CNF is kept alive, so no id is reused
    cnfs = []
    for _ in relay_ledger_runs(monkeypatch, lambda enc: cnfs.append(enc.clauses)):
        pass
    assert len(cnfs) == sum(map(len, RELAY_LEDGER.values()))
    assert all(len(set(map(id, cnf))) == len(cnf) for cnf in cnfs)
    ids = [id(c) for cnf in cnfs for c in cnf]
    assert len(set(ids)) == len(ids)


def test_emit_dimacs():
    text = emit_dimacs(SynthesisProblem(parse_formula("G (r -> F g)"), AP_RG), 2)
    assert text.startswith("p cnf ")
    lines = text.strip().splitlines()
    nv, nc = int(lines[0].split()[2]), int(lines[0].split()[3])
    assert nv > 0 and nc == len(lines) - 1


def test_emit_dimacs_independent_of_hash_seed():
    # two emitted outputs in one cube: their literal order once followed set
    # iteration.  Each process also builds the conjuncts of a specification
    # beforehand, in its own order: its search and machine must not follow
    # which formulas the process built first.
    code = ("import sys\n"
            "from liveupdate.machine import serialize_machine\n"
            "from liveupdate.parser import parse_formula\n"
            "from liveupdate.sat import to_dimacs\n"
            "from liveupdate.automata import _conjunct_automata\n"
            "from liveupdate.synthesis import SynthesisProblem, _Encoder, synth_ltl\n"
            "from liveupdate.traces import APTable\n"
            "for text in sys.argv[2:]:\n"
            "    parse_formula(text)\n"
            "ap = APTable(('r1',), ('g1', 'g2'))\n"
            "spec = parse_formula('G (r1 -> X (g1 && g2))')\n"
            "enc = _Encoder(_conjunct_automata(spec), ap, 1, 'moore')\n"
            "print(to_dimacs(enc.nv, enc.clauses))\n"
            "res = synth_ltl(SynthesisProblem(parse_formula(sys.argv[1]), ap))\n"
            "print([{k: v for k, v in a.items() if k != 'time'} for a in res.stats])\n"
            "print(serialize_machine(res.machine))\n")
    conjuncts = ["G (r1 -> F (g1 && g2))", "G (g1 -> X !g1)", "G (!r1 -> X !g2)"]
    histories = [[], conjuncts, conjuncts[::-1] + ["X !g1", "F (g1 && g2)"]]
    env = {**os.environ, "PYTHONPATH": str(Path(synthesis.__file__).parents[1])}
    outs = {subprocess.run([sys.executable, "-c", code, " && ".join(conjuncts), *history],
                           env={**env, "PYTHONHASHSEED": str(seed)},
                           capture_output=True, text=True, check=True).stdout
            for seed in (0, 1, 2) for history in histories}
    assert len(outs) == 1


def test_results_independent_of_addresses():
    # formulas hash by identity, so the iteration order of a set of formulas
    # follows memory addresses.  Junk objects of many sizes, allocated before
    # the import and between rows, move those addresses; no CNF, search or
    # result may follow them.
    code = ("import hashlib, sys\n"
            "n = int(sys.argv[1])\n"
            "junk = [bytes(i % 160) for i in range(n)]\n"
            "from liveupdate import sat, synthesis\n"
            "from liveupdate.benchmarks import TABLE1_ROWS, update_pair\n"
            "from liveupdate.machine import serialize_machine\n"
            "from liveupdate.synthesis import SynthesisProblem, synth_finite_live, synth_ltl, "
            "synth_universal_live\n"
            "from liveupdate.traces import parse_trace\n"
            "build = synthesis._Encoder._build\n"
            "def digested(enc):\n"
            "    build(enc)\n"
            "    print(hashlib.sha256(sat.to_dimacs(enc.nv, enc.clauses).encode()).hexdigest())\n"
            "synthesis._Encoder._build = digested\n"
            "def show(r):\n"
            "    env = r.certificate\n"
            "    print(r.outcome, r.reason, r.per_obligation)\n"
            "    print([{k: v for k, v in a.items() if k != 'time'} for a in r.stats])\n"
            "    print(serialize_machine(r.machine) if r.machine else sorted(\n"
            "        (t, sorted(o), sorted(i), t2) for (t, o), (i, t2) in env.table.items()))\n"
            "    junk.extend(bytes(i % 160) for i in range(n))\n"
            "for key in ('arbiter:2s->2f', 'abp-receiver:1->2', 'load-balancer:2->4'):\n"
            "    row = next(r for r in TABLE1_ROWS if r.key == key)\n"
            "    bi, bu, ap = update_pair(row.initial, row.update)\n"
            "    initial = synth_ltl(SynthesisProblem(bi.spec, bi.ap))\n"
            "    show(initial)\n"
            "    show(synth_universal_live(initial.machine, bi.spec, bu.spec, ap))\n"
            "bi, bu, ap = update_pair(('relay', 2), ('relay', 1))\n"
            "show(synth_finite_live(bi.spec, bu.spec, parse_trace(sys.argv[2]), ap))\n")
    execution = next(text for text in RELAY_LEDGER if text != "universal")
    env = {**os.environ, "PYTHONPATH": str(Path(synthesis.__file__).parents[1])}
    outs = {subprocess.run([sys.executable, "-c", code, str(n), execution], env=env,
                           capture_output=True, text=True, check=True).stdout
            for n in (0, 1000, 100000)}
    assert len(outs) == 1


def _found(result):
    machine = None if result.machine is None else serialize_machine(result.machine)
    env = result.certificate
    return result.outcome, machine, env and (env.k, env.initial, env.table)


def test_pairs_find_what_the_attempts_find_alone(monkeypatch):
    # with _ENV_DEFER_STATES at 0 every attempt runs alone, all system bounds
    # first: the winner, and so the machine or certificate, is the same
    bi, bu, ap = update_pair(("arbiter-simple", 2), ("arbiter-full", 2))
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    problems = [SynthesisProblem(f_and((o, bu.spec)), ap, cap=4)
                for o in reachable_obligations(cut_from_phi(bi.spec, ts_i))]
    rng = random.Random(1703)
    problems += [SynthesisProblem(f_and([random_formula(rng, ["r", "g"], 3) for _ in range(2)]),
                                  AP_RG, cap=3) for _ in range(60)]
    paired = [_found(synth_ltl(p)) for p in problems]
    synthesis._SYNTH.clear()
    synthesis._CLASSES.clear()
    monkeypatch.setattr(synthesis, "_ENV_DEFER_STATES", 0)
    assert [_found(synth_ltl(p)) for p in problems] == paired
    assert {"realizable", "unrealizable"} <= {outcome for outcome, _, _ in paired}


def _first_models(problem):
    """What each side's attempts find run alone, in bound order, each to its
    budget: the first machine, or else the first environment strategy."""
    sides = [("system", [b for b in problem.bounds if b <= problem.cap],
              synthesis._SYS_CONFLICTS, _conjunct_automata(problem.spec)),
             ("environment", range(1, problem.cap + 1), synthesis._ENV_CONFLICTS,
              _conjunct_automata(neg(problem.spec), max_states=synthesis._ENV_MAX_STATES))]
    for side, bounds, budget, automata in sides:
        for i, k in enumerate(bounds):
            attempt = synthesis._Attempt(side, k, budget * 2 ** i, automata)
            if not attempt.run(problem, attempt.budget):
                continue
            if side == "system":
                return _found(SynthesisResult("realizable",
                                              machine=attempt.enc.extract_moore(attempt.model)))
            return _found(SynthesisResult("unrealizable",
                                          certificate=attempt.enc.extract_env(attempt.model)))
    return _found(SynthesisResult("unknown"))


def test_race_keeps_each_sides_first_model():
    # a continued solve decides as one solve does, and no specification has
    # both a machine and an environment strategy: racing the attempts finds
    # what running them one after the other finds
    inst = family("arbiter-full", 2)
    # abp-receiver:1->2's obligations: in the realizable one, e1 races s2,
    # s3 and s4, and s4 wins; in the other, e1 wins
    bi, bu, ap = update_pair(("abp-receiver", 1), ("abp-receiver", 2))
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    problems = ([SynthesisProblem(spec, AP_RG, cap=3) for spec in random_specs()]
                + [SynthesisProblem(inst.spec, inst.ap, cap=4)]
                + [SynthesisProblem(f_and((o, bu.spec)), ap, cap=4)
                   for o in reachable_obligations(cut_from_phi(bi.spec, ts_i))])
    found = []
    for p in problems:  # searched afresh: abp-receiver(2) renames arbiter-full(2)
        synthesis._SYNTH.clear()
        synthesis._CLASSES.clear()
        found.append(_found(synth_ltl(p)))
    assert found == [_first_models(p) for p in problems]
    assert {"realizable", "unrealizable"} <= {outcome for outcome, _, _ in found}


def test_stopped_attempt_is_recorded():
    # the load-balancer:2->3 conjunction (its cut's obligations and the
    # update specification): s3 wins while e2 runs beside it; e2 is stopped,
    # having spent no more conflicts than s3, and e3 never starts
    bi, bu, ap = update_pair(("load-balancer", 2), ("load-balancer", 3))
    ts_i = synth_ltl(SynthesisProblem(bi.spec, bi.ap)).machine
    result = synth_universal_live(ts_i, bi.spec, bu.spec, ap)
    assert result.outcome == "realizable"
    *_, won, stopped = result.stats
    assert (won["side"], won["bound"], won["sat"]) == ("system", 3, True)
    assert (stopped["side"], stopped["bound"]) == ("environment", 2)
    assert stopped["sat"] is None and stopped["timeout"] is False
    assert 0 < stopped["conflicts"] <= won["conflicts"] < stopped["budget"]
    assert stopped.keys() == won.keys()
    assert ("environment", 3) not in {(a["side"], a["bound"]) for a in result.stats}


def test_attempt_behind_runs_until_it_is_ahead(monkeypatch):
    # arbiter-full(2): e1 races s2, then s3 as each ends without a machine,
    # then s4, which wins after e1 ends; e1 never runs alone, and e2 never
    # starts.  Each run of the attempt behind takes it just past the other.
    runs = []  # (solver, conflicts before the run, conflicts after it)
    solve = sat.Solver.solve

    def logged(self, *args, **kwargs):
        before = self.conflicts
        try:
            return solve(self, *args, **kwargs)
        finally:
            runs.append((self, before, self.conflicts))

    monkeypatch.setattr(sat.Solver, "solve", logged)
    inst = family("arbiter-full", 2)
    result = synth_ltl(SynthesisProblem(inst.spec, inst.ap, cap=4))
    assert result.outcome == "realizable"
    assert [(a["side"], a["bound"]) for a in result.stats] == [
        ("system", 1), ("system", 2), ("system", 3), ("environment", 1), ("system", 4)]
    assert not any(a["timeout"] for a in result.stats)
    # each attempt's CNF has its own number of variables
    attempt = {s: (a["side"], a["bound"]) for a in result.stats for s, _, _ in runs
               if s.nvars == a["vars"]}
    assert len(attempt) == len(set(attempt.values())) == len(result.stats)
    e1 = [i for i, (s, _, _) in enumerate(runs) if attempt[s] == ("environment", 1)]
    assert len(e1) > 1
    for i in e1:  # the attempt that runs next is the one beside it
        beside, before, _ = runs[i + 1]
        assert attempt[beside][0] == "system"
        assert runs[i][2] <= before + 1
    assert [attempt[s] for s, _, _ in runs].count(("system", 1)) == 1
