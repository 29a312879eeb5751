import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from liveupdate.automata import _NBA, BudgetError, ltl_to_nba, mc_ltl
from liveupdate.benchmarks import TABLE1_ROWS, family, update_pair
from liveupdate.formula import f_and, neg, t_true
from liveupdate.modelcheck import LiveProblem, mc_finite_live
from liveupdate.monitor import build_monitor, cut_from_phi, reachable_obligations
from liveupdate.parser import parse_formula
from liveupdate import monitor, sat, synthesis
from liveupdate.synthesis import (
    SynthesisProblem,
    SynthesisResult,
    _Encoder,
    _conjunct_automata,
    emit_dimacs,
    env_counterexample,
    synth_finite_live,
    synth_ltl,
    synth_universal_live,
)
from liveupdate.traces import APTable, Cube, parse_trace

from gen import random_formula


def L(*names):
    return frozenset(names)


AP_RG = APTable(("r",), ("g",))


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


def test_monotone_in_bound():
    spec = parse_formula("G (r -> X g) && G (!r -> X !g)")
    res = synth_ltl(SynthesisProblem(spec, AP_RG))
    assert res.realizable
    k = len(res.machine)
    for k2 in (k + 1, k + 2):
        enc = _Encoder(_conjunct_automata(spec), AP_RG, k2, "moore")
        assert enc.solve("internal", None) is not None


@pytest.mark.parametrize("side", ["moore", "mealy-env"])
def test_every_satisfiable_attempt_decodes_to_a_verified_winner(side):
    # each bound of each side on its own, not just the attempt that synth_ltl keeps
    rng = random.Random(4242)
    for _ in range(60):
        spec = f_and([random_formula(rng, ["r", "g"], 3) for _ in range(2)])
        automata = _conjunct_automata(spec if side == "moore" else neg(spec))
        for k in (1, 2, 3):
            enc = _Encoder(automata, AP_RG, k, side)
            model = enc.solve("internal", None)
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

    def slow_solve(self, solver, deadline, conflict_budget):
        starts.append(now[0] - 100.0)
        now[0] += 3.0
        return None

    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(_Encoder, "solve", slow_solve)
    relay1 = family("relay", 1)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec,
                                  relay2.ap.union(relay1.ap), deadline=110.0)
    assert starts == [0.0, 3.0, 6.0, 9.0]
    assert result.outcome == "unknown"
    assert result.reason == "the deadline passed before the system attempt at bound 3"
    assert [e["outcome"] for e in result.per_obligation] == ["unknown"] * 7


@pytest.mark.parametrize("defer_states,order", [
    (120, [("moore", 1, 4096), ("mealy-env", 1, 512), ("moore", 2, 8192),
           ("mealy-env", 2, 1024), ("moore", 3, 16384), ("mealy-env", 3, 2048)]),
    (0, [("moore", 1, 4096), ("moore", 2, 8192), ("moore", 3, 16384),
         ("mealy-env", 1, 512), ("mealy-env", 2, 1024), ("mealy-env", 3, 2048)]),
])
def test_attempt_order(monkeypatch, defer_states, order):
    # (mode, bound, conflict budget) of each attempt, on a frozen clock
    attempts = []

    def unsat(self, solver, deadline, conflict_budget):
        attempts.append((self.mode, self.k, conflict_budget))
        return None

    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: 100.0))
    monkeypatch.setattr(synthesis, "_ENV_DEFER_STATES", defer_states)
    monkeypatch.setattr(_Encoder, "solve", unsat)
    result = synth_ltl(SynthesisProblem(parse_formula("G (r -> X g)"), AP_RG, cap=3))
    assert result.outcome == "unknown"
    assert attempts == order
    assert [a["budget"] for a in result.stats] == [b for _, _, b in order]


def test_search_path_does_not_depend_on_the_clock(monkeypatch):
    # without a deadline, a clock that advances 10 s per reading gives the
    # attempts of a frozen clock, conflicts included
    inst = family("arbiter-full", 2)
    runs = []
    for step in (0.0, 10.0):
        now = [100.0]

        def monotonic(step=step):
            now[0] += step
            return now[0]

        clock = SimpleNamespace(monotonic=monotonic)
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

    def slow_unsat(self, solver, deadline, conflict_budget):
        now[0] += 3.0
        return None

    monkeypatch.setattr(synthesis, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(_Encoder, "solve", slow_unsat)
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
    monkeypatch.setattr(_Encoder, "solve", lambda self, solver, deadline, budget: None)
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


def test_finite_live_checks_inputs_before_synthesis(monkeypatch):
    problems = []

    def record(problem):
        problems.append(problem)
        return SynthesisResult("unknown")

    monkeypatch.setattr(synthesis, "synth_ltl", record)
    with pytest.raises(ValueError, match="undeclared"):
        synth_finite_live(t_true(), parse_formula("G F g"), (L("x"),), AP_RG)
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


def test_corrupted_certificate_fails_verification(monkeypatch):
    extract = _Encoder.extract_env

    def always_request(self, model):
        env = extract(self, model)
        env.table = {key: (frozenset(self.ap.inputs), dst) for key, (_, dst) in env.table.items()}
        return env

    monkeypatch.setattr(_Encoder, "extract_env", always_request)
    with pytest.raises(AssertionError, match="environment certificate failed verification"):
        synth_ltl(SynthesisProblem(parse_formula("F r"), AP_RG))


def test_env_automaton_budget_gives_unknown(monkeypatch):
    def budgeted(f, max_states=20000):
        if max_states == synthesis._ENV_MAX_STATES:
            raise BudgetError("forced")
        return ltl_to_nba(f, max_states)

    monkeypatch.setattr(synthesis, "ltl_to_nba", budgeted)
    spec = parse_formula("G (r -> X g) && G (r -> X !g)")
    result = synth_ltl(SynthesisProblem(spec, AP_RG, bounds=(1, 2), cap=2))
    assert result.outcome == "unknown"
    assert [s["side"] for s in result.stats] == ["system", "system"]
    assert result.reason == ("no machine up to bound 2, and the environment automata exceed "
                             "their budget: 0 of 2 attempts ran out of their conflict budget")


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


def test_emit_dimacs():
    text = emit_dimacs(SynthesisProblem(parse_formula("G (r -> F g)"), AP_RG), 2)
    assert text.startswith("p cnf ")
    lines = text.strip().splitlines()
    nv, nc = int(lines[0].split()[2]), int(lines[0].split()[3])
    assert nv > 0 and nc == len(lines) - 1


def test_emit_dimacs_independent_of_hash_seed():
    # two emitted outputs in one cube: their literal order once followed set iteration
    code = ("from liveupdate.parser import parse_formula\n"
            "from liveupdate.synthesis import SynthesisProblem, emit_dimacs\n"
            "from liveupdate.traces import APTable\n"
            "spec = parse_formula('G (r1 -> X (g1 && g2))')\n"
            "print(emit_dimacs(SynthesisProblem(spec, APTable(('r1',), ('g1', 'g2'))), 1))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(synthesis.__file__).parents[1])}
    outs = {subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": str(seed)},
                           capture_output=True, text=True, check=True).stdout
            for seed in (0, 1, 2)}
    assert len(outs) == 1
