import os
import random
import subprocess
import sys
from pathlib import Path

from liveupdate.automata import BudgetError, ltl_to_nba, mc_ltl
from liveupdate.benchmarks import family
from liveupdate.formula import t_true
from liveupdate.modelcheck import LiveProblem, mc_finite_live
from liveupdate.monitor import build_monitor
from liveupdate.parser import parse_formula
from liveupdate import monitor, synthesis
from liveupdate.synthesis import (
    SynthesisProblem,
    _Encoder,
    _conjunct_automata,
    emit_dimacs,
    env_counterexample,
    synth_finite_live,
    synth_ltl,
    synth_universal_live,
)
from liveupdate.traces import APTable, parse_trace

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
