"""Cross-module invariants beyond the acceptance suites."""

import random
import time

import pytest

from liveupdate.benchmarks import family
from liveupdate.modelcheck import LiveProblem, mc_finite_live, mc_universal_live
from liveupdate.semantics import eval_initial, words_membership
from liveupdate.synthesis import SynthesisProblem, synth_ltl, synth_universal_live
from liveupdate.traces import APTable, LassoTrace

from gen import fin_traces, random_formula, random_machine, random_trace


def test_initial_semantics_degenerates_at_zero():
    rng = random.Random(31)
    for _ in range(200):
        f = random_formula(rng, ["a", "b"], 3)
        sig = LassoTrace((), tuple(
            frozenset(x for x in ("a", "b") if rng.random() < 0.5) for _ in range(2)))
        if f.kind == "R":
            assert eval_initial(0, sig, 0, f)


def test_witness_replay_violates_membership():
    rng = random.Random(32)
    ap = APTable(("x",), ("y",))
    found = 0
    for _ in range(80):
        phi = random_formula(rng, ["x", "y"], 2)
        psi = random_formula(rng, ["x", "y"], 2)
        eta = random_trace(rng, ["x", "y"], 3)
        ts_u = random_machine(rng, ap, 2)
        verdict = mc_finite_live(ts_u, LiveProblem(phi, psi, ap, eta=eta))
        if not verdict.passed:
            found += 1
            assert not words_membership(phi, psi, eta, verdict.witness.lasso)
    assert found > 10


def test_universal_realizable_implies_finite_samples(fig1_machine, relay2):
    relay1 = family("relay", 1)
    ap = relay2.ap.union(relay1.ap)
    result = synth_universal_live(fig1_machine, relay2.spec, relay1.spec, ap,
                                  deadline=time.monotonic() + 300)
    assert result.realizable
    assert mc_universal_live(result.machine, LiveProblem(relay2.spec, relay1.spec, ap,
                                                         ts_i=fig1_machine)).passed
    for eta in sorted(fin_traces(fig1_machine, 2)):
        p = LiveProblem(relay2.spec, relay1.spec, ap, eta=eta)
        assert mc_finite_live(result.machine, p).passed


def test_plain_update_machine_misses_pending_duties(fig1_machine, relay2):
    # synthesizing the shrunk specification alone ignores the obligations;
    # such an update drops pending station-1 instructions and fails the
    # universal check
    relay1 = family("relay", 1)
    plain = synth_ltl(SynthesisProblem(relay1.spec, relay1.ap, deadline=time.monotonic() + 120))
    assert plain.realizable
    ap = relay2.ap.union(relay1.ap)
    p = LiveProblem(relay2.spec, relay1.spec, ap, ts_i=fig1_machine)
    verdict = mc_universal_live(plain.machine, p)
    assert not verdict.passed
    assert verdict.failing_obligation is not None


def test_external_solver_missing_path():
    from liveupdate.sat import solve_external
    with pytest.raises(FileNotFoundError):
        solve_external("/no/such/solver-binary", 1, [[1]])
