"""The benchmark's workloads: committed inputs, operations and output checks.

Each workload's set-up loads its committed inputs (written by ``gen.py``),
validates them and model-checks every initial machine against its
specification.  It then returns one round of operations.  An operation is one
update problem solved in process through the library's public API.  Its check
compares the answer with a computation that does not share the timed code
path: the hand-written verdicts of the regression table, the single-product
checker ``mc_universal_product`` and the lasso semantics of ``semantics``.

The timed operations do not depend on the run's seed.  The seed picks the
executions and lassos the checks sample, so two runs with the same code do the
same timed work and give the same count metrics.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from checkout import INPUTS
from liveupdate.automata import mc_ltl
from liveupdate.benchmarks import TABLE1_ROWS, family, update_pair
from liveupdate.formula import Formula, f_and
from liveupdate.machine import MooreMachine, parse_machine
from liveupdate.modelcheck import LiveProblem, mc_universal_live, mc_universal_product
from liveupdate.rewrite import evolve
from liveupdate.semantics import eval_initial, eval_ltl, words_membership
from liveupdate.synthesis import synth_finite_live, synth_universal_live
from liveupdate.traces import APTable, LassoTrace, parse_trace

# Update pairs of synth-universal, in round order: two nearby pairs, then
# regression-table rows (their expected verdicts are the table's).  The nearby
# pairs are realizable: every residual obligation of the initial
# specification is a positive combination of eventualities over outputs that
# the update specification leaves free to satisfy, and the synthesized
# machines are checked below regardless.  relay:2->1 is the one row whose time
# goes to the obligation monitor (the 66-state uncut relay(2) monitor, built
# twice).  The round has three long operations (relay:2->1 and the two
# unrealizable rows, whose 8 s slice timeouts fix most of their time) and two
# short ones, so its median latency is a long one: the ~2 s operations of
# earlier rounds put the median inside a single burst of the machine's speed.
# arbiter:2s->4s is left out: its environment attempts at k=3 take
# 5.4-5.9 s of an 8 s wall-clock slice, so a slower machine turns them into
# slice timeouts and changes the search path.
_TABLE = {r.key: r for r in TABLE1_ROWS}
SYNTH_UNIVERSAL_PAIRS: tuple[tuple[str, tuple[str, int], tuple[str, int], str], ...] = (
    ("load-balancer:2->3", ("load-balancer", 2), ("load-balancer", 3), "real"),
    ("seq-visit:3->seq-patrolling:3", ("seq-visit", 3), ("seq-patrolling", 3), "real"),
) + tuple(
    (key, _TABLE[key].initial, _TABLE[key].update, _TABLE[key].expected)
    for key in ("relay:2->1", "arbiter:2s->2f", "abp-receiver:1->2")
)

# synth-finite: recorded executions of the relay(2) machine, updated to relay(1).
FINITE_INITIAL = ("relay", 2)
FINITE_UPDATE = ("relay", 1)
EXECUTIONS_FILE = "relay-2-executions.txt"
CHECK_UNIVERSAL_FILE = "check-universal.json"

# Sampling sizes of the checks.
LASSOS_PER_MACHINE = 8
CONTINUATIONS_PER_TRACE = 8
MAX_INPUT_PREFIX = 6
MAX_INPUT_LOOP = 4


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    # None when the answer is right, else why it is wrong ("unknown" if the
    # library gave no verdict)
    check: Callable[[object, random.Random], str | None]


def machine_path(name: tuple[str, int]):
    return INPUTS / "machines" / f"{name[0]}-{name[1]}.machine"


def load_machine(path) -> MooreMachine:
    return parse_machine(path.read_text())


def load_initial(name: tuple[str, int], loaded: dict) -> tuple[MooreMachine, Formula]:
    """A committed initial machine with its specification, validated and
    model-checked against it once per set-up (``loaded`` holds the machines
    this set-up has already checked)."""
    if name in loaded:
        return loaded[name]
    inst = family(*name)
    ts_i = load_machine(machine_path(name))
    if ts_i.ap != inst.ap:
        raise ValueError(f"{machine_path(name).name}: propositions differ from {inst.name}")
    if not mc_ltl(ts_i, inst.spec).passed:
        raise ValueError(f"{machine_path(name).name} violates {inst.name}")
    loaded[name] = ts_i, inst.spec
    return loaded[name]


def _letters(rng: random.Random, props: tuple[str, ...], n: int) -> tuple[frozenset, ...]:
    return tuple(frozenset(p for p in props if rng.random() < 0.5) for _ in range(n))


def machine_lasso(rng: random.Random, m: MooreMachine) -> LassoTrace:
    ins = m.ap.inputs
    return m.lasso_for(_letters(rng, ins, rng.randrange(MAX_INPUT_PREFIX + 1)),
                       _letters(rng, ins, rng.randrange(1, MAX_INPUT_LOOP + 1)))


def machine_execution(rng: random.Random, m: MooreMachine, max_len: int = 8) -> tuple:
    return m.run(_letters(rng, m.ap.inputs, rng.randrange(max_len + 1)))


def _verdict(outcome: str) -> str:
    return {"realizable": "real", "unrealizable": "unreal"}.get(outcome, "unknown")


def _membership_error(rng: random.Random, phi: Formula, psi: Formula,
                      executions: Callable[[random.Random], tuple], ts_u: MooreMachine) -> str | None:
    """Every sampled (execution of the initial system, lasso of the update
    machine) pair lies in the update language."""
    for _ in range(LASSOS_PER_MACHINE):
        prefix = executions(rng)
        sigma = machine_lasso(rng, ts_u)
        if not words_membership(phi, psi, prefix, sigma):
            return f"update machine word outside the update language after {len(prefix)} letters"
    return None


# -- synth-universal ------------------------------------------------------------


def _synth_universal_op(loaded, key, initial, update, expected) -> Operation:
    ts_i, _ = load_initial(initial, loaded)
    bi, bu, ap = update_pair(initial, update)

    def run():
        return synth_universal_live(ts_i, bi.spec, bu.spec, ap)

    def check(result, rng):
        got = _verdict(result.outcome)
        if got == "unknown":
            return "unknown"
        if got != expected:
            return f"verdict {got}, expected {expected}"
        if result.realizable:
            oracle = mc_universal_product(ts_i, result.machine, bi.spec, bu.spec, ap)
            if not oracle.passed:
                return "synthesized machine fails mc_universal_product"
            return _membership_error(rng, bi.spec, bu.spec, lambda r: machine_execution(r, ts_i),
                                     result.machine)
        return None

    return Operation(key, run, check)


def synth_universal() -> list[Operation]:
    loaded: dict = {}
    return [_synth_universal_op(loaded, *pair) for pair in SYNTH_UNIVERSAL_PAIRS]


# -- check-universal ------------------------------------------------------------


def _check_universal_op(loaded: dict, entry: dict) -> Operation:
    initial = tuple(entry["initial"])
    update = tuple(entry["update"])
    ts_i, _ = load_initial(initial, loaded)
    bi, bu, ap = update_pair(initial, update)
    ts_u = load_machine(INPUTS / entry["candidate"])
    problem = LiveProblem(bi.spec, bu.spec, ap, ts_i=ts_i)
    if not ts_u.ap.all <= ap.all:
        raise ValueError(f"{entry['candidate']}: propositions outside the problem")

    def run():
        return mc_universal_live(ts_u, problem)

    def check(verdict, rng):
        oracle = mc_universal_product(ts_i, ts_u, bi.spec, bu.spec, ap)
        if verdict.passed != oracle.passed:
            return f"verdict {verdict.outcome}, mc_universal_product says {oracle.outcome}"
        if verdict.passed:
            return None
        w, o = verdict.witness, verdict.failing_obligation
        if w is None or o is None:
            return "failure without counterexample or obligation"
        if ts_u.lasso_for(w.input_prefix, w.input_loop) != w.lasso:
            return "counterexample is not a lasso of the candidate"
        if eval_ltl(w.lasso, 0, f_and((o, bu.spec))):
            return "counterexample satisfies obligation && psi"
        return None

    return Operation(entry["candidate"], run, check)


def check_universal() -> list[Operation]:
    entries = json.loads((INPUTS / CHECK_UNIVERSAL_FILE).read_text())
    loaded: dict = {}
    return [_check_universal_op(loaded, e) for e in entries]


# -- synth-finite ---------------------------------------------------------------


def load_executions(ts_i: MooreMachine) -> list[tuple]:
    """The committed executions, each checked to be a run of ``ts_i``."""
    traces = []
    inputs = frozenset(ts_i.ap.inputs)
    for n, line in enumerate((INPUTS / EXECUTIONS_FILE).read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        eta = parse_trace(line)
        if ts_i.run(tuple(letter & inputs for letter in eta)) != eta:
            raise ValueError(f"{EXECUTIONS_FILE}:{n}: not an execution of the relay(2) machine")
        traces.append(eta)
    return traces


def _synth_finite_op(n: int, eta: tuple, phi: Formula, psi: Formula, ap: APTable) -> Operation:
    def run():
        return evolve(eta, phi), synth_finite_live(phi, psi, eta, ap)

    def check(out, rng):
        obligation, result = out
        if result.outcome != "realizable":
            # relay(1) leaves every output eventuality a relay(2) obligation
            # can raise free to satisfy, so each problem is realizable
            return "unknown" if result.outcome == "unknown" else f"verdict {result.outcome}"
        error = _membership_error(rng, phi, psi, lambda r: eta, result.machine)
        if error:
            return error
        props = tuple(sorted(ap.all))
        for _ in range(CONTINUATIONS_PER_TRACE):
            sigma = LassoTrace(_letters(rng, props, rng.randrange(MAX_INPUT_PREFIX + 1)),
                               _letters(rng, props, rng.randrange(1, MAX_INPUT_LOOP + 1)))
            if eval_ltl(sigma, 0, obligation) != eval_initial(len(eta), sigma.prepend(eta), 0, phi):
                return "evolve disagrees with eval_initial on a continuation"
        return None

    return Operation(f"execution {n} ({len(eta)} letters)", run, check)


def synth_finite() -> list[Operation]:
    ts_i, phi = load_initial(FINITE_INITIAL, {})
    _, bu, ap = update_pair(FINITE_INITIAL, FINITE_UPDATE)
    return [_synth_finite_op(n, eta, phi, bu.spec, ap)
            for n, eta in enumerate(load_executions(ts_i), 1)]


WORKLOADS: dict[str, Callable[[], list[Operation]]] = {
    "synth-universal": synth_universal,
    "check-universal": check_universal,
    "synth-finite": synth_finite,
}
