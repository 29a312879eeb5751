"""Bounded synthesis of Moore machines from LTL, and live synthesis on top.

The encoder follows the classic bounded-synthesis recipe: view the automaton
of the negated specification as a universal co-Buchi condition, guess a
machine of size k together with an annotation of the product (reachability
plus a bounded count of rejecting visits), and hand the constraints to a SAT
solver.  Top-level conjuncts of the specification are encoded against
separate small automata instead of one product automaton.

Unrealizability is established by the dual search: a Mealy environment
reading the system's outputs and picking inputs so that every resulting trace
violates the specification.  System and environment bounds are interleaved;
the first side to find a machine wins, and every winner is re-verified by the
corresponding model checker before being reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .automata import BudgetError, BuchiAutomaton, accepting_lasso, ltl_to_nba, mc_ltl
from .formula import Formula, f_and, neg
from .machine import MooreMachine
from .modelcheck import LiveProblem, mc_finite_live, mc_obligations
from .monitor import cut_from_phi, reachable_obligations
from .rewrite import evolve
from .sat import Solver, solve_external, to_dimacs
from .traces import APTable, Cube, FiniteTrace, LassoTrace, Letter, all_letters

__all__ = [
    "SynthesisProblem",
    "SynthesisResult",
    "EnvMachine",
    "synth_ltl",
    "synth_finite_live",
    "synth_universal_live",
    "DEFAULT_BOUNDS",
]

DEFAULT_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16)


@dataclass
class SynthesisProblem:
    spec: Formula
    ap: APTable
    bounds: tuple[int, ...] = DEFAULT_BOUNDS
    cap: int = 16
    time_budget: float | None = None
    solver: str = "internal"  # or a path to a DIMACS solver binary

    def __post_init__(self):
        self.ap.check_formula(self.spec)
        if not self.bounds or self.cap < self.bounds[0] or self.bounds[0] < 1:
            raise ValueError("bound schedule must start at >= 1 and stay within the cap")


class EnvMachine:
    """Mealy environment strategy: reads the system's output letter, picks an
    input letter.  Serves as an unrealizability certificate."""

    def __init__(self, ap: APTable, k: int, initial: int,
                 table: dict[tuple[int, Letter], tuple[Letter, int]]):
        self.ap = ap
        self.k = k
        self.initial = initial
        self.table = table

    def move(self, state: int, out_letter: Letter) -> tuple[Letter, int]:
        return self.table[(state, frozenset(out_letter))]

    def __len__(self) -> int:
        return self.k


@dataclass
class SynthesisResult:
    outcome: str  # "realizable" | "unrealizable" | "unknown"
    machine: MooreMachine | None = None
    certificate: EnvMachine | None = None
    stats: list[dict] = field(default_factory=list)
    per_obligation: list[dict] = field(default_factory=list)

    @property
    def realizable(self) -> bool:
        return self.outcome == "realizable"


def _conjuncts(f: Formula) -> list[Formula]:
    return list(f.children) if f.kind == "and" else [f]


class _Encoder:
    """CNF encoding of one bounded-synthesis instance.

    ``mode`` is "moore" (synthesize the system: outputs on states, inputs
    read) or "mealy-env" (synthesize the environment: inputs on edges,
    outputs read).
    """

    def __init__(self, automata: list[BuchiAutomaton], ap: APTable, k: int, mode: str):
        self.automata = automata
        self.ap = ap
        self.k = k
        self.kcount = max(3, k)  # bound on the rejecting visits counted per product state
        self.mode = mode
        self.read = all_letters(ap.inputs if mode == "moore" else ap.outputs)
        self.emit = ap.outputs if mode == "moore" else ap.inputs
        self.nv = 0
        self.clauses: list[list[int]] = []
        self._build()

    def newvar(self) -> int:
        self.nv += 1
        return self.nv

    def _build(self) -> None:
        k, read = self.k, self.read
        self.trans = {
            (t, a): [self.newvar() for _ in range(k)] for t in range(k) for a in read
        }
        if self.mode == "moore":
            self.out = {(t, o): self.newvar() for t in range(k) for o in self.emit}
        else:
            self.out = {
                (t, a, o): self.newvar() for t in range(k) for a in read for o in self.emit
            }
        for t in range(k):
            for a in read:
                row = self.trans[(t, a)]
                self.clauses.append(list(row))
                for i in range(k):
                    for j in range(i + 1, k):
                        self.clauses.append([-row[i], -row[j]])
        for nba in self.automata:
            self._encode_automaton(nba)

    def _out_conditions(self, t: int, a: Letter, cube: Cube) -> list[int] | None:
        """Literals that must hold for the emitted half of the letter to match
        the cube; None if the read half already contradicts it."""
        readset = frozenset(self.ap.inputs if self.mode == "moore" else self.ap.outputs)
        if not (cube.pos & readset) <= a or cube.neg & readset & a:
            return None
        # literals in ``emit`` order, so the CNF does not depend on string hashing
        return [self._outvar(t, a, o) if o in cube.pos else -self._outvar(t, a, o)
                for o in self.emit if o in cube.pos or o in cube.neg]

    def _outvar(self, t: int, a: Letter, o: str) -> int:
        return self.out[(t, o)] if self.mode == "moore" else self.out[(t, a, o)]

    def _encode_automaton(self, nba: BuchiAutomaton) -> None:
        k, K = self.k, self.kcount
        n = len(nba.labels)
        if n == 0 or not nba.initial:
            return
        reach = {(t, q): self.newvar() for t in range(k) for q in range(n)}
        cnt = {(t, q): [self.newvar() for _ in range(K)] for t in range(k) for q in range(n)}
        for t in range(k):
            for q in range(n):
                chain = cnt[(t, q)]
                for c in range(K - 1):
                    self.clauses.append([-chain[c + 1], chain[c]])
        for q0 in nba.initial:
            self.clauses.append([reach[(0, q0)]])
            if q0 in nba.accepting:
                self.clauses.append([cnt[(0, q0)][0]])
        for t in range(k):
            for q in range(n):
                for a in self.read:
                    for cube, q2 in nba.edges[q]:
                        outcond = self._out_conditions(t, a, cube)
                        if outcond is None:
                            continue
                        inc = q2 in nba.accepting
                        for t2 in range(k):
                            ante = [-reach[(t, q)], -self.trans[(t, a)][t2]]
                            ante += [-lit for lit in outcond]
                            self.clauses.append(ante + [reach[(t2, q2)]])
                            chain, chain2 = cnt[(t, q)], cnt[(t2, q2)]
                            if inc:
                                self.clauses.append(ante + [chain2[0]])
                                for c in range(K - 1):
                                    self.clauses.append(ante + [-chain[c], chain2[c + 1]])
                                self.clauses.append(ante + [-chain[K - 1]])
                            else:
                                for c in range(K):
                                    self.clauses.append(ante + [-chain[c], chain2[c]])

    def solve(self, solver: str, deadline: float | None) -> set[int] | None:
        budget = None if deadline is None else max(0.1, deadline - time.monotonic())
        if solver == "internal":
            s = Solver()
            for _ in range(self.nv):
                s.new_var()
            for c in self.clauses:
                s.add_clause(c)
            got = s.solve(time_budget=budget)
            if got is None:
                raise TimeoutError("solver budget exhausted")
            return s.model() if got else None
        sat, model = solve_external(solver, self.nv, self.clauses, timeout=budget)
        if sat is None:
            raise RuntimeError("external solver produced no verdict")
        return model if sat else None

    # -- model extraction ------------------------------------------------

    def extract_moore(self, model: set[int]) -> MooreMachine:
        names = [f"s{t}" for t in range(self.k)]
        outputs = [
            frozenset(o for o in self.emit if self.out[(t, o)] in model)
            for t in range(self.k)
        ]
        inputs = frozenset(self.ap.inputs)
        edges = []
        for t in range(self.k):
            row = []
            for a in self.read:
                dst = next(t2 for t2, v in enumerate(self.trans[(t, a)]) if v in model)
                row.append((Cube(a, inputs - a), dst))
            edges.append(row)
        return MooreMachine(self.ap, names, 0, outputs, edges)

    def extract_env(self, model: set[int]) -> EnvMachine:
        table = {}
        for t in range(self.k):
            for a in self.read:
                dst = next(t2 for t2, v in enumerate(self.trans[(t, a)]) if v in model)
                emit = frozenset(o for o in self.emit if self.out[(t, a, o)] in model)
                table[(t, a)] = (emit, dst)
        return EnvMachine(self.ap, self.k, 0, table)


def env_counterexample(env: EnvMachine, nba: BuchiAutomaton) -> LassoTrace | None:
    """An accepting trace of the product of an environment strategy with an
    automaton, quantifying over all output letters; None if there is none."""
    read = all_letters(env.ap.outputs)

    def successors(node: tuple[int, int]) -> list[tuple[Letter, tuple[int, int]]]:
        e, q = node
        out = []
        for a in read:
            emit, e2 = env.move(e, a)
            letter = a | emit
            out.extend((letter, (e2, q2)) for cube, q2 in nba.edges[q] if cube.matches(letter))
        return out

    found = accepting_lasso([(env.initial, q) for q in nba.initial], successors,
                            lambda node: node[1] in nba.accepting)
    if found is None:
        return None
    prefix, loop = found
    return LassoTrace(tuple(l for l, _ in prefix), tuple(l for l, _ in loop))


def _conjunct_automata(f: Formula, max_states: int = 20000) -> list[BuchiAutomaton]:
    """One automaton per top-level conjunct of ``f``, for its negation; the
    empty ones (conjuncts that always hold) are dropped."""
    out = []
    for c in _conjuncts(f):
        nba = ltl_to_nba(neg(c), max_states=max_states)
        if len(nba.labels) and nba.initial:
            out.append(nba)
    return out


_ENV_DEFER_STATES = 120  # defer dual attempts while their automaton is this big
_ENV_MAX_STATES = 4000  # give up on the dual search beyond this automaton size


def synth_ltl(problem: SynthesisProblem) -> SynthesisResult:
    """Bounded synthesis with system/environment alternation.

    Realizable results carry a machine already re-verified by the model
    checker; unrealizable results carry a verified environment strategy.
    Each round tries the next system bound, then the next environment bound
    1,2,3,...; the environment automaton (for the whole specification) is
    built lazily, and while it is large the dual attempts are deferred to a
    second phase so that realizable instances are not taxed by it.
    """
    spec = problem.spec
    deadline = None if problem.time_budget is None else time.monotonic() + problem.time_budget
    sys_automata = _conjunct_automata(spec)
    lazy: dict = {}

    def env_automata() -> list[BuchiAutomaton] | None:
        """Automata for the dual search, or None when they blow the budget."""
        if "env" not in lazy:
            try:
                lazy["env"] = _conjunct_automata(neg(spec), max_states=_ENV_MAX_STATES)
            except BudgetError:
                lazy["env"] = None
        return lazy["env"]

    def spec_nba() -> BuchiAutomaton:
        if "spec" not in lazy:
            lazy["spec"] = ltl_to_nba(spec)
        return lazy["spec"]

    stats: list[dict] = []
    sys_bounds = [b for b in problem.bounds if b <= problem.cap]
    env_bounds = list(range(1, problem.cap + 1))

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() > deadline

    def attempt(side: str, k: int, slice_s: float | None) -> SynthesisResult | None:
        """One bounded attempt.  A slice that runs out just abandons the
        attempt (recorded as inconclusive): skipping a bound is sound because
        unreachable padding states make solutions monotone in the bound."""
        local = None
        if slice_s is not None:
            local = time.monotonic() + slice_s
        if deadline is not None:
            local = deadline if local is None else min(local, deadline)
        t0 = time.monotonic()
        try:
            if side == "system":
                enc = _Encoder(sys_automata, problem.ap, k, "moore")
            else:
                enc = _Encoder(env_automata(), problem.ap, k, "mealy-env")
            model = enc.solve(problem.solver, local)
        except TimeoutError:
            stats.append({"side": side, "bound": k, "time": time.monotonic() - t0,
                          "sat": None, "timeout": True})
            return None
        stats.append({"side": side, "bound": k, "vars": enc.nv,
                      "clauses": len(enc.clauses), "time": time.monotonic() - t0,
                      "sat": model is not None})
        if model is None:
            return None
        if side == "system":
            machine = enc.extract_moore(model)
            if not mc_ltl(machine, spec).passed:
                raise AssertionError("internal error: synthesized machine failed verification")
            return SynthesisResult("realizable", machine=machine, stats=stats)
        env = enc.extract_env(model)
        if env_counterexample(env, spec_nba()) is not None:
            raise AssertionError("internal error: environment certificate failed verification")
        return SynthesisResult("unrealizable", certificate=env, stats=stats)

    deferred: list[int] = []
    for i in range(max(len(sys_bounds), len(env_bounds))):
        if out_of_time():
            return SynthesisResult("unknown", stats=stats)
        if i < len(sys_bounds):
            got = attempt("system", sys_bounds[i], 4.0 * (2 ** i))
            if got is not None:
                return got
        if i < len(env_bounds):
            autos = env_automata()
            if autos is None or sum(len(a.labels) for a in autos) > _ENV_DEFER_STATES:
                deferred.append(env_bounds[i])
                continue
            if out_of_time():
                return SynthesisResult("unknown", stats=stats)
            got = attempt("environment", env_bounds[i], 2.0 * (2 ** i))
            if got is not None:
                return got
    for i, k in enumerate(deferred):
        if out_of_time() or env_automata() is None:
            return SynthesisResult("unknown", stats=stats)
        got = attempt("environment", k, 2.0 * (2 ** i))
        if got is not None:
            return got
    return SynthesisResult("unknown", stats=stats)


def synth_finite_live(phi: Formula, psi: Formula, eta: FiniteTrace, ap: APTable,
                      **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after the recorded execution:
    plain synthesis of the residual obligation conjoined with the update
    specification, re-verified by the finite-trace model checker."""
    obligation = evolve(eta, phi)
    problem = SynthesisProblem(f_and((obligation, psi)), ap, **kwargs)
    result = synth_ltl(problem)
    if result.realizable:
        check = mc_finite_live(result.machine, LiveProblem(phi, psi, ap, eta=eta))
        if not check.passed:
            raise AssertionError("internal error: finite-trace update failed verification")
    return result


def synth_universal_live(ts_i: MooreMachine, phi: Formula, psi: Formula, ap: APTable,
                         monitor_budget: int = 10000, **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after every finite execution of the
    initial system.

    The obligations reachable in the cut monitor are conjoined with the
    update specification for the universal result; each obligation is also
    solved individually, giving the per-context realizability table.
    """
    ap.check_formula(phi)
    obligations = reachable_obligations(cut_from_phi(phi, ts_i, max_states=monitor_budget))
    table = []
    for o in obligations:
        sub = synth_ltl(SynthesisProblem(f_and((o, psi)), ap, **kwargs))
        table.append({"obligation": str(o), "outcome": sub.outcome})
    universal = synth_ltl(SynthesisProblem(f_and(list(obligations) + [psi]), ap, **kwargs))
    universal.per_obligation = table
    if universal.realizable:
        check = mc_obligations(universal.machine, obligations, psi)
        if not check.passed:
            raise AssertionError("internal error: universal update failed verification")
    return universal


def emit_dimacs(problem: SynthesisProblem, k: int, side: str = "system") -> str:
    """CNF for one bound, for use with external solvers."""
    automata = _conjunct_automata(problem.spec if side == "system" else neg(problem.spec))
    enc = _Encoder(automata, problem.ap, k, "moore" if side == "system" else "mealy-env")
    return to_dimacs(enc.nv, enc.clauses)
