"""Bounded synthesis of Moore machines from LTL, and live synthesis on top.

The encoder follows the classic bounded-synthesis recipe: view the automaton
of the negated specification as a universal co-Buchi condition, guess a
machine of size k together with an annotation of the product (reachability
plus a bounded count of rejecting visits), and hand the constraints to a SAT
solver.  Top-level conjuncts of the specification are encoded against
separate small automata instead of one product automaton.  Every product
cycle lies in one SCC of the automaton, so rejecting visits are counted only
inside the SCCs with a cycle through an accepting state, afresh on each
entry; an accepting state that loops on every letter is simply unreachable.

Unrealizability is established by the dual search: a Mealy environment
reading the system's outputs and picking inputs so that every resulting trace
violates the specification.  System and environment bounds are interleaved;
the first side to find a machine wins, and every winner is re-verified by the
corresponding model checker before being reported.  Each attempt has a
conflict budget of the internal solver, so the order of attempts and their
outcomes do not depend on how fast the machine is; the only clock is the
caller's deadline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import zip_longest

from .automata import (BudgetError, BuchiAutomaton, _accepting_sccs, _product_lasso, ltl_to_nba,
                       mc_ltl)
from .formula import Formula, f_and, neg
from .machine import MooreMachine
from .modelcheck import LiveProblem, mc_obligations
from .monitor import cut_from_phi, reachable_obligations
from .rewrite import evolve
from .sat import Solver, SolverError, solve_external, to_dimacs
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
    deadline: float | None = None  # a time.monotonic() value
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
    reason: str | None = None  # why an "unknown" result has no verdict

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
        self.kcount = max(3, k)  # bound on the rejecting visits counted within one accepting SCC
        self.mode = mode
        reads = ap.inputs if mode == "moore" else ap.outputs
        self.read = all_letters(reads)
        self.readset = frozenset(reads)
        self.emit = ap.outputs if mode == "moore" else ap.inputs
        self.nv = 0
        self.clauses: list[list[int]] = []
        self.conflicts: int | None = None  # spent by the internal solver in ``solve``
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
        if not (cube.pos & self.readset) <= a or cube.neg & self.readset & a:
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
        # an accepting state that loops on every letter is a violation once
        # reached: it gets no edges, and its reach variables are false
        doomed = [q for q in sorted(nba.accepting)
                  if any(q2 == q and not cube.pos and not cube.neg for cube, q2 in nba.edges[q])]
        succ = [[] if q in doomed else [q2 for _, q2 in row] for q, row in enumerate(nba.edges)]
        # every product cycle lies in one automaton SCC: count the rejecting
        # visits only inside the SCCs with a cycle through an accepting state
        scc = {q: i for i, comp in enumerate(_accepting_sccs(succ, nba.accepting.__contains__))
               for q in comp}
        counted = sorted(scc)  # state order, so the CNF does not depend on set iteration
        reach = {(t, q): self.newvar() for t in range(k) for q in range(n)}
        cnt = {(t, q): [self.newvar() for _ in range(K)] for t in range(k) for q in counted}
        for chain in cnt.values():
            for c in range(K - 1):
                self.clauses.append([-chain[c + 1], chain[c]])
        for q0 in nba.initial:
            self.clauses.append([reach[(0, q0)]])
            if q0 in scc and q0 in nba.accepting:
                self.clauses.append([cnt[(0, q0)][0]])
        for q in doomed:
            for t in range(k):
                self.clauses.append([-reach[(t, q)]])
        for t in range(k):
            for q in range(n):
                if not succ[q]:
                    continue
                for a in self.read:
                    for cube, q2 in nba.edges[q]:
                        outcond = self._out_conditions(t, a, cube)
                        if outcond is None:
                            continue
                        inside = q2 in scc and scc.get(q) == scc[q2]
                        inc = q2 in scc and q2 in nba.accepting
                        guard = [-lit for lit in outcond]
                        for t2 in range(k):
                            ante = [-reach[(t, q)], -self.trans[(t, a)][t2]] + guard
                            # a self-loop's reach clause, and without acceptance its
                            # counter clauses, are tautologies
                            loop = (t2, q2) == (t, q)
                            if not loop:
                                self.clauses.append(ante + [reach[(t2, q2)]])
                            if inc:
                                self.clauses.append(ante + [cnt[(t2, q2)][0]])
                            if not inside:  # entering an SCC starts its count afresh
                                continue
                            chain, chain2 = cnt[(t, q)], cnt[(t2, q2)]
                            if inc:
                                for c in range(K - 1):
                                    self.clauses.append(ante + [-chain[c], chain2[c + 1]])
                                self.clauses.append(ante + [-chain[K - 1]])
                            elif not loop:
                                for c in range(K):
                                    self.clauses.append(ante + [-chain[c], chain2[c]])

    def solve(self, solver: str, deadline: float | None,
              conflict_budget: int | None = None) -> set[int] | None:
        """The positive literals of a model, or None if there is none; raises
        ``TimeoutError`` when the conflict budget or the deadline runs out.
        An external solver has no conflict counter and runs under the
        deadline alone; ``SolverError`` says its answer failed the check."""
        if solver == "internal":
            s = Solver()
            for _ in range(self.nv):
                s.new_var()
            for c in self.clauses:
                s.add_clause(c)
            got = s.solve(conflict_budget=conflict_budget, deadline=deadline)
            self.conflicts = s.conflicts
            if got is None:
                raise TimeoutError("solver budget exhausted")
            return s.model() if got else None
        timeout = None if deadline is None else max(0.1, deadline - time.monotonic())
        sat, model = solve_external(solver, self.nv, self.clauses, timeout=timeout)
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

    def steps(e: int):
        for a in read:
            emit, e2 = env.move(e, a)
            yield a | emit, a | emit, e2

    found = _product_lasso([env.initial], steps, nba)
    if found is None:
        return None
    prefix, loop = found
    return LassoTrace(tuple(prefix), tuple(loop))


def _conjunct_automata(f: Formula, max_states: int = 20000) -> list[BuchiAutomaton]:
    """One automaton per top-level conjunct of ``f``, for its negation; the
    empty ones (conjuncts that always hold) are dropped."""
    out = []
    for c in _conjuncts(f):
        nba = ltl_to_nba(neg(c), max_states=max_states)
        if len(nba.labels) and nba.initial:
            out.append(nba)
    return out


_SYS_CONFLICTS = 4096  # conflict budget of the first system bound, doubled per bound
_ENV_CONFLICTS = 512  # the same for the environment bounds
_ENV_DEFER_STATES = 120  # run the dual attempts last while their automata are this big
_ENV_MAX_STATES = 4000  # give up on the dual search beyond this automaton size


def synth_ltl(problem: SynthesisProblem) -> SynthesisResult:
    """Bounded synthesis with system/environment alternation.

    Realizable results carry a machine already re-verified by the model
    checker; unrealizable results carry a verified environment strategy;
    unknown results carry a ``reason``.  The first system bound runs first;
    then environment bounds 1,2,3,... alternate with the remaining system
    bounds.  While the environment automata (for the whole specification)
    are large, every system bound runs before them, so that realizable
    instances are not taxed by them; when they exceed their state budget,
    only the system bounds run.  The i-th bound of a side gets
    ``_SYS_CONFLICTS * 2**i`` or ``_ENV_CONFLICTS * 2**i`` conflicts of the
    internal solver; without a deadline the search path is the same on any
    machine.
    """
    spec, deadline = problem.spec, problem.deadline
    sys_bounds = [b for b in problem.bounds if b <= problem.cap]
    if deadline is not None and time.monotonic() > deadline:
        return SynthesisResult("unknown", reason=f"the deadline passed before the system "
                                                 f"attempt at bound {sys_bounds[0]}")
    sys_automata = _conjunct_automata(spec)
    internal = problem.solver == "internal"

    def schedule():
        """(side, bound, conflict budget, automata) of each attempt in turn."""
        systems = [("system", k, _SYS_CONFLICTS * 2 ** i if internal else None, sys_automata)
                   for i, k in enumerate(sys_bounds)]
        yield systems[0]
        try:
            env_automata = _conjunct_automata(neg(spec), max_states=_ENV_MAX_STATES)
        except BudgetError:
            yield from systems[1:]
            return
        envs = (("environment", k, _ENV_CONFLICTS * 2 ** i if internal else None, env_automata)
                for i, k in enumerate(range(1, problem.cap + 1)))
        if sum(len(a.labels) for a in env_automata) > _ENV_DEFER_STATES:
            yield from systems[1:]
            yield from envs
        else:
            yield from (a for pair in zip_longest(envs, systems[1:]) for a in pair if a)

    stats: list[dict] = []
    for side, k, budget, automata in schedule():
        t0 = time.monotonic()
        if deadline is not None and t0 > deadline:
            return SynthesisResult("unknown", stats=stats, reason=f"the deadline passed "
                                   f"before the {side} attempt at bound {k}")
        enc = _Encoder(automata, problem.ap, k, "moore" if side == "system" else "mealy-env")
        timeout, bad = False, None
        try:
            model = enc.solve(problem.solver, deadline, budget)
        except TimeoutError:
            # An exhausted budget just abandons the attempt (recorded as
            # inconclusive): skipping a bound is sound because unreachable
            # padding states make solutions monotone in the bound.
            model, timeout = None, True
        except SolverError as exc:
            model, bad = None, exc
        stats.append({"side": side, "bound": k, "vars": enc.nv, "clauses": len(enc.clauses),
                      "budget": budget, "conflicts": enc.conflicts,
                      "time": time.monotonic() - t0,
                      "sat": None if timeout or bad is not None else model is not None,
                      "timeout": timeout})
        if bad is not None:
            return SynthesisResult("unknown", stats=stats, reason=f"{bad} in the {side} "
                                   f"attempt at bound {k}")
        if timeout and deadline is not None and time.monotonic() > deadline:
            return SynthesisResult("unknown", stats=stats, reason=f"the deadline passed "
                                   f"during the {side} attempt at bound {k}")
        if model is None:
            continue
        if side == "system":
            machine = enc.extract_moore(model)
            if not mc_ltl(machine, spec).passed:
                raise AssertionError("internal error: synthesized machine failed verification")
            return SynthesisResult("realizable", machine=machine, stats=stats)
        env = enc.extract_env(model)
        # the automata of the spec's disjuncts: together they accept its models
        if any(env_counterexample(env, nba) is not None for nba in automata):
            raise AssertionError("internal error: environment certificate failed verification")
        return SynthesisResult("unrealizable", certificate=env, stats=stats)
    reached = {a["side"]: a["bound"] for a in stats}  # the last bound of each side
    k = reached["system"]
    if reached.get("environment") == k:
        searched = f"no machine and no environment strategy up to bound {k}"
    elif "environment" in reached:
        searched = (f"no machine up to bound {k} and no environment strategy up to bound "
                    f"{reached['environment']}")
    else:
        searched = f"no machine up to bound {k}, and the environment automata exceed their budget"
    exhausted = sum(1 for a in stats if a["timeout"])
    return SynthesisResult("unknown", stats=stats, reason=f"{searched}: {exhausted} of "
                           f"{len(stats)} attempts ran out of their conflict budget")


def synth_finite_live(phi: Formula, psi: Formula, eta: FiniteTrace, ap: APTable,
                      **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after the recorded execution:
    plain synthesis of the residual obligation conjoined with the update
    specification.  ``synth_ltl`` model-checks the machine against exactly
    that conjunction, which is the finite-trace check."""
    LiveProblem(phi, psi, ap, eta=eta)  # rejects undeclared letters before any work
    return synth_ltl(SynthesisProblem(f_and((evolve(eta, phi), psi)), ap, **kwargs))


def synth_universal_live(ts_i: MooreMachine, phi: Formula, psi: Formula, ap: APTable,
                         monitor_budget: int = 10000, **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after every finite execution of the
    initial system.

    The obligations reachable in the cut monitor are conjoined with the
    update specification for the universal result, which is solved first.
    If it is realizable, its machine, re-checked against every ``o && psi``,
    makes every obligation realizable; otherwise each obligation is solved
    individually, giving the per-context realizability table.  The
    ``kwargs`` go to every ``SynthesisProblem``, so a ``deadline`` is one
    deadline for the whole call: once it has passed, the remaining
    obligations are ``unknown``.
    """
    ap.check_formula(phi)
    obligations = reachable_obligations(cut_from_phi(phi, ts_i, max_states=monitor_budget))
    universal = synth_ltl(SynthesisProblem(f_and(list(obligations) + [psi]), ap, **kwargs))
    if universal.realizable:
        check = mc_obligations(universal.machine, obligations, psi)
        if not check.passed:
            raise AssertionError("internal error: universal update failed verification")
        outcomes = ["realizable"] * len(obligations)
    else:
        outcomes = [synth_ltl(SynthesisProblem(f_and((o, psi)), ap, **kwargs)).outcome
                    for o in obligations]
    universal.per_obligation = [{"obligation": str(o), "outcome": outcome}
                                for o, outcome in zip(obligations, outcomes)]
    return universal


def emit_dimacs(problem: SynthesisProblem, k: int, side: str = "system") -> str:
    """CNF for one bound, for use with external solvers."""
    automata = _conjunct_automata(problem.spec if side == "system" else neg(problem.spec))
    enc = _Encoder(automata, problem.ap, k, "moore" if side == "system" else "mealy-env")
    return to_dimacs(enc.nv, enc.clauses)
