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

Unrealizability is established by the dual search: a Mealy environment reading
the system's outputs and picking inputs so that every resulting trace violates
the specification.  System and environment bounds are interleaved, and each
environment attempt races the system attempts after it: the attempt behind
continues its internal solve until its propagation work is ahead, and the first
to find a machine wins.  When an attempt ends without one, the next system
attempt follows a system attempt, and the next environment attempt starts once
no attempt races.  A specification cannot have both a machine and an
environment strategy, so the race finds what running each side's attempts one
after the other would find, without running one to the end of its budget while
the other holds the answer.  Every winner is re-verified before being reported,
against the automata of the top-level conjuncts that its search encoded -- a
machine by ``mc_ltl``, a certificate by its product with each environment
automaton -- so checking a searched winner translates nothing.  Attempts have
conflict budgets and race on work, not time, so the order of attempts and their
outcomes do not depend on how fast the machine is; the only clock is the
caller's deadline.  A verdict is therefore a function of the specification, the
propositions, the bound schedule and the solver, and it survives renaming
inputs among inputs and outputs among outputs: ``synth_ltl`` keeps each
verified verdict until ``liveupdate.forget()``, answers renamed copies from it
with a relabelled, re-checked machine or certificate, tries its machines of k
states before the system attempt at bound k of another specification, and
results are immutable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .automata import (BudgetError, BuchiAutomaton, _accepting_sccs, _conjunct_automata,
                       _product_lasso, mc_ltl)
from .formula import _KIND_INDEX, Formula, f_and, fold, neg, operands, rename
from .machine import MooreMachine
from .modelcheck import LiveProblem
from .monitor import cut_from_phi, reachable_obligations
from .rewrite import evolve
from .sat import Solver, SolverError, solve_external
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


@dataclass(eq=False)
class EnvMachine:
    """Mealy environment strategy: reads the system's output letter, picks an
    input letter.  Serves as an unrealizability certificate."""

    ap: APTable
    k: int
    initial: int
    table: dict[tuple[int, Letter], tuple[Letter, int]]  # (state, read) -> (emitted, next)

    def moves(self, state: int) -> list[tuple[Letter, Letter, int]]:
        """The ``(letter, letter, successor)`` steps from ``state``, one per
        output letter in ``all_letters(ap.outputs)`` order: the letter joins
        the output letter read with the input letter emitted."""
        return [(a | emit, a | emit, dst) for a in all_letters(self.ap.outputs)
                for emit, dst in [self.table[(state, a)]]]


@dataclass(frozen=True)
class SynthesisResult:
    outcome: str  # "realizable" | "unrealizable" | "unknown"
    machine: MooreMachine | None = None
    certificate: EnvMachine | None = None
    stats: tuple[dict, ...] = ()
    per_obligation: tuple[dict, ...] = ()
    reason: str | None = None  # why an "unknown" result has no verdict

    @property
    def realizable(self) -> bool:
        return self.outcome == "realizable"


class _Encoder:
    """CNF encoding of one bounded-synthesis instance.

    ``side`` is "system" (a Moore machine: outputs on states, inputs read)
    or "environment" (a Mealy strategy: inputs on edges, outputs read).
    """

    def __init__(self, automata: list[BuchiAutomaton], ap: APTable, k: int, side: str):
        self.automata = automata
        self.ap = ap
        self.k = k
        self.kcount = max(3, k)  # bound on the rejecting visits counted within one accepting SCC
        self.moore = side == "system"
        reads = ap.inputs if self.moore else ap.outputs
        self.read = all_letters(reads)
        self.readset = frozenset(reads)
        self.emit = ap.outputs if self.moore else ap.inputs
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
        if self.moore:
            self.out = {(t, o): self.newvar() for t in range(k) for o in self.emit}
        else:
            self.out = {
                (t, a, o): self.newvar() for t in range(k) for a in read for o in self.emit
            }
        for row in self.trans.values():  # (t, a) order
            self.clauses.append(list(row))
            self.clauses.extend([-row[i], -row[j]] for i in range(k) for j in range(i + 1, k))
        for nba in self.automata:
            self._encode_automaton(nba)

    def _shape(self, nba: BuchiAutomaton) -> tuple:
        """What the encoding of ``nba`` takes from the automaton alone, at any
        bound, kept until ``forget()``: its doomed states, accepting
        SCCs and counted states, and per state and read letter the moves
        ``(q2, same, emitted, inside, inc)`` of the edges that admit the letter."""
        key = (nba, self.read, self.emit)
        if key in _SHAPES:
            return _SHAPES[key]
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
        # per distinct cube, the read letters it admits and the outputs it
        # emits, with the sign of each guard literal, in ``emit`` order, so the
        # CNF does not depend on string hashing
        cubes: dict = {}
        seen: dict = {}  # one kept object per distinct guard and move
        moves = []  # per state, per read letter
        for q in range(len(nba.labels)):
            per_letter = [[] for _ in self.read]
            for cube, q2 in nba.edges[q] if succ[q] else ():
                got = cubes.get(cube)
                if got is None:
                    need, bar = cube.pos & self.readset, cube.neg & self.readset
                    emitted = tuple((o, -1 if o in cube.pos else 1) for o in self.emit
                                    if o in cube.pos or o in cube.neg)
                    got = cubes[cube] = ([i for i, a in enumerate(self.read) if need <= a and not bar & a],
                                         seen.setdefault(emitted, emitted))
                admitted, emitted = got
                edge = (q2, q2 == q, emitted,
                        q2 in scc and scc.get(q) == scc[q2], q2 in scc and q2 in nba.accepting)
                edge = seen.setdefault(edge, edge)
                for i in admitted:
                    per_letter[i].append(edge)
            moves.append(tuple(map(tuple, per_letter)))
        _SHAPES[key] = doomed, scc, counted, moves
        return _SHAPES[key]

    def _encode_automaton(self, nba: BuchiAutomaton) -> None:
        k, K, read, clauses = self.k, self.kcount, self.read, self.clauses
        doomed, scc, counted, moves = self._shape(nba)
        n = len(moves)
        reach = {(t, q): self.newvar() for t in range(k) for q in range(n)}
        cnt = {(t, q): [self.newvar() for _ in range(K)] for t in range(k) for q in counted}
        clauses.extend([-chain[c + 1], chain[c]] for chain in cnt.values() for c in range(K - 1))
        for q0 in nba.initial:
            clauses.append([reach[(0, q0)]])
            if q0 in scc and q0 in nba.accepting:
                clauses.append([cnt[(0, q0)][0]])
        clauses.extend([-reach[(t, q)]] for q in doomed for t in range(k))
        # a target state's reach and counter variables, by machine state
        reach_to = [[reach[(t2, q2)] for t2 in range(k)] for q2 in range(n)]
        cnt_to = [[cnt[(t2, q2)] for t2 in range(k)] if q2 in scc else None for q2 in range(n)]
        moore, out = self.moore, self.out
        for t in range(k):
            guards: dict = {}  # per emitted outputs (and letter, on the Mealy side)
            rows = [[-v for v in self.trans[(t, a)]] for a in read]  # negated, like chain
            for q in range(n):
                here = -reach[(t, q)]
                chain = [-v for v in cnt[(t, q)]] if q in scc else None
                for a, row, admitted in zip(read, rows, moves[q]):
                    for q2, same, emitted, inside, inc in admitted:
                        reach2, chains2 = reach_to[q2], cnt_to[q2]
                        key = emitted if moore else (a, emitted)
                        guard = guards.get(key)
                        if guard is None:
                            guard = guards[key] = [sign * out[(t, o) if moore else (t, a, o)]
                                                   for o, sign in emitted]
                        for t2, trans in enumerate(row):
                            # a self-loop's reach clause, and without acceptance its
                            # counter clauses, are tautologies
                            loop = same and t2 == t
                            if not loop:
                                clauses.append([here, trans, *guard, reach2[t2]])
                            if inc:
                                clauses.append([here, trans, *guard, chains2[t2][0]])
                            if not inside:  # entering an SCC starts its count afresh
                                continue
                            chain2 = chains2[t2]
                            if inc:
                                for c in range(K - 1):
                                    clauses.append([here, trans, *guard, chain[c], chain2[c + 1]])
                                clauses.append([here, trans, *guard, chain[K - 1]])
                            elif not loop:
                                for c in range(K):
                                    clauses.append([here, trans, *guard, chain[c], chain2[c]])

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
    found = _product_lasso([env.initial], env.moves, nba)
    return None if found is None else LassoTrace(*map(tuple, found))


class _Attempt:
    """One bounded attempt of one side.  Its first run encodes the CNF and,
    for the internal solver, counts its clauses and hands the encoder's clause
    lists to a ``Solver``, which owns them from then on, and drops the
    encoder's reference; each later run continues that solve, to its budget
    or to a work target.  ``budget`` is None for an external solver."""

    def __init__(self, side: str, k: int, budget: int | None, automata: list[BuchiAutomaton]):
        self.side, self.k, self.budget, self.automata = side, k, budget, automata
        self.enc: _Encoder | None = None
        self.clauses = 0  # the CNF's clause count, once encoded
        self.sat: Solver | None = None  # the internal solver, from the first run on
        self.model: set[int] = set()  # the positive literals of a model, once found
        self.time = 0.0  # spent in this attempt's own runs

    @property
    def effort(self) -> int:
        """The propagation work that its internal solve has done."""
        return self.sat.work if self.sat else 0

    def run(self, problem: SynthesisProblem, target: int | None) -> bool | None:
        """Whether the CNF has a model, or None when the internal solve stops
        at its budget or at ``target`` work; ``TimeoutError`` means the
        deadline passed.  An external solver answers in one run, under the
        deadline alone."""
        if self.enc is None:
            enc = self.enc = _Encoder(self.automata, problem.ap, self.k, self.side)
            self.clauses = len(enc.clauses)
            if self.budget is not None:
                self.sat = Solver(enc.nv, enc.clauses)
                enc.clauses = []  # the solver owns the clauses
        if self.sat is None:
            timeout = (None if problem.deadline is None
                       else max(0.1, problem.deadline - time.monotonic()))
            found, self.model = solve_external(problem.solver, self.enc.nv, self.enc.clauses,
                                               timeout=timeout)
            return found
        found = self.sat.solve(self.budget, problem.deadline, target)
        if found:
            self.model = self.sat.model()
        return found

    def entry(self, sat: bool | None, timeout: bool) -> dict:
        """The attempt's ``stats`` entry."""
        return {"side": self.side, "bound": self.k, "vars": self.enc.nv, "clauses": self.clauses,
                "budget": self.budget, "conflicts": self.sat and self.sat.conflicts,
                "time": self.time, "sat": sat, "timeout": timeout}


_SYS_CONFLICTS = 4096  # conflict budget of the first system bound, doubled per bound
_ENV_CONFLICTS = 512  # the same for the environment bounds
_ENV_MAX_STATES = 4000  # give up on the dual search beyond this automaton size
# (automaton, read letters, emitted propositions) -> encoding shape
_SHAPES: dict[tuple, tuple] = {}
# verified verdicts per (spec, ap, bounds, cap, solver); an unknown is never kept.
# Their machines are also the kept machines that synth_ltl tries on other specs
_SYNTH: dict[tuple, SynthesisResult] = {}
# the first (spec, _naming order, verified verdict) per class of specifications
# that a role-preserving renaming of the propositions maps onto each other
_CLASSES: dict[tuple, tuple[Formula, list[str], SynthesisResult]] = {}
# (phi, psi, ap) of a finite-trace problem whose formulas passed the check ->
# {obligation: obligation && psi}
_FINITE: dict[tuple[Formula, Formula, APTable], dict[Formula, Formula]] = {}


def _naming(spec: Formula, ap: APTable) -> tuple[int, list[str]]:
    """A hash of ``spec`` with its propositions numbered, and those of ``ap``
    in the order of their numbers: inputs before outputs, each in the order in
    which a walk that takes the operands of and/or by their name-blind shape
    first meets them, the unused ones last.  A role-preserving renaming keeps
    the hash unless operands of equal shape tie in another order."""
    outputs = frozenset(ap.outputs)
    shape: dict = {}
    fold(spec, lambda g, below: hash((_KIND_INDEX[g.kind], g.name in outputs, *below)), memo=shape)
    met: tuple[dict, dict] = ({}, {})  # input and output numbers, as the walk meets them

    def named(g: Formula, below: list[int]) -> int:
        if g.name:
            role = met[g.name in outputs]
            return hash((_KIND_INDEX[g.kind], g.name in outputs, role.setdefault(g.name, len(role))))
        return hash((_KIND_INDEX[g.kind], *(sorted(below) if g.children else below)))

    # equal shapes in reverse operand order: any order is sound, a tie only costs reuse
    digest = fold(spec, named, lambda g: sorted(g.children[::-1], key=shape.get) or operands(g))
    return digest, [*met[0], *(a for a in ap.inputs if a not in met[0]),
                    *met[1], *(a for a in ap.outputs if a not in met[1])]


def _verified(result: SynthesisResult, spec: Formula, *,
              deadline: float | None = None) -> SynthesisResult:
    """``result``, once its machine passes the model check of ``spec`` or no
    trace that its certificate allows satisfies ``spec``.  The translations
    read ``deadline`` as ``ltl_to_nba`` does."""
    if result.machine is not None:
        if not mc_ltl(result.machine, spec, deadline=deadline).passed:
            raise AssertionError("internal error: synthesized machine failed verification")
    elif any(env_counterexample(result.certificate, nba) is not None
             for nba in _conjunct_automata(neg(spec), max_states=_ENV_MAX_STATES,
                                           deadline=deadline)):
        raise AssertionError("internal error: environment certificate failed verification")
    return result


def _relabel(result: SynthesisResult, to: dict[str, str], ap: APTable) -> SynthesisResult:
    """``result`` with each proposition ``a`` of its machine or certificate
    renamed to ``to[a]``, over ``ap``."""
    def moved(letter):
        return frozenset(map(to.__getitem__, letter))

    m, env = result.machine, result.certificate
    if m is not None:
        edges = [[(Cube(moved(c.pos), moved(c.neg)), t) for c, t in row] for row in m.edges]
        return replace(result, machine=MooreMachine(ap, m.names, m.initial,
                                                    list(map(moved, m.outputs)), edges))
    return replace(result, certificate=EnvMachine(ap, env.k, env.initial, {
        (t, moved(o)): (moved(i), t2) for (t, o), (i, t2) in env.table.items()}))


def _ran_out(exc: Exception, stage: str) -> str:
    """Why ``exc``, the deadline or a budget running out, ended ``stage``."""
    return (f"the deadline passed during {stage}" if isinstance(exc, TimeoutError)
            else f"{exc} in {stage}")


def synth_ltl(problem: SynthesisProblem) -> SynthesisResult:
    """Bounded synthesis with system/environment alternation.

    Realizable results carry a machine already re-verified by the model
    checker; unrealizable results carry a verified environment strategy;
    unknown results carry a ``reason``.  The first system bound s1 runs
    alone; once it ends without a model, the environment automata (for the
    whole specification) are translated.  Whenever an attempt ends without
    a model, one refill rule starts what follows: the next system attempt
    after a system attempt, and the next environment attempt e_i once no
    attempt races, so e_i starts beside the next system attempt, and an e_i
    that ends first leaves that one to run on alone (an e_i that ends early
    is mostly beside a system attempt that goes on to win, so starting
    e_{i+1} at once would mostly encode a CNF for nothing).  When the
    environment automata exceed their state budget, only the system bounds
    run.  Started attempts go first, the environment attempt ahead, so the
    attempt behind runs first, and it continues its solve until it is ahead
    in propagation work, which takes about as long per unit in any CNF: the
    environment attempt to one unit more, the system attempt to as much,
    each within its conflict budget.  An attempt alone runs to its budget
    in one solve; once one finds a model the other stops.  An external
    solver counts no work, so each of its attempts is one call, and a pair
    runs e_i and then the system attempt.  The translation of either side's
    automata reads the deadline too.  The i-th bound of a side gets
    ``_SYS_CONFLICTS * 2**i`` or ``_ENV_CONFLICTS * 2**i`` conflicts of the
    internal solver; without a deadline the search path is the same on any
    machine.  ``stats`` has one entry per attempt that started, in the order
    they ended; an attempt stopped because its partner won has ``sat`` None
    and ``timeout`` False.

    Memoized until ``liveupdate.forget()``: a realizable or unrealizable
    result is kept once its machine or certificate has passed the check, and
    a later call on the same problem gets the same result, ``stats``
    included, unless its deadline has passed, which is read first.  A copy
    of a kept problem under a role-preserving renaming of the propositions
    gets its verdict and ``stats`` too, with the machine or certificate
    relabelled and checked again: which machine comes back depends on which
    copy the process solved first.  That check translates the copy's
    automata under the deadline.  An ``unknown`` result is never kept.
    Before the system attempt at bound k would start (before s1, and after
    each system attempt that ends without a model, so before the
    environment automata are translated), the machines of exactly k states
    over the same ``APTable`` that kept results carry are checked by
    ``mc_ltl`` in the order they were kept; the first that passes answers,
    and is kept, so the outcome and the machine's size are the search's,
    and which machine comes back depends on what was solved since ``forget()``.
    Its ``stats`` end with an entry with ``kept`` True for bound k and no
    CNF, then the environment attempt it stopped, if one ran.  The check
    before s1 translates the specification's automata under the deadline.

    Running out raises nothing: the deadline, a system automaton's state
    budget or an external solver's unusable answer ends the search
    ``unknown`` with ``stats`` and a reason that names it and the stage that
    was running -- the check of a renamed copy or of a kept machine, the
    translation of either side's automata, or an attempt, whose entry has
    ``timeout`` True for the deadline alone.
    """
    spec, deadline = problem.spec, problem.deadline
    if deadline is not None and time.monotonic() > deadline:
        return SynthesisResult("unknown", reason=f"the deadline passed before the system "
                                                 f"attempt at bound {problem.bounds[0]}")
    key = (spec, problem.ap, tuple(problem.bounds), problem.cap, problem.solver)
    known = _SYNTH.get(key)
    if known is not None:
        return known
    stats: list[dict] = []
    live: list[_Attempt] = []  # the started attempts, the one to run first

    def end(outcome: str, reason: str | None = None, **found) -> SynthesisResult:
        # an attempt that the end cuts short is recorded as stopped
        stats.extend(a.entry(None, False) for a in live if a.enc is not None)
        return SynthesisResult(outcome, stats=tuple(stats), reason=reason, **found)

    def keep(result: SynthesisResult) -> SynthesisResult:
        _SYNTH[key] = result
        _CLASSES.setdefault(ckey, (spec, order, result))
        return result

    def from_kept(k: int) -> SynthesisResult | None:
        # the machines of k states over the caller's propositions that kept
        # results carry, each once, in the order they were kept: the first
        # that passes the check answers bound k
        nonlocal stage
        stage, t0 = "the check of a kept machine", time.monotonic()
        machines = dict.fromkeys(r.machine for r in _SYNTH.values() if r.machine is not None
                                 and len(r.machine) == k and r.machine.ap == problem.ap)
        for m in machines:
            if mc_ltl(m, spec, deadline=deadline).passed:
                stats.append({"side": "system", "bound": k, "kept": True, "vars": 0, "clauses": 0,
                              "budget": None, "conflicts": 0, "time": time.monotonic() - t0,
                              "sat": True, "timeout": False})
                return keep(end("realizable", machine=m))
        return None

    stage: str | _Attempt = "the check of a renamed copy"  # what runs, for a reason
    try:
        digest, order = _naming(spec, problem.ap)
        ckey = (digest, len(problem.ap.inputs), len(problem.ap.outputs), *key[2:])
        if (rep := _CLASSES.get(ckey)) is not None:
            to = dict(zip(rep[1], order))  # the representative's propositions -> the caller's
            if rename(rep[0], to) is spec:
                _SYNTH[key] = _verified(_relabel(rep[2], to, problem.ap), spec, deadline=deadline)
                return _SYNTH[key]
        if result := from_kept(problem.bounds[0]):
            return result
        stage = "the translation of the system automata"
        sys_automata = _conjunct_automata(spec, deadline=deadline)
        internal = problem.solver == "internal"
        systems = [_Attempt("system", k, _SYS_CONFLICTS * 2 ** i if internal else None, sys_automata)
                   for i, k in enumerate(b for b in problem.bounds if b <= problem.cap)]
        envs = iter(())  # the environment attempts, once translated, started one by one
        live.append(systems.pop(0))
        while live:
            a, t0 = live[0], time.monotonic()
            if a.enc is None and deadline is not None and t0 > deadline:
                return end("unknown", f"the deadline passed before the {a.side} attempt "
                                      f"at bound {a.k}")
            target = None  # alone, an attempt runs to its budget in one solve
            if a.budget is not None and len(live) == 2:  # in a pair, until its work is ahead
                target = live[1].effort + (a.side == "environment")
            stage = a
            found = a.run(problem, target)
            a.time += time.monotonic() - t0
            if found is None and a.sat.conflicts < a.budget:
                live.reverse()  # ahead of the other attempt of its pair, which runs next
                continue
            # An exhausted budget just abandons the attempt (recorded as
            # inconclusive): skipping a bound is sound, as a machine of size k
            # becomes one of size k+1 by adding a state never reached, or by splitting one.
            live.remove(a)
            stats.append(a.entry(found, found is None))
            if found:
                if a.side == "system":
                    result = end("realizable", machine=a.enc.extract_moore(a.model))
                else:
                    result = end("unrealizable", certificate=a.enc.extract_env(a.model))
                return keep(_verified(result, spec))
            if a.side == "system" and systems and (result := from_kept(systems[0].k)):
                return result
            if len(stats) == 1:  # s1 ended without a machine: the dual search begins
                stage = "the translation of the environment automata"
                try:
                    env_automata = _conjunct_automata(neg(spec), max_states=_ENV_MAX_STATES,
                                                      deadline=deadline)
                except BudgetError:
                    pass  # only the system bounds run
                else:
                    envs = (_Attempt("environment", k, _ENV_CONFLICTS * 2 ** i if internal else None,
                                     env_automata) for i, k in enumerate(range(1, problem.cap + 1)))
            # the refill rule; started attempts go first, the environment attempt ahead
            started = [next(envs, None)] if not live else []
            if a.side == "system" and systems:
                started.append(systems.pop(0))
            live[:0] = filter(None, started)
    except (TimeoutError, BudgetError, SolverError) as exc:
        if isinstance(stage, _Attempt):  # its run raised: it is recorded first
            a, stage = stage, f"the {stage.side} attempt at bound {stage.k}"
            a.time += time.monotonic() - t0
            live.remove(a)
            stats.append(a.entry(None, isinstance(exc, TimeoutError)))
        return end("unknown", _ran_out(exc, stage))
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
    return SynthesisResult("unknown", stats=tuple(stats), reason=f"{searched}: {exhausted} of "
                           f"{len(stats)} attempts ran out of their conflict budget")


def synth_finite_live(phi: Formula, psi: Formula, eta: FiniteTrace, ap: APTable,
                      **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after the recorded execution:
    plain synthesis of the residual obligation conjoined with the update
    specification.  ``synth_ltl`` model-checks the machine against exactly
    that conjunction, which is the finite-trace check.  The passed check of
    the formulas and each conjunction are kept per (phi, psi, ap) until
    ``liveupdate.forget()``, so a later call checks only the letters of ``eta``."""
    specs = _FINITE.get((phi, psi, ap))
    if specs is None or not all(map(ap.all.issuperset, eta)):
        LiveProblem(phi, psi, ap, eta=eta)  # rejects undeclared letters before any work
        specs = _FINITE.setdefault((phi, psi, ap), {})
    obligation = evolve(eta, phi)
    spec = specs.get(obligation)
    if spec is None:
        spec = specs[obligation] = f_and((obligation, psi))
    return synth_ltl(SynthesisProblem(spec, ap, **kwargs))


def synth_universal_live(ts_i: MooreMachine, phi: Formula, psi: Formula, ap: APTable,
                         monitor_budget: int = 10000, **kwargs) -> SynthesisResult:
    """Synthesize an update system correct after every finite execution of the
    initial system.

    The obligations reachable in the cut monitor are conjoined with the
    update specification for the universal result, which is solved first.
    If it is realizable, its machine makes every obligation realizable:
    ``synth_ltl`` has model-checked it against ``f_and(obligations + [psi])``,
    and ``f_and`` only flattens, sorts, drops conjuncts that absorption shows
    implied and turns complementary literals into ``false``, which no machine
    realizes, so the machine satisfies every ``o && psi`` and passes
    ``mc_universal_live`` without a second check.  Otherwise each obligation
    is solved individually, giving the per-context realizability table.  If
    the conjunction is ``unknown`` and some ``o && psi`` is unrealizable, the
    result is unrealizable with that obligation's certificate, which refutes
    the conjunction too.  The ``kwargs`` go to every ``SynthesisProblem``,
    so a ``deadline`` is one deadline for the whole call, the monitor cut
    included: once it has passed, the remaining obligations are ``unknown``.
    A cut that runs past the deadline or beyond ``monitor_budget`` states
    gives ``unknown`` without obligations; every ``synth_ltl`` call returns,
    so a conjunction that runs out still gets the table and its verdict from
    a refuted obligation.  A per-obligation call can be a kept answer: a
    machine that the process found before over the same propositions, for
    an earlier obligation or another problem, answers it at the bound of its
    size once it passes the check of ``o && psi``.
    """
    LiveProblem(phi, psi, ap, ts_i=ts_i)  # rejects undeclared propositions before any work
    try:
        mon = cut_from_phi(phi, ts_i, max_states=monitor_budget, deadline=kwargs.get("deadline"))
    except (TimeoutError, BudgetError) as exc:
        return SynthesisResult("unknown", reason=_ran_out(exc, "the monitor cut"))
    obligations = reachable_obligations(mon)
    universal = synth_ltl(SynthesisProblem(f_and(list(obligations) + [psi]), ap, **kwargs))
    if universal.realizable:
        outcomes = ["realizable"] * len(obligations)
    else:
        results = [synth_ltl(SynthesisProblem(f_and((o, psi)), ap, **kwargs)) for o in obligations]
        outcomes = [r.outcome for r in results]
        refuted = next((r for r in results if r.outcome == "unrealizable"), None)
        if universal.outcome == "unknown" and refuted is not None:
            universal = replace(universal, outcome="unrealizable",
                                certificate=refuted.certificate, reason=None)
    return replace(universal, per_obligation=tuple(
        {"obligation": str(o), "outcome": outcome} for o, outcome in zip(obligations, outcomes)))
