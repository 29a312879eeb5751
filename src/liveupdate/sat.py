"""Internal CDCL propositional solver plus DIMACS exchange.

Two-watched-literal propagation, first-UIP learning, VSIDS-style decision
activities with phase saving, geometric restarts and periodic deletion of
inactive learned clauses.  Variables are positive integers, literals signed
integers.  A solver takes its whole CNF when it is made, ``Solver(nvars,
clauses)`` as ``solve_external`` takes it: one pass sizes its tables, takes
over the clause lists as given (repeated literals too, and without a copy),
files their watches and assigns the units at level 0.  The assignment and the
watches are lists indexed by the literal itself: -v sits at 2n+1-v by Python's
negative indexing, a literal and its negation are set and cleared together,
and a literal's value is one lookup.  A decision takes the unassigned
variable of the highest activity, the lowest-numbered on a tie: a list holds
each unassigned variable's activity and -1 for an assigned one, so ``max``
and ``index`` find it without a loop in Python.  A solve is resumable in the
manner of MiniSat's budgeted search: it stops at a conflict before analysing
it once its conflict budget or its work target (watch entries scanned) is
met, keeps its search state, and a later call goes on from that conflict, so
a caller interleaves solvers by raising their work targets in turn.
Good enough for the constraint sizes bounded synthesis produces at desk
scale; anything harder can be shipped to an external solver through the
DIMACS format.
"""

from __future__ import annotations

import shutil
import subprocess
import tempfile
import time
from pathlib import Path

__all__ = ["Solver", "SolverError", "to_dimacs", "parse_dimacs_model", "solve_external"]


class SolverError(RuntimeError):
    """An external solver gave no usable answer."""


class Solver:
    def __init__(self, nvars: int, clauses: list[list[int]]):
        """A solver over variables ``1..nvars`` loaded with ``clauses`` in one
        pass.  It owns the given lists: it keeps each clause of two or more
        literals as that list and reorders its literals as it searches, so a
        caller that still needs them gives copies, and no list twice.  Units
        are assigned at level 0 in clause order; an empty clause or
        contradicting units leave the solver unsatisfiable.  Tautologies and
        repeated literals stay, which is sound: propagation enqueues a literal
        only when every other position is false and reports a conflict only
        when all are.  A literal in both watched positions has the clause
        scanned whole when it is falsified, so at worst a unit comes later."""
        self.nvars = nvars
        self.value: list[int] = [0] * (2 * nvars + 1)  # 1 true, -1 false, 0 unassigned
        self.watches: list[list[int]] = [[] for _ in range(2 * nvars + 1)]
        self.level: list[int] = [0] * (nvars + 1)
        self.reason: list[int] = [-1] * (nvars + 1)
        self.activity: list[float] = [0.0] * (nvars + 1)
        # activity[v] while v is unassigned, -1.0 while it is assigned
        self.free: list[float] = [-1.0] + [0.0] * nvars
        self.phase: list[int] = [0] + [-1] * nvars
        self.seen: list[bool] = [False] * (nvars + 1)  # all False between analyses
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.var_inc = 1.0
        self.ok = True
        self.conflicts = self.work = 0  # work: the watch entries that propagation has scanned
        self._qhead = 0  # trail position of the next literal to propagate
        # the search state that ``solve`` leaves for its next call: a conflict
        # met but not analysed (-1 for none, None before the first call), the
        # restart counters and the learned-clause count of the next reduction
        self._met: int | None = None
        self._since_restart = 0
        self._restart_limit = 128
        self._reduce_at = 4000
        self.clauses: list[list[int]] = []
        kept, watches, value = self.clauses, self.watches, self.value
        for c in clauses:
            if len(c) > 1:
                watches[c[0]].append(len(kept))
                watches[c[1]].append(len(kept))
                kept.append(c)
            elif c and value[c[0]] == 0:
                self._enqueue(c[0], -1)
            elif not c or value[c[0]] == -1:
                self.ok = False
                break
        self.cla_activity: list[float] = [0.0] * len(self.clauses)
        self.learned_from = len(self.clauses)  # clauses[i] for i >= learned_from are learned

    def _enqueue(self, lit: int, reason: int) -> None:
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.free[v] = -1.0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Returns a conflicting clause index or -1; adds the watches it scans to ``work``."""
        value, watches, clauses, trail = self.value, self.watches, self.clauses, self.trail
        level, reason, free, depth = self.level, self.reason, self.free, len(self.trail_lim)
        i, work = self._qhead, 0
        while i < len(trail):
            falsified = -trail[i]
            i += 1
            watch = watches[falsified]
            work += len(watch)
            j = 0
            while j < len(watch):
                ci = watch[j]
                clause = clauses[ci]
                first = clause[0]
                if first == falsified:  # make sure falsified is at position 1
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                if value[first] == 1:
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1], clause[k] = lit, clause[1]
                        watches[lit].append(ci)
                        watch[j] = watch[-1]
                        watch.pop()
                        break
                else:
                    if value[first] == -1:
                        self._qhead = i
                        self.work += work
                        return ci
                    value[first], value[-first] = 1, -1  # enqueued, the clause its reason
                    v = abs(first)
                    free[v] = -1.0
                    level[v] = depth
                    reason[v] = ci
                    trail.append(first)
                    j += 1
        self._qhead = i
        self.work += work
        return -1

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        seen, level, activity = self.seen, self.level, self.activity
        trail, clauses, inc = self.trail, self.clauses, self.var_inc
        learnt, counter, lit = [0], 0, 0
        index = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            clause = clauses[confl]
            for q in clause[1:] if lit else clause:
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += inc  # bumped
                    if activity[v] > 1e100:
                        free = self.free
                        for k in range(1, self.nvars + 1):
                            activity[k] *= 1e-100
                            if free[k] != -1.0:
                                free[k] = activity[k]
                        inc = self.var_inc = inc * 1e-100
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = trail[index]
                index -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            confl = self.reason[abs(lit)]  # a reason clause has its implied literal first
        learnt[0] = -lit
        for q in learnt[1:]:  # the only variables still seen
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        k = max(range(1, len(learnt)), key=lambda i2: level[abs(learnt[i2])])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backtrack(self, target: int) -> None:
        if len(self.trail_lim) > target:
            bound, value, phase = self.trail_lim[target], self.value, self.phase
            free, activity = self.free, self.activity
            for lit in self.trail[bound:]:
                v = abs(lit)
                phase[v] = value[v]
                value[lit] = value[-lit] = 0
                free[v] = activity[v]
            del self.trail[bound:], self.trail_lim[target:]
            self._qhead = min(self._qhead, bound)

    def _decide(self) -> int:
        """The unassigned variable of the highest activity, the lowest of
        them on a tie, in its saved phase; 0 when every variable is
        assigned."""
        free = self.free
        best = free.index(max(free))
        if best == 0:
            return 0
        return best if self.phase[best] >= 0 else -best

    def _reduce_learned(self) -> None:
        keep_from = self.learned_from
        scored = sorted(range(keep_from, len(self.clauses)),
                        key=lambda ci: self.cla_activity[ci], reverse=True)
        keep = set(scored[: max(1, len(scored) // 2)])
        locked = {self.reason[abs(l)] for l in self.trail}
        keep |= {ci for ci in locked if ci >= keep_from}
        kept = sorted(keep)
        remap = {ci: keep_from + i for i, ci in enumerate(kept)}
        reason = self.reason
        for v in map(abs, self.trail):  # no other reason is read before it is overwritten
            if reason[v] >= keep_from:
                reason[v] = remap[reason[v]]
        self.clauses = self.clauses[:keep_from] + [self.clauses[ci] for ci in kept]
        self.cla_activity = self.cla_activity[:keep_from] + [self.cla_activity[ci] for ci in kept]
        watches = self.watches = [[] for _ in self.watches]
        for ci, clause in enumerate(self.clauses):
            if len(clause) > 1:
                watches[clause[0]].append(ci)
                watches[clause[1]].append(ci)

    def solve(self, conflict_budget: int | None = None, deadline: float | None = None,
              work_target: int | None = None) -> bool | None:
        """True/False, or None when the search meets a conflict with
        ``conflict_budget`` conflicts analysed or ``work_target`` work done;
        raises ``TimeoutError`` when the ``time.monotonic()`` deadline has
        passed, which is read at every 256th conflict met.

        Both targets count every call together: a solve that stopped goes on
        from the conflict it stopped at when called again with higher
        targets, and in one call or in many, the solve makes the same
        decisions, conflicts, learned clauses, work and model.
        """
        if not self.ok:
            return False
        if self._met is None:  # the first call: propagate the units of the load
            if self._propagate() != -1:
                self.ok = False
                return False
            self._met = -1
        while True:
            if self._met == -1:
                self._met = self._propagate()
            confl = self._met
            if confl != -1:
                if deadline is not None and self.conflicts % 256 == 0 \
                        and time.monotonic() > deadline:
                    raise TimeoutError("the deadline passed during the solve")
                if conflict_budget is not None and self.conflicts >= conflict_budget \
                        or work_target is not None and self.work >= work_target:
                    return None
                self._met = -1
                self.conflicts += 1
                self._since_restart += 1
                self.cla_activity[confl] = self.conflicts
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                if len(learnt) == 1:  # its variable is unassigned at level 0
                    self._enqueue(learnt[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.cla_activity.append(self.conflicts)
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= 0.95
                if len(self.clauses) - self.learned_from > self._reduce_at:
                    self._reduce_learned()
                    self._reduce_at = int(self._reduce_at * 1.3)
                continue
            if self._since_restart >= self._restart_limit:
                self._since_restart = 0
                self._restart_limit = int(self._restart_limit * 1.5)
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, -1)

    def model(self) -> set[int]:
        """Positive literals of the satisfying assignment."""
        return {v for v in range(1, self.nvars + 1) if self.value[v] == 1}


# -- DIMACS -------------------------------------------------------------------


def to_dimacs(nvars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def parse_dimacs_model(text: str) -> tuple[bool | None, set[int]]:
    """Parse solver output in the usual ``s ...`` / ``v ...`` convention."""
    sat: bool | None = None
    model: set[int] = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            if "UNSAT" in line:
                sat = False
            elif "SAT" in line:
                sat = True
        elif line.startswith("v "):
            for tok in line[2:].split():
                lit = int(tok)
                if lit > 0:
                    model.add(lit)
    return sat, model


def solve_external(solver_path: str, nvars: int, clauses: list[list[int]],
                   timeout: float | None = None) -> tuple[bool | None, set[int]]:
    """Run an external DIMACS solver; returns (verdict, positive literals).

    Raises ``TimeoutError`` when the solver runs past ``timeout`` seconds, and
    ``SolverError`` when its output has no verdict or its model leaves a
    clause false."""
    if shutil.which(solver_path) is None and not Path(solver_path).exists():
        raise FileNotFoundError(f"external solver not found: {solver_path}")
    with tempfile.TemporaryDirectory(prefix="liveupdate-sat-") as tmp:
        cnf = Path(tmp) / "problem.cnf"
        cnf.write_text(to_dimacs(nvars, clauses))
        try:
            proc = subprocess.run(
                [solver_path, str(cnf)],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise TimeoutError(f"external solver ran past {timeout} s") from exc
    try:
        sat, model = parse_dimacs_model(proc.stdout)
    except ValueError:
        raise SolverError("external solver gave unreadable output") from None
    if sat is None:
        raise SolverError("external solver gave no verdict")
    if sat and not all(any((lit > 0) == (abs(lit) in model) for lit in c) for c in clauses):
        raise SolverError("external solver gave a model that leaves a clause false")
    return sat, model
