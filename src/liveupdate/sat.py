"""Internal CDCL propositional solver plus DIMACS exchange.

Two-watched-literal propagation, first-UIP learning, VSIDS-style decision
activities with phase saving, geometric restarts and periodic deletion of
inactive learned clauses.  Variables are positive integers, literals signed
integers.  One table, keyed by literal, holds the assignment: a literal and
its negation are set and cleared together, so a literal's value is one
lookup.  Good enough for the constraint sizes bounded synthesis produces at
desk scale; anything harder can be shipped to an external solver through the
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
    def __init__(self):
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.learned_from = 0  # clauses[i] for i >= learned_from are learned
        self.watches: dict[int, list[int]] = {}
        self.value: dict[int, int] = {}  # literal -> 1 true, -1 false, 0 unassigned
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]
        self.activity: list[float] = [0.0]
        self.phase: list[int] = [0]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.var_inc = 1.0
        self.cla_activity: list[float] = []
        self.ok = True
        self.conflicts = 0
        self._qhead = 0  # trail position of the next literal to propagate

    def new_var(self) -> int:
        self.nvars += 1
        self.value[self.nvars] = self.value[-self.nvars] = 0
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(-1)
        self.watches[self.nvars] = []
        self.watches[-self.nvars] = []
        return self.nvars

    def add_clause(self, lits) -> bool:
        """Add a clause; every clause is added before ``solve`` runs, so a
        unit is assigned at level 0.  False once the clauses contradict."""
        if not self.ok:
            return False
        seen = set()
        out = []
        for l in lits:
            if -l in seen:
                return True  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if self.value[out[0]] == 0:
                self._enqueue(out[0], -1)
            self.ok = self.value[out[0]] == 1
            return self.ok
        ci = len(self.clauses)
        self.clauses.append(out)
        self.cla_activity.append(0.0)
        self.watches[out[0]].append(ci)
        self.watches[out[1]].append(ci)
        return True

    def _enqueue(self, lit: int, reason: int) -> None:
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Returns a conflicting clause index or -1."""
        value = self.value
        i = self._qhead
        while i < len(self.trail):
            lit = self.trail[i]
            i += 1
            falsified = -lit
            watch = self.watches[falsified]
            j = 0
            while j < len(watch):
                ci = watch[j]
                clause = self.clauses[ci]
                # make sure falsified is at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if value[first] == 1:
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    if value[clause[k]] != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1]].append(ci)
                        watch[j] = watch[-1]
                        watch.pop()
                        break
                else:
                    if value[first] == -1:
                        self._qhead = i
                        return ci
                    self._enqueue(first, ci)
                    j += 1
        self._qhead = i
        return -1

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for k in range(1, self.nvars + 1):
                self.activity[k] *= 1e-100
            self.var_inc *= 1e-100

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = 0
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            clause = self.clauses[confl]
            start = 1 if lit != 0 else 0
            for q in clause[start:]:
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                lit = self.trail[index]
                index -= 1
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            confl = self.reason[abs(lit)]
            clause = self.clauses[confl]
            if clause[0] != lit:
                k = clause.index(lit)
                clause[0], clause[k] = clause[k], clause[0]
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        k = max(range(1, len(learnt)), key=lambda i2: self.level[abs(learnt[i2])])
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _backtrack(self, target: int) -> None:
        while len(self.trail_lim) > target:
            bound = self.trail_lim.pop()
            while len(self.trail) > bound:
                lit = self.trail.pop()
                v = abs(lit)
                self.phase[v] = 1 if lit > 0 else -1
                self.value[lit] = self.value[-lit] = 0
        self._qhead = min(self._qhead, len(self.trail))

    def _decide(self) -> int:
        value = self.value
        best, besta = 0, -1.0
        for v in range(1, self.nvars + 1):
            if value[v] == 0 and self.activity[v] > besta:
                best, besta = v, self.activity[v]
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
        for lit in self.trail:  # no other reason is read before it is overwritten
            v = abs(lit)
            if self.reason[v] >= keep_from:
                self.reason[v] = remap[self.reason[v]]
        self.clauses = self.clauses[:keep_from] + [self.clauses[ci] for ci in kept]
        self.cla_activity = self.cla_activity[:keep_from] + [self.cla_activity[ci] for ci in kept]
        self.watches = {lit: [] for lit in self.watches}
        for ci, clause in enumerate(self.clauses):
            if len(clause) > 1:
                self.watches[clause[0]].append(ci)
                self.watches[clause[1]].append(ci)

    def solve(self, conflict_budget: int | None = None,
              deadline: float | None = None) -> bool | None:
        """True/False, or None if the conflict budget ran out or the
        ``time.monotonic()`` deadline passed."""
        if not self.ok:
            return False
        self._qhead = 0
        if self._propagate() != -1:
            self.ok = False
            return False
        restart_limit = 128
        since_restart = 0
        reduce_at = 4000
        while True:
            confl = self._propagate()
            if confl != -1:
                self.conflicts += 1
                since_restart += 1
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
                    if self.learned_from == 0:
                        self.learned_from = ci
                    self.watches[learnt[0]].append(ci)
                    self.watches[learnt[1]].append(ci)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= 0.95
                if conflict_budget is not None and self.conflicts >= conflict_budget:
                    return None
                if deadline is not None and self.conflicts % 256 == 0 \
                        and time.monotonic() > deadline:
                    return None
                if self.learned_from and len(self.clauses) - self.learned_from > reduce_at:
                    self._reduce_learned()
                    reduce_at = int(reduce_at * 1.3)
                continue
            if since_restart >= restart_limit:
                since_restart = 0
                restart_limit = int(restart_limit * 1.5)
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
    # minisat-style output files: first line SAT/UNSAT then literals
    if sat is None:
        toks = text.split()
        if toks and toks[0] in ("SAT", "UNSAT", "SATISFIABLE", "UNSATISFIABLE"):
            sat = toks[0].startswith("SAT")
            if sat:
                model = {int(t) for t in toks[1:] if t.lstrip("-").isdigit() and int(t) > 0}
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
