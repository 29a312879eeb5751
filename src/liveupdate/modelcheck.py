"""Model checking of live updates.

The finite-trace problem reduces to a plain check of the update machine
against the residual obligation conjoined with the update specification.  The
universal problem enumerates the obligations reachable along executions of
the initial system (via the state-anchored cut monitor) and checks each one.

``mc_universal_product`` is an independent cross-check: it glues the initial
and update machines with a fresh ``update`` input, bounds every release of
the initial specification to the update point, anchors the update
specification one step after it, and runs a single plain check on the
combined system.  Updates before the first letter cannot be expressed in the
combined machine, so the empty-execution obligation is checked separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Verdict, mc_ltl
from .formula import (Formula, atom, f_and, f_globally, f_implies, f_next, f_or, f_until, fold, natom,
                      rebuild, t_true)
from .machine import MooreMachine
from .monitor import cut_from_phi, reachable_obligations
from .rewrite import evolve, strip
from .traces import APTable, Cube, FiniteTrace

__all__ = ["LiveProblem", "mc_finite_live", "mc_universal_live", "mc_obligations", "mc_universal_product"]


@dataclass
class LiveProblem:
    """An update-correctness instance: initial spec, update spec and either a
    recorded finite execution or the initial system itself."""

    phi: Formula
    psi: Formula
    ap: APTable
    eta: FiniteTrace | None = None
    ts_i: MooreMachine | None = None

    def __post_init__(self):
        if (self.eta is None) == (self.ts_i is None):
            raise ValueError("exactly one of eta (finite-trace) or ts_i (universal) must be given")
        self.ap.check_formula(self.phi)
        self.ap.check_formula(self.psi)
        if self.eta is not None and not all(map(self.ap.all.issuperset, self.eta)):
            for letter in self.eta:  # raises on the first undeclared letter
                self.ap.check_letter(letter)
        if self.ts_i is not None:
            self.check_machine(self.ts_i, "initial")

    def check_machine(self, machine: MooreMachine, role: str) -> None:
        """Reject a machine that declares propositions outside the AP table."""
        if not machine.ap.all <= self.ap.all:
            raise ValueError(f"{role} system uses propositions outside the problem AP table")


def mc_finite_live(ts_u: MooreMachine, problem: LiveProblem) -> Verdict:
    """Finite-trace update correctness of ``ts_u`` after the recorded trace."""
    if problem.eta is None:
        raise ValueError("finite-trace checking needs a recorded execution")
    problem.check_machine(ts_u, "update")
    obligation = evolve(problem.eta, problem.phi)
    verdict = mc_ltl(ts_u, f_and((obligation, problem.psi)))
    verdict.details["obligation"] = str(obligation)
    if not verdict.passed:
        verdict.failing_obligation = obligation
    return verdict


def mc_universal_live(ts_u: MooreMachine, problem: LiveProblem,
                      max_states: int = 10000) -> Verdict:
    """Update correctness for every finite execution of the initial system.

    Passes iff for every obligation reachable in the cut monitor the update
    machine satisfies obligation && psi; the first failure is reported with
    its obligation and counterexample.
    """
    if problem.ts_i is None:
        raise ValueError("universal checking needs the initial system")
    problem.check_machine(ts_u, "update")
    cut = cut_from_phi(problem.phi, problem.ts_i, max_states=max_states)
    result = mc_obligations(ts_u, reachable_obligations(cut), problem.psi)
    result.details["monitor_states"] = len(cut)
    return result


def mc_obligations(ts_u: MooreMachine, obligations: list[Formula], psi: Formula) -> Verdict:
    """Check ``o && psi`` for every obligation ``o``; the first failure is
    reported with its obligation and counterexample.  The product with a
    conjunct automaton that several obligations share is searched once."""
    table = []
    failure: Verdict | None = None
    searched: dict = {}
    for o in obligations:
        v = mc_ltl(ts_u, f_and((o, psi)), searched)
        table.append({"obligation": str(o), "outcome": v.outcome})
        if not v.passed and failure is None:
            failure = v
            failure.failing_obligation = o
    result = failure if failure is not None else Verdict("pass")
    result.details["obligations"] = table
    return result


_UPDATE = "update"


def _bound_releases(f: Formula, up: Formula, no_more: Formula) -> Formula:
    """Limit every release to the positions up to the update.

    ``l R r`` becomes ``(r U ((up && r) || (l && r))) || G !up``: either the
    released obligation is discharged or still open when the update letter
    arrives, or the evaluation point lies strictly after it (no update ever
    follows such a point, hence the second disjunct).
    """
    def step(g: Formula, below: list[Formula]) -> Formula:
        if g.kind != "R":
            return rebuild(g, below)
        l, r = below
        return f_or((f_until(r, f_or((f_and((up, r)), f_and((l, r))))), no_more))

    return fold(f, step)


def combine_for_update(ts_i: MooreMachine, ts_u: MooreMachine, ap: APTable) -> MooreMachine:
    """The two machines glued by a fresh environment-controlled ``update``
    input: every edge of the initial system gets a duplicate redirected to the
    update system's initial state."""
    if _UPDATE in ap.all:
        raise ValueError(f"proposition {_UPDATE!r} must not be declared in the problem")
    ap2 = APTable(tuple(ap.inputs) + (_UPDATE,), tuple(ap.outputs))
    n_i = len(ts_i)
    names = [f"i_{n}" for n in ts_i.names] + [f"u_{n}" for n in ts_u.names]
    outputs = list(ts_i.outputs) + list(ts_u.outputs)
    edges = []
    u_init = n_i + ts_u.initial
    for row in ts_i.edges:
        new_row = []
        for cube, dst in row:
            new_row.append((Cube(cube.pos, cube.neg | {_UPDATE}), dst))
            new_row.append((Cube(cube.pos | {_UPDATE}, cube.neg), u_init))
        edges.append(new_row)
    for row in ts_u.edges:
        edges.append([(cube, dst + n_i) for cube, dst in row])
    return MooreMachine(ap2, names, ts_i.initial, outputs, edges)


def mc_universal_product(ts_i: MooreMachine, ts_u: MooreMachine,
                         phi: Formula, psi: Formula, ap: APTable) -> Verdict:
    """Single-product cross-check of universal update correctness.

    Must agree with ``mc_universal_live`` (this is exercised by the test
    suite); kept as an independent oracle rather than the primary algorithm.
    """
    up = atom(_UPDATE)
    no_more = f_globally(natom(_UPDATE))
    combined = combine_for_update(ts_i, ts_u, ap)
    wellformed = f_and((f_until(t_true(), up), f_globally(f_implies(up, f_next(no_more)))))
    check = f_implies(
        wellformed,
        f_and((
            _bound_releases(phi, up, no_more),
            f_globally(f_implies(up, f_next(psi))),
        )),
    )
    verdict = mc_ltl(combined, check)
    if not verdict.passed:
        verdict.details["phase"] = "combined product"
        return verdict
    # updates before the first letter: the obligation is strip(phi) directly
    eps = mc_ltl(ts_u, f_and((strip(phi), psi)))
    if not eps.passed:
        eps.failing_obligation = strip(phi)
        eps.details["phase"] = "empty execution"
        return eps
    return Verdict("pass")
