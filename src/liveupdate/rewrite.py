"""Formula rewriting: the after-derivative, expansion, strip and the
update-obligation calculus built from them.

``af`` consumes one letter and returns the formula the rest of the word must
satisfy; folding it over a finite trace and stripping the release nodes yields
``evolve``, the obligation handed to an update system.  Two tables live for
the whole process, like the formula intern table: ``af``'s canonical result
per (formula, letter), and the raw derivative per (and/or/U/R subterm,
letter), so a subterm shared by many formulas is derived once per letter.
``liveltl_to_ltl`` packages the same information as a single plain-LTL
formula.

``edge_step`` is a variant of ``af`` used by the obligation monitor's
display form: obligations raised by a release keep their next-step guards, so
labels read as obligations anchored at the transition being taken rather than
at the position after it (see the monitor module).
"""

from __future__ import annotations

from .formula import (
    Formula,
    atom,
    canonical,
    f_and,
    f_next,
    f_or,
    natom,
    rebuild,
    t_false,
    t_true,
)
from .traces import FiniteTrace, Letter

__all__ = [
    "af",
    "af_word",
    "edge_step",
    "expand",
    "expand_n",
    "strip",
    "evolve",
    "liveltl_to_ltl",
    "trace_formula",
    "x_power",
]


# (formula, letter) -> canonical derivative; formulas are hash-consed, so the
# key is exact and the table grows only with the pairs actually derived.
_AF: dict[tuple[Formula, Letter], Formula] = {}
# (and/or/U/R node, letter) -> its derivative before ``canonical``.  The letter
# is not projected onto the node's atoms: that would save entries but cost an
# intersection per call.
_AF_RAW: dict[tuple[Formula, Letter], Formula] = {}


def af(f: Formula, letter: Letter) -> Formula:
    """One-letter after-derivative, with propositional simplification.

    Results are kept in canonical two-level form so that iterated
    derivatives stay shallow and their closure is finite.  For the life of
    the process, the result is memoized per (formula, letter) and the
    derivative of every and/or/U/R subterm per (subterm, letter)."""
    got = _AF.get((f, letter))
    if got is None:
        got = _AF[(f, letter)] = canonical(_af(f, letter))
    return got


def _af(f: Formula, letter: Letter) -> Formula:
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k == "X":
        return f.left
    got = _AF_RAW.get((f, letter))
    if got is None:
        if k in ("and", "or"):
            got = rebuild(f, lambda c: _af(c, letter))
        elif k == "U":
            got = f_or((_af(f.right, letter), f_and((_af(f.left, letter), f))))
        else:
            ar = _af(f.right, letter)
            got = f_or((f_and((_af(f.left, letter), ar)), f_and((ar, f))))
        _AF_RAW[(f, letter)] = got
    return got


def af_word(f: Formula, word: FiniteTrace) -> Formula:
    """Left fold of ``af`` over a finite trace; the empty trace is identity."""
    for letter in word:
        f = af(f, letter)
    return f


def _pe_raw(f: Formula, letter: Letter) -> Formula:
    """Positional evaluation: like ``af`` but next-guarded parts stay guarded."""
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k in ("and", "or"):
        return rebuild(f, lambda c: _pe_raw(c, letter))
    if k == "X":
        return f
    if k == "U":
        return f_or((_pe_raw(f.right, letter), f_and((_pe_raw(f.left, letter), f_next(f)))))
    pr = _pe_raw(f.right, letter)
    return f_or((f_and((_pe_raw(f.left, letter), pr)), f_and((pr, f_next(f)))))


def edge_step(f: Formula, letter: Letter) -> Formula:
    """Monitor transition with transition-anchored obligation raising.

    Identical to ``af`` except that a release raises its residue with the
    next-step guards kept, so a fresh obligation shows up as ``X ...`` in the
    state rather than already advanced past the consumed letter.
    """
    return canonical(_edge_step(f, letter))


def _edge_step(f: Formula, letter: Letter) -> Formula:
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k in ("and", "or"):
        return rebuild(f, lambda c: _edge_step(c, letter))
    if k == "X":
        return f.left
    if k == "U":
        return f_or((_edge_step(f.right, letter), f_and((_edge_step(f.left, letter), f))))
    pr = _pe_raw(f.right, letter)
    return f_or((f_and((_pe_raw(f.left, letter), pr)), f_and((pr, f))))


def expand(f: Formula) -> Formula:
    """One expansion pass: every temporal operator present before the pass is
    unrolled once; recurrence copies introduced under a fresh next are not
    re-expanded within the pass."""
    k = f.kind
    if k == "U":
        return f_or((expand(f.right), f_and((expand(f.left), f_next(f)))))
    if k == "R":
        er = expand(f.right)
        return f_or((f_and((expand(f.left), er)), f_and((er, f_next(f)))))
    return rebuild(f, expand)


def expand_n(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = expand(f)
    return f


def strip(f: Formula) -> Formula:
    """Replace every release node by true; the result is release-free."""
    return t_true() if f.kind == "R" else rebuild(f, strip)


def evolve(eta: FiniteTrace, phi: Formula) -> Formula:
    """Residual obligation of ``phi`` after the recorded execution ``eta``.

    Release-free; for every continuation lasso the obligation holds exactly
    when the combined word satisfies ``phi`` under the bounded-release
    semantics with boundary ``len(eta)``.
    """
    return strip(af_word(phi, eta))


def x_power(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = f_next(f)
    return f


def trace_formula(eta: FiniteTrace, all_aps: frozenset[str]) -> Formula:
    """LTL encoding of a finite trace: position i carries exactly eta[i]."""
    conjuncts = []
    for i, letter in enumerate(eta):
        cube = f_and(
            [atom(a) if a in letter else natom(a) for a in sorted(all_aps)]
        )
        conjuncts.append(x_power(cube, i))
    return f_and(conjuncts)


def liveltl_to_ltl(phi: Formula, psi: Formula, eta: FiniteTrace, all_aps: frozenset[str]) -> Formula:
    """Plain-LTL formula whose language equals the update language of
    (phi, psi, eta): psi delayed past the recorded trace, phi unrolled for
    ``len(eta)`` steps with the remaining release recurrences stripped, and
    the trace itself pinned letter by letter."""
    n = len(eta)
    return f_and((
        x_power(psi, n),
        strip(expand_n(phi, n)),
        trace_formula(eta, all_aps),
    ))
