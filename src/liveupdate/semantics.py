"""Exact LTL and update-aware trace semantics on lasso words.

Evaluation works by dynamic programming over the finitely many distinct
positions of a lasso (prefix plus one loop unrolling, with the loop wrapping
onto itself).  Until is computed as a least fixpoint, release as a greatest
fixpoint, so the results are exact for the infinite word.

``eval_initial`` implements the update-aware reading of the initial
specification: release is the only operator whose semantics change, its
quantifiers being cut off strictly below the boundary ``eta_len``.  At any
index at or beyond the boundary a release is immediately satisfied.
``eval_update`` evaluates a formula shifted to the boundary.
"""

from __future__ import annotations

from .formula import Formula, fold
from .traces import FiniteTrace, LassoTrace

__all__ = ["eval_ltl", "eval_initial", "eval_update", "words_membership"]


def _table(sigma: LassoTrace, f: Formula, initial_bound: int | None = None) -> list[bool]:
    """Truth table of ``f`` over the distinct lasso positions, folded from
    those of its subformulas.

    With ``initial_bound`` set, release is evaluated under the bounded-release
    semantics with that boundary (requires boundary <= len(prefix) so that all
    loop positions lie beyond it).
    """
    n = sigma.positions
    succ = [sigma.succ(i) for i in range(n)]

    def step(g: Formula, below: list[list[bool]]) -> list[bool]:
        k = g.kind
        if k == "true":
            return [True] * n
        if k == "false":
            return [False] * n
        if k == "atom":
            return [g.name in sigma.letter(i) for i in range(n)]
        if k == "natom":
            return [g.name not in sigma.letter(i) for i in range(n)]
        if k == "and":
            return [all(r[i] for r in below) for i in range(n)]
        if k == "or":
            return [any(r[i] for r in below) for i in range(n)]
        if k == "X":
            return [below[0][succ[i]] for i in range(n)]
        lv, rv = below
        if k == "U" or initial_bound is None:
            # until: least fixpoint from False; release: greatest from True
            row, old = [k == "R"] * n, None
            while row != old:
                old = row[:]
                for i in range(n - 1, -1, -1):
                    if k == "U":
                        row[i] = rv[i] or (lv[i] and row[succ[i]])
                    else:
                        row[i] = rv[i] and (lv[i] or row[succ[i]])
            return row
        b = initial_bound
        row = [True] * n
        for i in range(min(b, n) - 1, -1, -1):
            # all of phi2 on [i, b), or phi1 releasing at some k < b
            # with phi2 holding on [i, k]
            universal = all(rv[j] for j in range(i, b))
            existential = False
            for kk in range(i, b):
                if not rv[kk]:
                    break
                if lv[kk]:
                    existential = True
                    break
            row[i] = universal or existential
        return row

    return fold(f, step)


def eval_ltl(sigma: LassoTrace, i: int, f: Formula) -> bool:
    """Standard LTL satisfaction of ``f`` at position ``i`` of the lasso."""
    return _table(sigma, f)[sigma.norm(i)]


def eval_initial(eta_len: int, sigma: LassoTrace, i: int, f: Formula) -> bool:
    """Bounded-release satisfaction with boundary ``eta_len``.

    The first ``eta_len`` letters of ``sigma`` are the recorded execution of
    the initial system; they must lie in the lasso prefix.
    """
    if eta_len > len(sigma.prefix):
        raise ValueError("the recorded execution must be contained in the lasso prefix")
    return _table(sigma, f, initial_bound=eta_len)[sigma.norm(i)]


def eval_update(eta_len: int, sigma: LassoTrace, i: int, f: Formula) -> bool:
    """Satisfaction of ``f`` shifted to the update point: position i + eta_len."""
    return eval_ltl(sigma, i + eta_len, f)


def words_membership(phi: Formula, psi: Formula, eta: FiniteTrace, sigma: LassoTrace) -> bool:
    """Membership of ``eta . sigma`` in the language induced by (phi, psi, eta)."""
    word = sigma.prepend(eta)
    n = len(eta)
    return eval_initial(n, word, 0, phi) and eval_update(n, word, 0, psi)
