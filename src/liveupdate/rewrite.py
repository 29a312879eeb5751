"""Formula rewriting: the after-derivative, expansion, strip and the
update-obligation calculus built from them.

``af`` consumes one letter and returns the formula the rest of the word must
satisfy; folding it over a finite trace and stripping the release nodes yields
``evolve``, the obligation handed to an update system.  ``liveltl_to_ltl``
packages the same information as a single plain-LTL formula.

Every rewrite is a ``formula.fold``: a node is rewritten once all of its
operands are, even when the first one already decides it.  Four
process-wide tables, which ``liveupdate.forget()`` clears, keep ``af``'s
canonical results, one row per formula mapping each letter read so far to the
derivative, which is the obligation monitor's transition table and which
``af_word`` walks a dictionary step per letter; per letter, the raw
derivative of every node a derivative has read, so a subterm shared by many
formulas is derived once per letter; per state of a walk that starts at a
conjunction, the tuple of conjunct states it joins; and ``strip``'s result
per formula.

A walk from a conjunction phi (``af_word``, so ``evolve``, and the
state-anchored monitor) derives each conjunct on its own, on the letter
projected onto the conjunct's atoms, and canonicalizes the conjunction once
per new tuple of conjunct states; the rows hold the joined states, and the
walk steps along them.  The join is the same interned formula as the
derivative of the whole unless phi has a next over a literal, directly or
through and/or nodes (``_conjunctwise``); such a phi, checked once, is
walked whole.

``edge_step``, the obligation monitor's display step, is ``af`` with one
different rule: a release raises the derivatives of its operands under a
next, so labels read as obligations anchored at the transition being taken
rather than at the position after it (see the monitor module).
"""

from __future__ import annotations

from typing import Callable

from .formula import (
    Formula,
    atom,
    canonical,
    f_and,
    f_next,
    f_or,
    fold,
    natom,
    operands,
    rebuild,
    subformulas,
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
    "start_walk",
    "trace_formula",
    "x_power",
]


# formula -> {letter: canonical derivative}; formulas are hash-consed, so a
# row is exact and the table grows only with the pairs actually derived.
_AF: dict[Formula, dict[Letter, Formula]] = {}
# letter -> {node: its derivative before ``canonical``}, for every node a
# derivative has read.  A conjunct state reads the letter projected onto its
# atoms, one intersection per miss of its row; any other derivative reads
# the letter as given, since projecting there would save entries but cost
# an intersection per call.
_AF_RAW: dict[Letter, dict[Formula, Formula]] = {}
# state of a walk from a conjunction -> the tuple of conjunct states it
# joins, or None for a conjunction whose conjuncts are not derived on their
# own (see ``_conjunctwise``)
_PARTS: dict[Formula, tuple[Formula, ...] | None] = {}
# formula -> ``strip`` of it
_STRIP: dict[Formula, Formula] = {}


def af(f: Formula, letter: Letter) -> Formula:
    """One-letter after-derivative, with propositional simplification.

    Results are kept in canonical two-level form so that iterated
    derivatives stay shallow and their closure is finite.  Until
    ``forget()``, the result is kept in ``f``'s row of derivatives, one per
    letter read, and the derivative of every subterm per (subterm, letter).
    A state of a walk from a conjunction is derived conjunct by conjunct,
    with the same result (see the module docstring)."""
    row = _AF.setdefault(f, {})
    got = row.get(letter)
    if got is None:
        parts = _PARTS.get(f)
        if parts is None:
            return _derivative(f, letter)
        after = tuple(_derivative(p, letter & p.atoms) for p in parts)
        got = row[letter] = canonical(f_and(after))
        _PARTS.setdefault(got, after)
    return got


def _derivative(f: Formula, letter: Letter) -> Formula:
    """``af`` of the whole formula, through ``f``'s row of derivatives."""
    row = _AF.setdefault(f, {})
    got = row.get(letter)
    if got is None:
        got = row[letter] = canonical(_af(f, letter))
    return got


def start_walk(phi: Formula) -> None:
    """Let the walks from ``phi`` derive its conjuncts on their own, if it is
    a conjunction for which that gives the derivative of the whole.  The
    answer is kept until ``forget()``."""
    if phi.kind == "and" and phi not in _PARTS:
        _PARTS[phi] = phi.children if _conjunctwise(phi) else None


def _conjunctwise(phi: Formula) -> bool:
    """Whether no next of ``phi`` is over a literal, directly or through
    and/or nodes (as in ``X !a`` or ``X (a || F b)``).

    A derivative holds a literal only where such a next was consumed.
    Without one, the canonical form of the conjunction of the conjuncts'
    canonical derivatives is the canonical derivative of the conjunction:
    both are the minimal disjuncts of one positive combination of the same
    units.  With one, a conjunct's derivative may
    collapse ``a || !a`` to ``true`` (``formula.f_or``), which the combined
    form, holding ``a`` and ``!a`` in different disjuncts, never does."""
    def top_literal(g: Formula) -> bool:
        return fold(g, lambda h, below: h.kind == "atom" or h.kind == "natom" or any(below),
                    lambda h: h.children)
    return not any(g.kind == "X" and top_literal(g.left) for g in subformulas(phi))


def _af(f: Formula, letter: Letter) -> Formula:
    return fold(f, _letter_step(letter), _current, _AF_RAW.setdefault(letter, {}))


def _current(f: Formula) -> tuple[Formula, ...]:
    """The operands a letter is read on: all but those of a next."""
    return (f.left, f.right) if f.kind == "U" or f.kind == "R" else f.children


def _letter_step(letter: Letter) -> Callable[[Formula, list[Formula]], Formula]:
    """The fold step of ``_af``: atoms read ``letter``, a next is consumed,
    and U/R are unrolled once."""
    def step(f: Formula, below: list[Formula]) -> Formula:
        k = f.kind
        if k == "atom":
            return t_true() if f.name in letter else t_false()
        if k == "natom":
            return t_false() if f.name in letter else t_true()
        if k == "X":
            return f.left
        if k == "U" or k == "R":
            return _unroll(f, *below, f)
        return rebuild(f, below)
    return step


def _unroll(f: Formula, left: Formula, right: Formula, rest: Formula) -> Formula:
    """``f``, a U or an R, unrolled once over the operands ``left`` and
    ``right``, with ``rest`` for the recurrence."""
    if f.kind == "U":
        return f_or((right, f_and((left, rest))))
    return f_or((f_and((left, right)), f_and((right, rest))))


def af_word(f: Formula, word: FiniteTrace) -> Formula:
    """Left fold of ``af`` over a finite trace; the empty trace is identity.
    Each letter is one step along the rows of ``af``'s memo, which calls
    ``af`` only where a row or its letter is missing, so a walk from a
    conjunction derives its conjuncts on their own there."""
    start_walk(f)
    rows = _AF
    for letter in word:
        try:
            f = rows[f][letter]
        except KeyError:
            f = af(f, letter)
    return f


def edge_step(f: Formula, letter: Letter) -> Formula:
    """``af``'s fold, except that a release raises the derivatives of its
    operands under a next: on each conjunct of one, over a disjunction whole.
    A fresh obligation so shows up as ``X ...``, not yet advanced past the
    consumed letter."""
    derive = _letter_step(letter)

    def step(g: Formula, below: list[Formula]) -> Formula:
        if g.kind != "R":
            return derive(g, below)
        raised = [f_and(map(f_next, d.children)) if d.kind == "and" else f_next(d)
                  for d in (af(g.left, letter), af(g.right, letter))]
        return _unroll(g, *raised, g)

    return canonical(fold(f, step, lambda g: () if g.kind == "R" else _current(g)))


def expand(f: Formula) -> Formula:
    """One expansion pass: every temporal operator present before the pass is
    unrolled once; recurrence copies introduced under a fresh next are not
    re-expanded within the pass."""
    return fold(f, lambda g, below: _unroll(g, *below, f_next(g)) if g.kind in ("U", "R")
                else rebuild(g, below))


def expand_n(f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = expand(f)
    return f


def strip(f: Formula) -> Formula:
    """Replace every release node by true; the result is release-free.
    Memoized per formula until ``forget()``."""
    return fold(f, lambda g, below: t_true() if g.kind == "R" else rebuild(g, below),
                lambda g: () if g.kind == "R" else operands(g), _STRIP)


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
