"""LTL abstract syntax in release-positive normal form.

Formulas are immutable and hash-consed: structurally identical terms share a
single representative, so equality/hashing are O(1) and every formula carries
an integer ``key``, e.g. for monitor states.  The key follows creation order
within one process, so it depends on what the process built before (ROADMAP
item 1).

Construction goes through the module-level builders (``atom``, ``f_and``,
``f_until``, ...) which keep terms in normal form: negation exists only on
atoms, commutative operators are flattened, sorted and deduplicated, and light
propositional simplification is applied (constant folding, complementary
literals, absorption).  Simplification is deliberately syntactic -- two
logically equivalent formulas may still be distinct terms.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

__all__ = [
    "Formula",
    "t_true",
    "t_false",
    "atom",
    "natom",
    "f_and",
    "f_or",
    "f_next",
    "f_until",
    "f_release",
    "f_eventually",
    "f_globally",
    "f_implies",
    "f_iff",
    "neg",
    "subformulas",
    "canonical",
    "dnf_units",
    "from_dnf",
    "to_str",
]


class Formula:
    """A hash-consed LTL formula node.

    ``kind`` is one of ``true false atom natom and or X U R``.  ``and``/``or``
    store an n-ary sorted ``children`` tuple; ``X`` uses ``left``; ``U``/``R``
    use ``left``/``right``; (n)atoms use ``name``.
    """

    __slots__ = ("kind", "name", "left", "right", "children", "key", "_atoms", "_tdepth")

    _intern: dict[tuple, "Formula"] = {}
    _counter = itertools.count()

    kind: str
    name: str | None
    left: "Formula | None"
    right: "Formula | None"
    children: tuple["Formula", ...]
    key: int

    def __hash__(self) -> int:
        return self.key

    def __str__(self) -> str:
        return to_str(self)

    def __repr__(self) -> str:
        return f"<Formula {to_str(self)}>"

    @property
    def atoms(self) -> frozenset[str]:
        """Set of proposition names occurring in the formula."""
        a = self._atoms
        if a is None:
            if self.kind in ("atom", "natom"):
                a = frozenset((self.name,))
            else:
                a = frozenset().union(*(c.atoms for c in _parts(self))) if _parts(self) else frozenset()
            self._atoms = a
        return a

    @property
    def temporal_depth(self) -> int:
        """Maximum nesting of temporal operators (X/U/R)."""
        d = self._tdepth
        if d is None:
            inner = max((c.temporal_depth for c in _parts(self)), default=0)
            d = inner + (1 if self.kind in ("X", "U", "R") else 0)
            self._tdepth = d
        return d

    def is_release_free(self) -> bool:
        if self.kind == "R":
            return False
        return all(c.is_release_free() for c in _parts(self))


def _parts(f: Formula) -> tuple[Formula, ...]:
    if f.kind in ("and", "or"):
        return f.children
    if f.kind == "X":
        return (f.left,)
    if f.kind in ("U", "R"):
        return (f.left, f.right)
    return ()


def _mk(kind: str, name: str | None = None, left: Formula | None = None,
        right: Formula | None = None, children: tuple[Formula, ...] = ()) -> Formula:
    sig = (
        kind,
        name,
        left.key if left is not None else -1,
        right.key if right is not None else -1,
        tuple(c.key for c in children),
    )
    got = Formula._intern.get(sig)
    if got is not None:
        return got
    f = object.__new__(Formula)
    f.kind = kind
    f.name = name
    f.left = left
    f.right = right
    f.children = children
    f.key = next(Formula._counter)
    f._atoms = None
    f._tdepth = None
    # setdefault keeps interning safe under concurrent construction (CPython).
    return Formula._intern.setdefault(sig, f)


_TRUE = _mk("true")
_FALSE = _mk("false")


def t_true() -> Formula:
    return _TRUE


def t_false() -> Formula:
    return _FALSE


def atom(name: str) -> Formula:
    return _mk("atom", name=name)


def natom(name: str) -> Formula:
    return _mk("natom", name=name)


def f_and(parts: Iterable[Formula]) -> Formula:
    return _nary("and", parts)


def f_or(parts: Iterable[Formula]) -> Formula:
    return _nary("or", parts)


def _nary(kind: str, parts: Iterable[Formula]) -> Formula:
    unit = _TRUE if kind == "and" else _FALSE
    zero = _FALSE if kind == "and" else _TRUE
    flat: dict[int, Formula] = {}
    for p in parts:
        if p is zero:
            return zero
        if p is unit:
            continue
        if p.kind == kind:
            for c in p.children:
                flat[c.key] = c
        else:
            flat[p.key] = p
    if not flat:
        return unit
    # complementary literals collapse to the absorbing constant
    for f in flat.values():
        if f.kind == "atom" and any(g.kind == "natom" and g.name == f.name for g in flat.values()):
            return zero
    # absorption: x & (x | y) = x  /  x | (x & y) = x
    dual = "or" if kind == "and" else "and"
    keys = set(flat.keys())
    kept = [
        f for f in flat.values()
        if not (f.kind == dual and any(c.key in keys for c in f.children))
    ]
    if len(kept) == 1:
        return kept[0]
    kept.sort(key=lambda f: f.key)
    return _mk(kind, children=tuple(kept))


def f_next(f: Formula) -> Formula:
    if f is _TRUE or f is _FALSE:
        return f
    return _mk("X", left=f)


def f_until(left: Formula, right: Formula) -> Formula:
    if right is _TRUE or right is _FALSE:
        return right
    if left is _FALSE:
        return right
    if left is right:
        return right
    return _mk("U", left=left, right=right)


def f_release(left: Formula, right: Formula) -> Formula:
    if right is _TRUE or right is _FALSE:
        return right
    if left is _TRUE:
        return right
    if left is right:
        return right
    return _mk("R", left=left, right=right)


def f_eventually(f: Formula) -> Formula:
    return f_until(_TRUE, f)


def f_globally(f: Formula) -> Formula:
    return f_release(_FALSE, f)


def f_implies(left: Formula, right: Formula) -> Formula:
    return f_or((neg(left), right))


def f_iff(left: Formula, right: Formula) -> Formula:
    return f_and((f_or((neg(left), right)), f_or((neg(right), left))))


def neg(f: Formula) -> Formula:
    """Negate a PNF formula, pushing the negation down to atoms."""
    k = f.kind
    if k == "true":
        return _FALSE
    if k == "false":
        return _TRUE
    if k == "atom":
        return natom(f.name)
    if k == "natom":
        return atom(f.name)
    if k == "and":
        return f_or(neg(c) for c in f.children)
    if k == "or":
        return f_and(neg(c) for c in f.children)
    if k == "X":
        return f_next(neg(f.left))
    if k == "U":
        return f_release(neg(f.left), neg(f.right))
    if k == "R":
        return f_until(neg(f.left), neg(f.right))
    raise ValueError(f"unknown formula kind {k!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Postorder iteration over distinct subterms (each yielded once)."""
    seen: set[int] = set()

    def walk(g: Formula) -> Iterator[Formula]:
        if g.key in seen:
            return
        seen.add(g.key)
        for c in _parts(g):
            yield from walk(c)
        yield g

    yield from walk(f)


# -- printing ---------------------------------------------------------------

_PREC = {"atom": 100, "natom": 100, "true": 100, "false": 100,
         "X": 90, "U": 80, "R": 80, "and": 70, "or": 60}


def to_str(f: Formula) -> str:
    return _render(f, 0)


def _unary_operand(f: Formula) -> str:
    # unary chains (X F i1) and atomic operands need no parentheses
    if f.kind in ("atom", "natom", "true", "false", "X") or \
            (f.kind == "U" and f.left is _TRUE) or (f.kind == "R" and f.left is _FALSE):
        return _render(f, 0)
    return f"({_render(f, 0)})"


def _render(f: Formula, outer: int) -> str:
    k = f.kind
    if k == "true":
        s = "true"
    elif k == "false":
        s = "false"
    elif k == "atom":
        s = f.name
    elif k == "natom":
        s = f"!{f.name}"
    elif k == "X":
        s = f"X {_unary_operand(f.left)}"
    elif k == "U":
        if f.left is _TRUE:
            s = f"F {_unary_operand(f.right)}"
        else:
            s = f"{_render(f.left, _PREC['U'] + 1)} U {_render(f.right, _PREC['U'])}"
    elif k == "R":
        if f.left is _FALSE:
            s = f"G {_unary_operand(f.right)}"
        else:
            s = f"{_render(f.left, _PREC['R'] + 1)} R {_render(f.right, _PREC['R'])}"
    elif k == "and":
        s = " && ".join(_render(c, _PREC["and"] + 1) for c in f.children)
    elif k == "or":
        s = " || ".join(_render(c, _PREC["or"] + 1) for c in f.children)
    else:
        raise ValueError(f"unknown formula kind {k!r}")
    if _PREC[k] < outer:
        return f"({s})"
    return s


# -- two-level canonical form -------------------------------------------------


def dnf_units(f: Formula) -> list[frozenset[Formula]]:
    """Disjuncts of a positive boolean combination as sets of non-boolean
    conjunct units; subsumed (strictly stronger) disjuncts are pruned.

    ``true`` yields one empty disjunct, ``false`` none.
    """
    if f.kind == "true":
        return [frozenset()]
    if f.kind == "false":
        return []
    if f.kind == "or":
        out: list[frozenset[Formula]] = []
        for c in f.children:
            out.extend(dnf_units(c))
        return _prune_subsumed(out)
    if f.kind == "and":
        acc: list[frozenset[Formula]] = [frozenset()]
        for c in f.children:
            parts = dnf_units(c)
            acc = [a | p for a in acc for p in parts]
        return _prune_subsumed(acc)
    return [frozenset((f,))]


def _prune_subsumed(disjuncts: list[frozenset[Formula]]) -> list[frozenset[Formula]]:
    uniq = list(dict.fromkeys(disjuncts))
    return [d for d in uniq if not any(other < d for other in uniq)]


def from_dnf(disjuncts: Iterable[frozenset[Formula]]) -> Formula:
    return f_or(f_and(sorted(d, key=lambda g: g.key)) for d in disjuncts)


def canonical(f: Formula) -> Formula:
    """Canonical two-level or-of-ands form over non-boolean units.

    Derivative-style rewriting (``af`` and friends) normalizes every result
    with this, which keeps iterated derivatives at bounded depth and makes
    their closure finite.
    """
    if f.kind not in ("and", "or"):
        return f
    return from_dnf(dnf_units(f))

