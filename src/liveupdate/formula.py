"""LTL abstract syntax in release-positive normal form.

Formulas are immutable and hash-consed: structurally identical terms share a
single representative, and that object is the formula's identity, so equality
is ``is`` and costs O(1), and its hash is the built-in identity hash.  The
iteration order of a set of formulas therefore follows memory addresses, and
no result may follow it.  Every formula also carries an integer ``key``, a
hash of its structure alone, which orders the operands of ``and``/``or``, so
no result depends on which formulas the process built before.  The key and
the ``atoms``, the propositions that the formula mentions, are fixed when it
is interned.

Construction goes through the module-level builders (``atom``, ``f_and``,
``f_until``, ...) which keep terms in normal form: negation exists only on
atoms, commutative operators are flattened, sorted and deduplicated, and light
propositional simplification is applied (constant folding, complementary
literals, absorption).  Simplification is deliberately syntactic -- two
logically equivalent formulas may still be distinct terms.

Every walk over a formula is a ``fold``: one post-order pass over its
distinct nodes that keeps its own stack, so a shared subterm is visited once
and no nesting depth exhausts Python's recursion limit.  The negation, the
DNF and the canonical form of a formula are memoized in process-wide tables
until ``liveupdate.forget()``; the intern table, and with it each formula's
``key`` and ``atoms``, outlives it, so a formula built before is the one
built after.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

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
    "fold",
    "operands",
    "rebuild",
    "rename",
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

    The interned object is the identity and the hash (no ``__eq__`` or
    ``__hash__`` is defined); ``key``, a 61-bit hash of the kind, the name
    and the operands' keys, orders the operands of ``and``/``or``.  ``atoms``
    is the set of proposition names occurring in the formula.  Both are set
    when the node is interned and outlive ``forget()``.
    """

    __slots__ = ("kind", "name", "left", "right", "children", "key", "atoms")

    _intern: dict[tuple, "Formula"] = {}

    kind: str
    name: str | None
    left: "Formula | None"
    right: "Formula | None"
    children: tuple["Formula", ...]
    key: int
    atoms: frozenset[str]

    def __str__(self) -> str:
        return to_str(self)

    def __repr__(self) -> str:
        return f"<Formula {to_str(self)}>"


def operands(f: Formula) -> tuple[Formula, ...]:
    """The operands of ``f``: and/or children, or left (and right)."""
    k = f.kind
    if k == "U" or k == "R":
        return (f.left, f.right)
    if k == "X":
        return (f.left,)
    return f.children


T = TypeVar("T")


def fold(f: Formula, step: Callable[[Formula, list], T],
         below: Callable[[Formula], tuple[Formula, ...]] = operands, memo: dict | None = None) -> T:
    """``step(g, results)`` for ``f`` and each node under it, where
    ``results`` are the results of ``below(g)`` (by default its operands), in
    order.  Each distinct node is stepped once, in the post-order of a
    depth-first walk, and its result goes to ``memo``; a node already there is
    not stepped again, so a memo kept across calls carries over.  The walk
    keeps its own stack: no nesting depth exhausts Python's."""
    if memo is None:
        memo = {}
    got = memo.get(f)
    if got is not None:
        return got
    stack: list = [f]  # nodes to visit, and (node, operands) to step once its operands are
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g, parts = g
            memo[g] = step(g, list(map(memo.__getitem__, parts)))
        elif g not in memo:
            parts = below(g)
            stack.append((g, parts))
            for c in reversed(parts):
                if c not in memo:
                    stack.append(c)
    return memo[f]


# formula -> its negation, until ``forget()``
_NEG: dict[Formula, Formula] = {}


_KIND_INDEX = {k: i for i, k in enumerate(("true", "false", "atom", "natom", "and", "or", "X", "U", "R"))}
_KEY_MASK = (1 << 61) - 1


def _mk(kind: str, name: str | None = None, left: Formula | None = None,
        right: Formula | None = None, children: tuple[Formula, ...] = ()) -> Formula:
    sig = (kind, name, left, right, children)
    got = Formula._intern.get(sig)
    if got is not None:
        return got
    f = object.__new__(Formula)
    f.kind = kind
    f.name = name
    f.left = left
    f.right = right
    f.children = children
    below = operands(f)
    # hash() of ints and of tuples of ints ignores the string hash seed
    f.key = hash((_KIND_INDEX[kind], int.from_bytes(name.encode(), "big") if name else 0,
                  *[g.key for g in below])) & _KEY_MASK
    atoms = frozenset((name,)) if name else frozenset()
    for g in below:  # an operand's set is shared when it holds every other operand's
        if not g.atoms <= atoms:
            atoms = g.atoms if atoms <= g.atoms else atoms | g.atoms
    f.atoms = atoms
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
    flat: dict[Formula, None] = {}
    for p in parts:
        if p is zero:
            return zero
        if p is unit:
            continue
        if p.kind == kind:
            flat.update(dict.fromkeys(p.children))
        else:
            flat[p] = None
    if not flat:
        return unit
    # complementary literals collapse to the absorbing constant
    negated = {f.name for f in flat if f.kind == "natom"}
    if negated and any(f.kind == "atom" and f.name in negated for f in flat):
        return zero
    # absorption: x & (x | y) = x  /  x | (x & y) = x
    dual = "or" if kind == "and" else "and"
    members = flat.keys()
    kept = [f for f in flat if f.kind != dual or members.isdisjoint(f.children)]
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


_DUAL = {"true": "false", "false": "true", "atom": "natom", "natom": "atom",
         "and": "or", "or": "and", "X": "X", "U": "R", "R": "U"}


def neg(f: Formula) -> Formula:
    """Negate a PNF formula, pushing the negation down to atoms."""
    return fold(f, lambda g, below: rebuild(g, below, _DUAL[g.kind]), memo=_NEG)


def rebuild(f: Formula, parts: list[Formula], kind: str | None = None) -> Formula:
    """A node of ``kind`` (``f``'s own by default) over ``parts``, which stand
    for ``operands(f)`` in order, through the builders; a leaf keeps ``f``'s
    name."""
    k = kind or f.kind
    if k == "and" or k == "or":
        return _nary(k, parts)
    if k == "X":
        return f_next(parts[0])
    if k == "U":
        return f_until(*parts)
    if k == "R":
        return f_release(*parts)
    return f if k == f.kind else _mk(k, name=f.name)


def rename(f: Formula, to: dict[str, str]) -> Formula:
    """``f`` with each proposition ``a`` replaced by ``to[a]``."""
    return fold(f, lambda g, below: _mk(g.kind, name=to[g.name]) if g.name else rebuild(g, below))


def subformulas(f: Formula) -> Iterator[Formula]:
    """Postorder iteration over distinct subterms (each yielded once)."""
    order: list[Formula] = []
    fold(f, lambda g, _: order.append(g))
    return iter(order)


# -- printing ---------------------------------------------------------------

_PREC = {"atom": 100, "natom": 100, "true": 100, "false": 100,
         "X": 90, "U": 80, "R": 80, "and": 70, "or": 60}


def to_str(f: Formula) -> str:
    return fold(f, _render)


def _render(f: Formula, texts: list[str]) -> str:
    k = f.kind
    if k == "atom":
        return f.name
    if k == "natom":
        return f"!{f.name}"
    if k == "X":
        return f"X {_unary_operand(f.left, texts[0])}"
    if k == "U" and f.left is _TRUE:
        return f"F {_unary_operand(f.right, texts[1])}"
    if k == "R" and f.left is _FALSE:
        return f"G {_unary_operand(f.right, texts[1])}"
    if k == "U" or k == "R":
        return f"{_wrap(f.left, texts[0], _PREC[k] + 1)} {k} {_wrap(f.right, texts[1], _PREC[k])}"
    if k == "and" or k == "or":
        sep = " && " if k == "and" else " || "
        return sep.join(_wrap(c, t, _PREC[k] + 1) for c, t in zip(f.children, texts))
    return k  # true, false


def _wrap(f: Formula, text: str, outer: int) -> str:
    return f"({text})" if _PREC[f.kind] < outer else text


def _unary_operand(f: Formula, text: str) -> str:
    # unary chains (X F i1) and atomic operands need no parentheses
    if f.kind in ("atom", "natom", "true", "false", "X") or \
            (f.kind == "U" and f.left is _TRUE) or (f.kind == "R" and f.left is _FALSE):
        return text
    return f"({text})"


# -- two-level canonical form -------------------------------------------------


# formula -> its pruned disjuncts; tuples, so no caller can change an entry
_DNF: dict[Formula, tuple[frozenset[Formula], ...]] = {}


def dnf_units(f: Formula) -> tuple[frozenset[Formula], ...]:
    """Disjuncts of a positive boolean combination as sets of non-boolean
    conjunct units; subsumed (strictly stronger) disjuncts are pruned.

    ``true`` yields one empty disjunct, ``false`` none.  The result is
    memoized per formula, operands included, until ``forget()``.
    """
    return fold(f, _dnf_step, lambda g: g.children, _DNF)


def _dnf_step(f: Formula, below: list[tuple[frozenset[Formula], ...]]) -> tuple[frozenset[Formula], ...]:
    k = f.kind
    if k == "or":
        return tuple(_prune_subsumed([d for parts in below for d in parts]))
    if k == "and":
        acc: list[frozenset[Formula]] = [frozenset()]
        for parts in below:
            acc = [a | p for a in acc for p in parts]
        return tuple(_prune_subsumed(acc))
    if k == "true":
        return (frozenset(),)
    if k == "false":
        return ()
    return (frozenset((f,)),)


def _prune_subsumed(disjuncts: list[frozenset[Formula]]) -> list[frozenset[Formula]]:
    """The disjuncts with no proper subset among them, once each, in their
    first order.  Smaller disjuncts come first, and each minimal one is filed
    under one of its units, so a disjunct is compared only with the minimal
    disjuncts filed under its own units."""
    if len(disjuncts) < 2:
        return disjuncts
    uniq = list(dict.fromkeys(disjuncts))
    filed: dict[Formula, list[frozenset[Formula]]] = {}
    subsumed = set()
    for d in sorted(uniq, key=len):
        for u in d:
            for m in filed.get(u, ()):
                if m < d:
                    subsumed.add(d)
                    break
            else:
                continue
            break  # d is subsumed
        else:  # d is minimal: file it under its last unit
            if not d:  # true subsumes every other disjunct
                return [d]
            filed.setdefault(u, []).append(d)
    return [d for d in uniq if d not in subsumed] if subsumed else uniq


def from_dnf(disjuncts: Iterable[frozenset[Formula]]) -> Formula:
    return f_or(f_and(d) for d in disjuncts)


# formula -> its canonical form, until ``forget()``
_CANON: dict[Formula, Formula] = {}


def canonical(f: Formula) -> Formula:
    """Canonical two-level or-of-ands form over non-boolean units.

    Derivative-style rewriting (``af`` and friends) normalizes every result
    with this, which keeps iterated derivatives at bounded depth and makes
    their closure finite.  The result is memoized per formula until
    ``forget()``.
    """
    if f.kind not in ("and", "or"):
        return f
    got = _CANON.get(f)
    if got is None:
        got = _CANON[f] = from_dnf(dnf_units(f))
    return got

