"""Recursive reference versions of the formula transformers.

The library folds every transformer with one explicit-stack walk
(``formula.fold``).  These are the same rules written as plain recursion over
the builders, one call per operand, so the property suites can compare the
two on random formulas.  They recurse once per nesting level, so they serve
shallow formulas only.  ``positional_edge_step`` is the edge step written in
the positional calculus, the semantic reference of ``edge_step``.
``ltl_to_nba`` is the automaton translation in two passes -- a generalized
automaton over conjunct sets, then its degeneralization -- with the acceptance
bookkeeping of one root formula: each step scans every until of the root for
the ones it fulfills.
"""

from __future__ import annotations

from liveupdate.automata import BuchiAutomaton, _coreachable, explore
from liveupdate.formula import (
    Formula,
    _prune_subsumed,
    atom,
    canonical,
    f_and,
    f_next,
    f_or,
    f_release,
    f_until,
    natom,
    t_false,
    t_true,
)
from liveupdate.traces import Cube, all_letters

_DUAL = {"true": "false", "false": "true", "atom": "natom", "natom": "atom",
         "and": "or", "or": "and", "X": "X", "U": "R", "R": "U"}
_PREC = {"atom": 100, "natom": 100, "true": 100, "false": 100,
         "X": 90, "U": 80, "R": 80, "and": 70, "or": 60}


def rebuild(f: Formula, op, kind: str | None = None) -> Formula:
    """A node of ``kind`` (``f``'s own by default) over ``op`` of each operand."""
    k = kind or f.kind
    if k in ("and", "or"):
        build = f_and if k == "and" else f_or
        return build(map(op, f.children))
    if k == "X":
        return f_next(op(f.left))
    if k == "U":
        return f_until(op(f.left), op(f.right))
    if k == "R":
        return f_release(op(f.left), op(f.right))
    return f


def operands(f: Formula) -> tuple[Formula, ...]:
    if f.kind in ("and", "or"):
        return f.children
    if f.kind == "X":
        return (f.left,)
    if f.kind in ("U", "R"):
        return (f.left, f.right)
    return ()


def neg(f: Formula) -> Formula:
    if f.kind == "atom":
        return natom(f.name)
    if f.kind == "natom":
        return atom(f.name)
    if f.kind in ("true", "false"):
        return t_false() if f.kind == "true" else t_true()
    return rebuild(f, neg, _DUAL[f.kind])


def subformulas(f: Formula) -> list[Formula]:
    seen: set[Formula] = set()
    order: list[Formula] = []

    def walk(g: Formula) -> None:
        if g in seen:
            return
        seen.add(g)
        for c in operands(g):
            walk(c)
        order.append(g)

    walk(f)
    return order


def is_release_free(f: Formula) -> bool:
    return f.kind != "R" and all(is_release_free(c) for c in operands(f))


def atoms(f: Formula) -> frozenset[str]:
    if f.kind in ("atom", "natom"):
        return frozenset((f.name,))
    return frozenset().union(*(atoms(c) for c in operands(f)))


def temporal_depth(f: Formula) -> int:
    inner = max((temporal_depth(c) for c in operands(f)), default=0)
    return inner + (1 if f.kind in ("X", "U", "R") else 0)


def to_str(f: Formula) -> str:
    return _render(f, 0)


def _unary_operand(f: Formula) -> str:
    if f.kind in ("atom", "natom", "true", "false", "X") or \
            (f.kind == "U" and f.left is t_true()) or (f.kind == "R" and f.left is t_false()):
        return _render(f, 0)
    return f"({_render(f, 0)})"


def _render(f: Formula, outer: int) -> str:
    k = f.kind
    if k in ("true", "false"):
        s = k
    elif k == "atom":
        s = f.name
    elif k == "natom":
        s = f"!{f.name}"
    elif k == "X":
        s = f"X {_unary_operand(f.left)}"
    elif k == "U" and f.left is t_true():
        s = f"F {_unary_operand(f.right)}"
    elif k == "R" and f.left is t_false():
        s = f"G {_unary_operand(f.right)}"
    elif k in ("U", "R"):
        s = f"{_render(f.left, _PREC[k] + 1)} {k} {_render(f.right, _PREC[k])}"
    else:
        sep = " && " if k == "and" else " || "
        s = sep.join(_render(c, _PREC[k] + 1) for c in f.children)
    return f"({s})" if _PREC[k] < outer else s


def dnf_units(f: Formula) -> tuple[frozenset[Formula], ...]:
    k = f.kind
    if k == "true":
        return (frozenset(),)
    if k == "false":
        return ()
    if k == "or":
        return tuple(_prune_subsumed([d for c in f.children for d in dnf_units(c)]))
    if k == "and":
        acc: list[frozenset[Formula]] = [frozenset()]
        for c in f.children:
            acc = [x | y for x in acc for y in dnf_units(c)]
        return tuple(_prune_subsumed(acc))
    return (frozenset((f,)),)


def af(f: Formula, letter) -> Formula:
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k in ("and", "or"):
        return rebuild(f, lambda c: af(c, letter))
    if k == "X":
        return f.left
    if k == "U":
        return f_or((af(f.right, letter), f_and((af(f.left, letter), f))))
    ar = af(f.right, letter)
    return f_or((f_and((af(f.left, letter), ar)), f_and((ar, f))))


def edge_step(f: Formula, letter) -> Formula:
    return canonical(_edge_step(f, letter))


def _edge_step(f: Formula, letter) -> Formula:
    k = f.kind
    if k in ("and", "or"):
        return rebuild(f, lambda c: _edge_step(c, letter))
    if k == "U":
        return f_or((_edge_step(f.right, letter), f_and((_edge_step(f.left, letter), f))))
    if k == "R":
        ar = _raised(canonical(af(f.right, letter)))
        return f_or((f_and((_raised(canonical(af(f.left, letter))), ar)), f_and((ar, f))))
    return af(f, letter)  # a leaf or a next


def _raised(f: Formula) -> Formula:
    if f.kind == "and":
        return f_and(f_next(c) for c in f.children)
    return f_next(f)


# Positional evaluation keeps next-guarded parts guarded, so
# ``positional(f, a)`` is equivalent to ``X af(f, a)``.
# ``positional_edge_step`` raises a release's operands through it; it is the
# semantic reference of ``edge_step``: the two agree up to LTL equivalence,
# not in syntax.


def positional(f: Formula, letter) -> Formula:
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k in ("and", "or"):
        return rebuild(f, lambda c: positional(c, letter))
    if k == "X":
        return f
    if k == "U":
        return f_or((positional(f.right, letter), f_and((positional(f.left, letter), f_next(f)))))
    pr = positional(f.right, letter)
    return f_or((f_and((positional(f.left, letter), pr)), f_and((pr, f_next(f)))))


def positional_edge_step(f: Formula, letter) -> Formula:
    return canonical(_positional_edge_step(f, letter))


def _positional_edge_step(f: Formula, letter) -> Formula:
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "atom":
        return t_true() if f.name in letter else t_false()
    if k == "natom":
        return t_false() if f.name in letter else t_true()
    if k in ("and", "or"):
        return rebuild(f, lambda c: _positional_edge_step(c, letter))
    if k == "X":
        return f.left
    if k == "U":
        return f_or((_positional_edge_step(f.right, letter), f_and((_positional_edge_step(f.left, letter), f))))
    pr = positional(f.right, letter)
    return f_or((f_and((positional(f.left, letter), pr)), f_and((pr, f))))


def expand(f: Formula) -> Formula:
    k = f.kind
    if k == "U":
        return f_or((expand(f.right), f_and((expand(f.left), f_next(f)))))
    if k == "R":
        er = expand(f.right)
        return f_or((f_and((expand(f.left), er)), f_and((er, f_next(f)))))
    return rebuild(f, expand)


def strip(f: Formula) -> Formula:
    return t_true() if f.kind == "R" else rebuild(f, strip)


def bound_releases(f: Formula, up: Formula, no_more: Formula) -> Formula:
    if f.kind != "R":
        return rebuild(f, lambda c: bound_releases(c, up, no_more))
    l = bound_releases(f.left, up, no_more)
    r = bound_releases(f.right, up, no_more)
    return f_or((f_until(r, f_or((f_and((up, r)), f_and((l, r))))), no_more))


def ltl_to_nba(f: Formula) -> BuchiAutomaton:
    untils = tuple(g for g in subformulas(f) if g.kind == "U")
    m = len(untils)
    init_units = frozenset(f.children if f.kind == "and" else () if f.kind == "true" else (f,))

    def successors(units):
        state_formula = f_and(units)
        atoms_ = atoms(state_formula)
        for letter in all_letters(sorted(atoms_)):
            for d in dnf_units(canonical(af(state_formula, letter))):
                fulfilled = frozenset(
                    i for i, u in enumerate(untils)
                    if u not in d or any(rd <= d for rd in dnf_units(canonical(af(u.right, letter)))))
                yield (Cube(letter, atoms_ - letter), fulfilled), d

    order, gtrans = explore([init_units], successors)

    def degeneralized(node):
        g, c = node
        for (cube, fulfilled), dst in gtrans[g]:
            j = 0 if c == m else c
            while j < m and j in fulfilled:
                j += 1
            yield cube, (dst, j)

    nodes, rows = explore([(0, 0)], degeneralized)
    keep = _coreachable(rows, lambda i: nodes[i][1] == m)
    new = {old: i for i, old in enumerate(keep)}
    return BuchiAutomaton(
        ap=tuple(sorted(atoms(f))),
        labels=tuple((f_and(order[nodes[i][0]]), nodes[i][1]) for i in keep),
        initial=(0,) if 0 in new else (),
        edges=tuple(tuple((cube, new[dst]) for cube, dst in rows[i] if dst in new) for i in keep),
        accepting=frozenset(new[i] for i in keep if nodes[i][1] == m),
    )
