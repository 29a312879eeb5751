"""Test oracle: propositional equivalence of formulas whose temporal subtrees
are treated as opaque atoms."""

from liveupdate.formula import Formula, atom


def _prop_vars(f: Formula, table: dict[Formula, int]) -> None:
    if f.kind in ("and", "or"):
        for c in f.children:
            _prop_vars(c, table)
    elif f.kind not in ("true", "false"):
        # atoms, negated atoms and whole temporal subtrees are opaque;
        # a and !a are folded onto one variable below.
        base = atom(f.name) if f.kind == "natom" else f
        if base not in table:
            table[base] = len(table)


def _prop_eval(f: Formula, table: dict[Formula, int], row: int) -> bool:
    k = f.kind
    if k == "true":
        return True
    if k == "false":
        return False
    if k == "and":
        return all(_prop_eval(c, table, row) for c in f.children)
    if k == "or":
        return any(_prop_eval(c, table, row) for c in f.children)
    if k == "natom":
        return not bool(row >> table[atom(f.name)] & 1)
    return bool(row >> table[f] & 1)


def prop_equivalent(f: Formula, g: Formula, max_vars: int = 16) -> bool:
    """Propositional equivalence with temporal subtrees treated as opaque atoms.

    Raises ValueError if the combined formulas mention more than ``max_vars``
    distinct blocks (the check is a truth-table enumeration).
    """
    table: dict[Formula, int] = {}
    _prop_vars(f, table)
    _prop_vars(g, table)
    if len(table) > max_vars:
        raise ValueError(f"too many propositional blocks ({len(table)}) for equivalence check")
    return all(
        _prop_eval(f, table, row) == _prop_eval(g, table, row)
        for row in range(1 << len(table))
    )
