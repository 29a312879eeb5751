"""Parser for the ASCII LTL grammar.

Grammar: literals ``true``/``false``, atoms ``[a-zA-Z_][a-zA-Z0-9_]*``, unary
``! X F G``, binary ``&& || -> <-> U R``, parentheses.  Precedence, tightest
first: unary, U/R (right associative), ``&&``, ``||``, ``->``, ``<->``.

Sugar is desugared on the fly (``F a`` to ``true U a``, ``G a`` to
``false R a``, implications via disjunction) and general negation is pushed to
the atoms, so the result is always in release-positive normal form.
"""

from __future__ import annotations

import re

from .formula import (
    Formula,
    atom,
    f_and,
    f_eventually,
    f_globally,
    f_iff,
    f_implies,
    f_next,
    f_or,
    f_release,
    f_until,
    neg,
    t_false,
    t_true,
)

__all__ = ["parse_formula", "is_atom_name", "LtlSyntaxError", "UndeclaredPropositionError"]


class LtlSyntaxError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UndeclaredPropositionError(ValueError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"undeclared proposition {name!r} (at position {pos})")
        self.name = name
        self.pos = pos


_WORD = r"[a-zA-Z_][a-zA-Z0-9_]*"
_TOKEN = re.compile(rf"\s*(?:(?P<op>&&|\|\||->|<->|[!()])|(?P<word>{_WORD}))")
_KEYWORDS = {"true", "false", "X", "F", "G", "U", "R"}


def is_atom_name(name: str) -> bool:
    """Whether a formula can mention the proposition ``name``: an identifier
    that is no keyword."""
    return re.fullmatch(_WORD, name) is not None and name not in _KEYWORDS


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise LtlSyntaxError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        else:
            word = m.group("word")
            kind = "kw" if word in _KEYWORDS else "name"
            tokens.append((kind, word, m.start("word")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# binary operators: (precedence, loosest first; builder over the operands).
# ``&&``/``||`` chains build one n-ary node, the others associate to the right.
_BINARY = {
    "<->": (1, lambda parts: f_iff(*parts)),
    "->": (2, lambda parts: f_implies(*parts)),
    "||": (3, f_or),
    "&&": (4, f_and),
    "U": (5, lambda parts: f_until(*parts)),
    "R": (5, lambda parts: f_release(*parts)),
}
_UNARY = {"!": neg, "X": f_next, "F": f_eventually, "G": f_globally}


def parse_formula(text: str, declared: frozenset[str] | None = None) -> Formula:
    """Parse ``text`` into a PNF hash-consed formula.

    When ``declared`` is given, any proposition outside it raises
    UndeclaredPropositionError.
    """
    tokens = _tokenize(text)
    out: list[Formula] = []  # operands built so far
    ops: list[str] = []  # pending operators and open parentheses
    depth = 0  # open parentheses
    i = 0
    while True:
        kind, val, pos = tokens[i]
        i += 1
        if val == "(":
            depth += 1
        if val == "(" or val in _UNARY:
            ops.append(val)
            continue
        if kind == "name":
            if declared is not None and val not in declared:
                raise UndeclaredPropositionError(val, pos)
            out.append(atom(val))
        elif val in ("true", "false"):
            out.append(t_true() if val == "true" else t_false())
        else:
            raise LtlSyntaxError(f"unexpected {val or 'end of input'!r}", pos)
        # an operand is complete: apply its prefix operators, close parentheses
        while True:
            while ops and ops[-1] in _UNARY:
                out.append(_UNARY[ops.pop()](out.pop()))
            kind, val, pos = tokens[i]
            i += 1
            if val != ")" or not depth:
                break
            _reduce(ops, out, 0)
            ops.pop()
            depth -= 1
        if kind == "end" and not depth:
            _reduce(ops, out, 0)
            return out[0]
        if val not in _BINARY:
            if depth:
                raise LtlSyntaxError(f"expected ')', found {val or 'end of input'!r}", pos)
            raise LtlSyntaxError(f"trailing input {val!r}", pos)
        _reduce(ops, out, _BINARY[val][0])
        ops.append(val)


def _reduce(ops: list[str], out: list[Formula], prec: int) -> None:
    """Build the pending binary operators that bind tighter than ``prec``."""
    while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] > prec:
        op = ops.pop()
        n = 2
        while op in ("&&", "||") and ops and ops[-1] == op:
            ops.pop()
            n += 1
        parts = out[-n:]
        del out[-n:]
        out.append(_BINARY[op][1](parts))
