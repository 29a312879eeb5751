"""Atomic-proposition tables, finite traces and lasso traces.

A letter is a ``frozenset`` of proposition names, a finite trace a tuple of
letters, and a lasso the ultimately periodic word ``prefix . loop^omega``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .formula import Formula
from .parser import is_atom_name

__all__ = ["APTable", "Cube", "FiniteTrace", "Letter", "LassoTrace", "all_letters", "parse_trace",
           "format_trace"]

Letter = frozenset
FiniteTrace = tuple  # tuple[Letter, ...]


@dataclass(frozen=True)
class Cube:
    """Conjunction of literals over propositions: ``pos`` hold, ``neg`` do not."""

    pos: frozenset[str]
    neg: frozenset[str]

    def matches(self, letter: Letter) -> bool:
        return self.pos <= letter and not (self.neg & letter)

    def __str__(self) -> str:
        lits = [*sorted(self.pos)] + [f"!{a}" for a in sorted(self.neg)]
        return " & ".join(lits) if lits else "*"

    @staticmethod
    def parse(text: str, allowed: frozenset[str]) -> "Cube":
        """A cube over the inputs ``allowed``: ``&``-separated literals, or ``*``."""
        text = text.strip()
        if text == "*":
            return Cube(frozenset(), frozenset())
        pos, neg = set(), set()
        for lit in text.split("&"):
            lit = lit.strip()
            name = lit[1:].strip() if lit.startswith("!") else lit
            if name not in allowed:
                raise ValueError(f"cube literal {lit!r} is not a declared input")
            (neg if lit.startswith("!") else pos).add(name)
        if pos & neg:
            raise ValueError(f"contradictory cube {text!r}")
        return Cube(frozenset(pos), frozenset(neg))


@dataclass(frozen=True)
class APTable:
    """Input/output partition of the atomic propositions."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    all: frozenset[str] = field(init=False, repr=False, compare=False)  # every name

    def __post_init__(self):
        names = list(self.inputs) + list(self.outputs)
        if len(set(names)) != len(names):
            raise ValueError("duplicate proposition names in AP table")
        unnamable = [a for a in names if not is_atom_name(a)]
        if unnamable:
            raise ValueError(f"proposition names no formula can mention: {unnamable}")
        object.__setattr__(self, "all", frozenset(names))

    def check_formula(self, f: Formula) -> None:
        extra = f.atoms - self.all
        if extra:
            raise ValueError(f"formula mentions undeclared propositions: {sorted(extra)}")

    def check_letter(self, letter: Letter) -> None:
        if not self.all.issuperset(letter):
            extra = sorted(set(letter) - self.all)
            raise ValueError(f"letter mentions undeclared propositions: {extra}")

    def union(self, other: "APTable") -> "APTable":
        ins = list(self.inputs) + [a for a in other.inputs if a not in self.inputs]
        outs = list(self.outputs) + [a for a in other.outputs if a not in self.outputs]
        return APTable(tuple(ins), tuple(outs))


@dataclass(frozen=True)
class LassoTrace:
    """The infinite word ``prefix . loop^omega``; the loop is nonempty."""

    prefix: FiniteTrace
    loop: FiniteTrace

    def __post_init__(self):
        if len(self.loop) < 1:
            raise ValueError("lasso loop must be nonempty")

    @property
    def positions(self) -> int:
        """Number of distinct positions (prefix plus one loop unrolling)."""
        return len(self.prefix) + len(self.loop)

    def norm(self, i: int) -> int:
        """Normalize an absolute index into the distinct-position range."""
        p = len(self.prefix)
        if i < p:
            return i
        return p + (i - p) % len(self.loop)

    def letter(self, i: int) -> Letter:
        i = self.norm(i)
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[i - len(self.prefix)]

    def succ(self, i: int) -> int:
        """Successor inside the distinct-position range."""
        return i + 1 if i + 1 < self.positions else len(self.prefix)

    def prepend(self, eta: FiniteTrace) -> "LassoTrace":
        return LassoTrace(tuple(eta) + self.prefix, self.loop)


# proposition tuple -> its letters, so equal letters are one shared object
_LETTERS: dict[tuple[str, ...], tuple[Letter, ...]] = {}


def all_letters(props: Sequence[str]) -> tuple[Letter, ...]:
    """Every letter over ``props``; bit i of the position says whether the
    i-th proposition holds.  One tuple per proposition sequence is kept until
    ``liveupdate.forget()``."""
    props = tuple(props)
    got = _LETTERS.get(props)
    if got is None:
        got = _LETTERS[props] = tuple(frozenset(a for i, a in enumerate(props) if bits >> i & 1)
                                      for bits in range(1 << len(props)))
    return got


def parse_trace(text: str) -> FiniteTrace:
    """Parse ``;``-separated letters; atoms within a letter are whitespace
    separated, an empty segment (or ``-``) is the empty letter."""
    if not text.strip():
        return ()
    return tuple(frozenset() if seg.strip() == "-" else frozenset(seg.split()) for seg in text.split(";"))


def format_trace(trace: Iterable[Letter]) -> str:
    return " ; ".join(" ".join(sorted(letter)) if letter else "-" for letter in trace)
