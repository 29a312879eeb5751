"""Seeded random generators shared by the property suites, and the oracles
they check against: trace and lasso enumeration, a lasso's suffixes, and
fold-based formula measures that the library does not need."""

from __future__ import annotations

import itertools
import random

from liveupdate.formula import (
    Formula,
    atom,
    f_and,
    f_eventually,
    f_globally,
    f_next,
    f_or,
    f_release,
    f_until,
    fold,
    natom,
    t_false,
    t_true,
)
from liveupdate.machine import MooreMachine
from liveupdate.traces import APTable, Cube, FiniteTrace, LassoTrace


def random_formula(rng: random.Random, aps: list[str], depth: int,
                   allow_false: bool = True) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(["atom", "atom", "natom", "true"] + (["false"] if allow_false else []))
        if kind == "atom":
            return atom(rng.choice(aps))
        if kind == "natom":
            return natom(rng.choice(aps))
        return t_true() if kind == "true" else t_false()
    kind = rng.choice(["and", "or", "X", "U", "R", "F", "G"])
    if kind == "and":
        return f_and([random_formula(rng, aps, depth - 1, allow_false) for _ in range(2)])
    if kind == "or":
        return f_or([random_formula(rng, aps, depth - 1, allow_false) for _ in range(2)])
    if kind == "X":
        return f_next(random_formula(rng, aps, depth - 1, allow_false))
    if kind == "U":
        return f_until(random_formula(rng, aps, depth - 1, allow_false),
                       random_formula(rng, aps, depth - 1, allow_false))
    if kind == "R":
        return f_release(random_formula(rng, aps, depth - 1, allow_false),
                         random_formula(rng, aps, depth - 1, allow_false))
    if kind == "F":
        return f_eventually(random_formula(rng, aps, depth - 1, allow_false))
    return f_globally(random_formula(rng, aps, depth - 1, allow_false))


def until_chain(n: int) -> str:
    """``X (g U (r U (g U ... (r U r))))``: ``n`` untils, from the outside in
    ``g U`` and ``r U`` in turn, around ``r``."""
    text = "r"
    for i in reversed(range(n)):
        text = f"({'gr'[i % 2]} U {text})"
    return f"X {text}"


def random_letter(rng: random.Random, aps: list[str], density: float = 0.5) -> frozenset:
    return frozenset(a for a in aps if rng.random() < density)


def random_lasso(rng: random.Random, aps: list[str], max_prefix: int = 3,
                 max_loop: int = 3) -> LassoTrace:
    prefix = tuple(random_letter(rng, aps) for _ in range(rng.randrange(0, max_prefix + 1)))
    loop = tuple(random_letter(rng, aps) for _ in range(rng.randrange(1, max_loop + 1)))
    return LassoTrace(prefix, loop)


def random_trace(rng: random.Random, aps: list[str], max_len: int = 4) -> tuple:
    return tuple(random_letter(rng, aps) for _ in range(rng.randrange(0, max_len + 1)))


def random_machine(rng: random.Random, ap: APTable, max_states: int = 3) -> MooreMachine:
    k = rng.randrange(1, max_states + 1)
    letters = [frozenset(c) for r in range(len(ap.inputs) + 1)
               for c in itertools.combinations(ap.inputs, r)]
    names = [f"s{i}" for i in range(k)]
    outputs = [frozenset(o for o in ap.outputs if rng.random() < 0.5) for _ in range(k)]
    edges = []
    for _ in range(k):
        row = [(Cube(inp, frozenset(ap.inputs) - inp), rng.randrange(k)) for inp in letters]
        edges.append(row)
    return MooreMachine(ap, names, 0, outputs, edges)


def temporal_depth(f: Formula) -> int:
    """Maximum nesting of temporal operators (X/U/R)."""
    return fold(f, lambda g, below: max(below, default=0) + (g.kind in ("X", "U", "R")))


def is_release_free(f: Formula) -> bool:
    return fold(f, lambda g, below: g.kind != "R" and all(below))


def fin_traces(m: MooreMachine, depth: int) -> set[FiniteTrace]:
    """All traces of ``m`` of length at most ``depth`` (exponential)."""
    result: set[FiniteTrace] = {()}
    frontier: list[tuple[int, FiniteTrace]] = [(m.initial, ())]
    for _ in range(depth):
        frontier = [(dst, trace + (letter,)) for state, trace in frontier
                    for _inp, letter, dst in m.moves(state)]
        result.update(trace for _, trace in frontier)
    return result


def all_lassos(m: MooreMachine, input_period: int):
    """The lassos of ``m`` induced by ultimately periodic input words with
    prefix plus period at most ``input_period``."""
    letters = m.input_letters()
    for total in range(1, input_period + 1):
        for plen in range(0, total):
            for combo in itertools.product(letters, repeat=total):
                yield m.lasso_for(combo[:plen], combo[plen:])


def drop(sig: LassoTrace, n: int) -> LassoTrace:
    """The suffix word of ``sig`` from position ``n`` on, renormalized as a lasso."""
    if n <= len(sig.prefix):
        return LassoTrace(sig.prefix[n:], sig.loop)
    k = (n - len(sig.prefix)) % len(sig.loop)
    return LassoTrace((), sig.loop[k:] + sig.loop[:k])
