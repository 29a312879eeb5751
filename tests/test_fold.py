"""The fold-based transformers against their recursive references, and on
formulas no recursion could walk: deep chains and shared DAGs."""

import random

import recursive
from gen import is_release_free, random_formula, temporal_depth
from liveupdate import formula, rewrite
from liveupdate.automata import ltl_to_nba, nba_emptiness
from liveupdate.formula import (atom, dnf_units, f_and, f_globally, f_next, f_or, f_until, fold, natom, neg,
                                subformulas, to_str)
from liveupdate.modelcheck import _bound_releases
from liveupdate.parser import parse_formula
from liveupdate.rewrite import af, edge_step, expand, strip
from liveupdate.traces import all_letters

LETTERS = all_letters(("a", "b", "c"))


def _samples(seed: int, n: int = 300):
    rng = random.Random(seed)
    return [random_formula(rng, ["a", "b", "c"], rng.randint(1, 5)) for _ in range(n)]


def test_formula_transformers_match_their_references():
    for f in _samples(2401):
        assert list(subformulas(f)) == recursive.subformulas(f)
        assert neg(f) is recursive.neg(f)
        assert f.atoms == recursive.atoms(f)
        assert temporal_depth(f) == recursive.temporal_depth(f)
        assert is_release_free(f) == recursive.is_release_free(f)
        assert to_str(f) == recursive.to_str(f)
        assert dnf_units(f) == recursive.dnf_units(f)


def test_rewrite_transformers_match_their_references():
    up, no_more = atom("update"), f_globally(natom("update"))
    for f in _samples(2402):
        assert strip(f) is recursive.strip(f)
        assert expand(f) is recursive.expand(f)
        assert _bound_releases(f, up, no_more) is recursive.bound_releases(f, up, no_more)
        for letter in LETTERS:
            assert rewrite._af(f, letter) is recursive.af(f, letter)
            assert edge_step(f, letter) is recursive.edge_step(f, letter)


def _equivalent(f, g) -> bool:
    """LTL equivalence: no word satisfies exactly one of the two."""
    return f is g or nba_emptiness(ltl_to_nba(f_or((f_and((f, neg(g))), f_and((neg(f), g)))))) is None


def test_edge_step_is_equivalent_to_the_positional_reference():
    release_under_release = [parse_formula(t) for t in ("G G F X a", "G G (a U F !b)", "G (X b R G F b)")]
    for f in _samples(2402) + release_under_release:
        for letter in LETTERS:
            assert _equivalent(edge_step(f, letter), recursive.positional_edge_step(f, letter)), (f, letter)


def test_fold_steps_operands_first_and_each_node_once():
    for f in _samples(2403, 100):
        stepped = []

        def step(g, below):
            assert below == [stepped.index(c) for c in formula.operands(g)]
            stepped.append(g)
            return len(stepped) - 1

        assert fold(f, step) == len(stepped) - 1
        assert stepped == list(subformulas(f))


def _shared_dag(levels: int):
    """Each level reads the one below twice: 2**levels paths, 3 nodes per
    level."""
    f = f_globally(atom("dag_0"))
    for i in range(levels):
        f = f_and((f_until(f, atom(f"dag_{i + 1}")), f_next(f)))
    return f


def test_shared_dag_is_folded_once_per_node():
    f = _shared_dag(40)
    nodes = list(subformulas(f))
    assert len(nodes) == len(set(nodes)) < 200
    assert temporal_depth(f) == 41
    assert neg(neg(f)) is f
    assert is_release_free(strip(f))
    assert expand(f).atoms == f.atoms
    assert len(dnf_units(f)) == 1


def test_deep_chains_need_no_recursion():
    depth = 1500  # 3,000 nesting levels, three times Python's default recursion limit
    chain = atom("deep_r")
    for i in range(depth):
        chain = f_until(atom(f"deep_{i % 2}"), f_next(chain))
    assert temporal_depth(chain) == 2 * depth
    assert neg(neg(chain)) is chain
    assert strip(chain) is chain
    assert parse_formula(to_str(chain)) is chain
    assert len(list(subformulas(chain))) == 2 * depth + 3
    assert af(chain, frozenset(("deep_0", "deep_1"))).kind == "or"
    assert expand(chain).kind == "or"


def test_deep_parentheses_and_prefixes_parse():
    assert parse_formula("(" * 5000 + "a" + ")" * 5000) is atom("a")
    assert parse_formula("! " * 5001 + "a") is natom("a")
    nested = parse_formula("X " * 5000 + "a")
    assert temporal_depth(nested) == 5000
    assert parse_formula(" && ".join(["a", "b"] * 3000)) is f_and((atom("a"), atom("b")))
