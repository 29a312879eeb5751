import random

from liveupdate import formula
from liveupdate.formula import (
    _prune_subsumed,
    atom,
    canonical,
    dnf_units,
    f_and,
    f_eventually,
    f_globally,
    f_iff,
    f_implies,
    f_next,
    f_or,
    f_release,
    f_until,
    from_dnf,
    natom,
    neg,
    rename,
    subformulas,
    t_false,
    t_true,
)
from liveupdate.parser import parse_formula

from gen import is_release_free, random_formula, temporal_depth
from propeq import prop_equivalent

a, b, c = atom("a"), atom("b"), atom("c")


def test_hash_consing_identity():
    assert f_until(a, b) is f_until(a, b)
    assert f_and((a, b)) is f_and((b, a))
    assert f_and((a, b)).key == f_and((b, a)).key


def test_constant_folding():
    assert f_and((a, t_true())) is a
    assert f_and((a, t_false())) is t_false()
    assert f_or((a, t_true())) is t_true()
    assert f_or((a, t_false())) is a
    assert f_next(t_true()) is t_true()
    assert f_until(a, t_true()) is t_true()
    assert f_until(t_false(), b) is b
    assert f_release(t_true(), b) is b


def test_complement_and_absorption():
    assert f_and((a, natom("a"))) is t_false()
    assert f_or((a, natom("a"))) is t_true()
    assert f_and((a, f_or((a, b)))) is a
    assert f_or((a, f_and((a, b)))) is a


def test_flatten_dedup():
    f = f_and((a, f_and((b, a))))
    assert f.kind == "and"
    assert set(f.children) == {a, b}


def test_neg_is_pnf_involution():
    f = parse_formula("G (a -> X F b) && (a U (b R c))")
    g = neg(f)
    for sub in subformulas(g):
        assert sub.kind != "not"  # negation exists only as natom
    assert neg(g) is f


def test_neg_dualities():
    assert neg(f_until(a, b)) is f_release(natom("a"), natom("b"))
    assert neg(f_next(a)) is f_next(natom("a"))
    assert neg(f_and((a, b))) is f_or((natom("a"), natom("b")))


def test_sugar():
    assert f_eventually(a) is f_until(t_true(), a)
    assert f_globally(a) is f_release(t_false(), a)
    assert f_implies(a, b) is f_or((natom("a"), b))
    assert f_iff(a, a) is t_true()


def test_print_parse_roundtrip():
    for text in ["a U b", "G (m1 -> X F i1)", "F a && G b || X (a U b R c)",
                 "!a && !(b U c)", "true", "false", "X X a"]:
        f = parse_formula(text)
        assert parse_formula(str(f)) is f


def test_repr_shows_the_printed_formula():
    f = parse_formula("G (r -> F g)")
    assert repr(f) == f"<Formula {f}>" == "<Formula G (F g || !r)>"


def test_canonical_two_level():
    deep = f_or((f_and((a, f_or((b, f_and((c, a)))))), c))
    g = canonical(deep)
    # or-of-ands over units only
    assert g.kind in ("or", "and", "atom")
    if g.kind == "or":
        for d in g.children:
            assert d.kind != "or"


def test_prop_equivalent_opaque_blocks():
    f = f_or((f_eventually(a), f_eventually(a)))
    assert prop_equivalent(f, f_eventually(a))
    assert not prop_equivalent(f_eventually(a), f_next(f_eventually(a)))
    assert prop_equivalent(f_or((a, natom("a"))), t_true())


def test_atoms_and_depth():
    f = parse_formula("G (m1 -> X F i1)")
    assert f.atoms == {"m1", "i1"}
    assert temporal_depth(f) == 3  # R over X over U
    assert not is_release_free(f)
    assert is_release_free(parse_formula("F i1"))


def test_rename_gives_the_formula_of_the_renamed_text():
    f = parse_formula("G (r -> F g) && (!g U r)")
    assert rename(f, {"r": "g", "g": "r"}) is parse_formula("G (g -> F r) && (!r U g)")
    rng = random.Random(11)
    turn = {"a": "b", "b": "c", "c": "a"}
    back = {y: x for x, y in turn.items()}
    for _ in range(200):
        g = random_formula(rng, ["a", "b", "c"], 3)
        assert rename(g, turn).atoms == {turn[x] for x in g.atoms}
        assert rename(rename(g, turn), back) is g


def test_prune_subsumed_matches_the_pairwise_definition():
    # random families over five units, with repeats and the empty disjunct:
    # the minimal disjuncts, once each, in their first order
    def pairwise(disjuncts):
        uniq = list(dict.fromkeys(disjuncts))
        return [d for d in uniq if not any(other < d for other in uniq)]

    rng = random.Random(365)
    units = [atom(f"u{i}") for i in range(5)]
    for _ in range(2000):
        family = [frozenset(rng.sample(units, rng.choice([0, 1, 1, 2, 2, 3, 4])))
                  for _ in range(rng.randrange(8))]
        assert _prune_subsumed(family) == pairwise(family), family


def _dnf_reference(f):
    """``dnf_units`` with no memo, as a list."""
    if f.kind == "true":
        return [frozenset()]
    if f.kind == "false":
        return []
    if f.kind == "or":
        return _prune_subsumed([d for c in f.children for d in _dnf_reference(c)])
    if f.kind == "and":
        acc = [frozenset()]
        for c in f.children:
            acc = [x | p for x in acc for p in _dnf_reference(c)]
        return _prune_subsumed(acc)
    return [frozenset((f,))]


def test_dnf_units_memo_is_invisible(monkeypatch):
    # boolean combinations of random formulas, so that many disjuncts are
    # multiplied out and pruned; a cold memo and one warmed by the same
    # formulas in reverse give the reference's disjuncts, in its order
    rng = random.Random(4711)
    samples = [random_formula(rng, ["a", "b", "c"], 4) for _ in range(200)]
    samples += [rng.choice((f_and, f_or))(rng.sample(samples, 3)) for _ in range(200)]
    samples += [f_and((f_or(rng.sample(samples, 2)), f_or(rng.sample(samples, 3)))) for _ in range(100)]
    for warm in ([], samples[::-1]):
        monkeypatch.setattr(formula, "_DNF", {})
        for g in warm:
            dnf_units(g)
        for f in samples:
            got = dnf_units(f)
            assert isinstance(got, tuple) and all(isinstance(d, frozenset) for d in got)
            assert list(got) == _dnf_reference(f), f
            assert dnf_units(f) is got


def test_canonical_memo_is_invisible(monkeypatch):
    # the samples of the DNF memo's test: a cold memo and one warmed by the
    # same formulas in reverse give the form built from the reference's
    # disjuncts, and a canonical form is its own
    rng = random.Random(4711)
    samples = [random_formula(rng, ["a", "b", "c"], 4) for _ in range(200)]
    samples += [rng.choice((f_and, f_or))(rng.sample(samples, 3)) for _ in range(200)]
    samples += [f_and((f_or(rng.sample(samples, 2)), f_or(rng.sample(samples, 3)))) for _ in range(100)]
    for warm in ([], samples[::-1]):
        monkeypatch.setattr(formula, "_CANON", {})
        for g in warm:
            canonical(g)
        for f in samples:
            got = canonical(f)
            assert got is from_dnf(_dnf_reference(f)), f
            assert canonical(got) is got


def _nary_reference(kind, parts):
    """``f_and``/``f_or`` with pairwise tests, and the rule that decided it:
    each atom is compared with every operand for its negation, and each dual
    operand's members are looked up one at a time."""
    unit, zero = (t_true(), t_false()) if kind == "and" else (t_false(), t_true())
    flat = {}
    for p in parts:
        if p is zero:
            return zero, "constant"
        if p is unit:
            continue
        if p.kind == kind:
            flat.update(dict.fromkeys(p.children))
        else:
            flat[p] = None
    if not flat:
        return unit, "constant"
    for f in flat:
        if f.kind == "atom" and any(g.kind == "natom" and g.name == f.name for g in flat):
            return zero, "complement"
    dual = "or" if kind == "and" else "and"
    kept = [f for f in flat if not (f.kind == dual and any(c in flat for c in f.children))]
    rule = "absorption" if len(kept) < len(flat) else "node"
    if len(kept) == 1:
        return kept[0], rule
    kept.sort(key=lambda f: f.key)
    return formula._mk(kind, children=tuple(kept)), rule


def test_nary_matches_the_pairwise_reference():
    # 2-8 operands drawn from random formulas and from literals with their
    # negations, and and/or operands over members drawn from the same list,
    # so that operands absorb and complement each other
    rng = random.Random(218)
    literals = [g for x in "abcd" for g in (atom(x), natom(x))]
    drawn = [random_formula(rng, ["a", "b", "c", "d"], 3) for _ in range(80)]
    pool = literals + [g for g in drawn if g.kind not in ("true", "false")]
    rules = dict.fromkeys(("constant", "complement", "absorption", "node"), 0)
    for _ in range(3000):
        members = rng.sample(pool, rng.randrange(2, 9))
        parts = [rng.choice((f_and, f_or))(rng.sample(members, rng.randrange(1, len(members))))
                 if rng.random() < 0.3 else m for m in members]
        for kind, build in (("and", f_and), ("or", f_or)):
            want, rule = _nary_reference(kind, parts)
            assert build(parts) is want, (kind, parts)
            rules[rule] += 1
    assert min(rules.values()) > 100, rules
