import random

from liveupdate import rewrite
from liveupdate.formula import atom, canonical, f_and, f_next, f_or, f_until, natom, t_false, t_true
from liveupdate.parser import parse_formula
from liveupdate.rewrite import af, af_word, edge_step, evolve, expand, expand_n, liveltl_to_ltl, strip
from liveupdate.traces import all_letters
from gen import is_release_free, random_formula
from recursive import af as af_reference

a, b = atom("a"), atom("b")
aUb = f_until(a, b)


def L(*names):
    return frozenset(names)


def test_af_until_rules():
    assert af(aUb, L("a")) is aUb
    assert af(aUb, L("b")) is t_true()
    assert af(aUb, L()) is t_false()


def test_af_next_consumes():
    f = parse_formula("X (a U b)")
    assert af(f, L()) is aUb
    assert af(f, L("a", "b")) is aUb


def test_af_word():
    assert af_word(aUb, ()) is aUb
    assert af_word(aUb, (L("a"), L("a"))) is aUb
    assert af_word(aUb, (L(), L("b"))) is t_false()


def test_strip():
    assert strip(parse_formula("G (m1 -> X F i1)")) is t_true()
    assert strip(parse_formula("F i1")) is parse_formula("F i1")
    assert strip(parse_formula("(false R p) && (a U b)")) is aUb


def test_expand_shapes():
    got = expand(aUb)
    assert got is f_or((b, f_and((a, f_next(aUb)))))
    g = parse_formula("G p")
    assert expand(g) is f_and((atom("p"), f_next(g)))
    assert expand(t_true()) is t_true()


def test_expand_pushes_nested_temporals_under_next():
    f = parse_formula("F (G a)")
    e2 = expand_n(f, 2)

    def min_x_depth(g, d=0):
        if g.kind in ("U", "R"):
            yield d
        if g.kind == "X":
            yield from min_x_depth(g.left, d + 1)
        elif g.kind in ("and", "or"):
            for c in g.children:
                yield from min_x_depth(c, d)
        elif g.kind in ("U", "R"):
            for c in (g.left, g.right):
                yield from min_x_depth(c, d)

    assert min(min_x_depth(e2), default=99) >= 2


def test_evolve_trivial():
    phi = parse_formula("G (m1 -> X F i1)")
    assert evolve((), phi) is strip(phi)


def test_edge_step_examples():
    phi = parse_formula("G (m1 -> X F i1)")
    s1 = edge_step(phi, L("m1"))
    assert strip(s1) is parse_formula("X F i1")
    fa = parse_formula("F a")
    assert edge_step(fa, L("a")) is t_true()
    # a release over a conjunction / disjunction keeps its operands' next-step guards
    g_and = parse_formula("G (a && X b)")
    assert edge_step(g_and, L("a")) is parse_formula("X b && G (a && X b)")
    assert af(g_and, L("a")) is parse_formula("b && G (a && X b)")
    g_or = parse_formula("G (a || X b)")
    assert edge_step(g_or, L()) is parse_formula("X b && G (a || X b)")


def test_liveltl_to_ltl_empty_trace():
    phi = parse_formula("G (a -> F b)")
    psi = parse_formula("F a")
    got = liveltl_to_ltl(phi, psi, (), frozenset(("a", "b")))
    assert got is f_and((psi, strip(phi)))


def test_liveltl_to_ltl_single_letter():
    # initial spec trivial, update spec p, trace = one letter {q} over {p, q}
    phi, psi = t_true(), atom("p")
    got = liveltl_to_ltl(phi, psi, (L("q"),), frozenset(("p", "q")))
    assert got is f_and((f_next(atom("p")), atom("q"), natom("p")))


def test_af_matches_edge_step_on_release_free():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, ["a", "b"], 3)
        if not is_release_free(f):
            continue
        letter = frozenset(x for x in ("a", "b") if rng.random() < 0.5)
        assert af(f, letter) is edge_step(f, letter)


def test_af_memo_returns_the_canonical_derivative():
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula(rng, ["a", "b", "c"], 3)
        for letter in all_letters(sorted(f.atoms)):
            got = af(f, letter)
            assert got is canonical(rewrite._af(f, letter))
            assert af(f, letter) is got


def test_af_word_derives_each_pair_once(monkeypatch):
    derived = []
    plain = rewrite._af

    def counted(f, letter):
        derived.append((f, letter))
        return plain(f, letter)

    monkeypatch.setattr(rewrite, "_af", counted)
    # atoms no other test uses, so the first fold cannot hit the memo
    phi = parse_formula("G (memo_r -> X F memo_g) && (memo_a U memo_g)")
    eta = (L("memo_a"), L("memo_r"), L(), L("memo_a", "memo_g"), L("memo_r"))
    first = af_word(phi, eta)
    assert derived
    derived.clear()
    assert af_word(phi, eta) is first
    assert derived == []


def test_af_subterm_memo_is_invisible(monkeypatch):
    # the memo starts empty, then is warmed by other formulas built and
    # derived first, in two orders: the derivative must not follow what the
    # process derived before.  The letters also range over an atom no sample
    # mentions, since the memo keys the unprojected letter.
    rng = random.Random(2309)
    samples = [random_formula(rng, ["a", "b", "c"], 4) for _ in range(120)]
    letters = all_letters(("a", "b", "c", "d"))
    expected = {(f, letter): af_reference(f, letter) for f in samples for letter in letters}
    others = [random_formula(rng, ["a", "b", "c"], 4) for _ in range(120)]
    for history in ([], others, others[::-1] + samples[::-1]):
        monkeypatch.setattr(rewrite, "_AF_RAW", {})
        for g in history:
            for letter in letters:
                rewrite._af(g, letter)
        for (f, letter), want in expected.items():
            assert rewrite._af(f, letter) is want, (f, sorted(letter))
        # one table per letter, and every entry is the derivative of its node
        assert set(rewrite._AF_RAW) == set(letters)
        for letter, table in rewrite._AF_RAW.items():
            for g, got in table.items():
                assert got is af_reference(g, letter), (g, sorted(letter))


def test_af_word_walks_the_rows_of_the_memo(monkeypatch):
    # af_word steps along af's rows and derives only where a row or its
    # letter is missing: with a cold memo, after the same word, and after
    # another word, whose rows lack some of this word's letters.  The words
    # also range over an atom the formula does not mention.
    rng = random.Random(3671)
    partial = 0
    for _ in range(80):
        f = random_formula(rng, ["a", "b", "c"], 3)
        props = [*sorted(f.atoms), "foreign"]
        word, other = (tuple(frozenset(p for p in props if rng.random() < 0.5)
                             for _ in range(rng.randrange(1, 7))) for _ in range(2))
        want = f
        for letter in word:
            want = canonical(rewrite._af(want, letter))
        monkeypatch.setattr(rewrite, "_AF", {})
        assert af_word(f, word) is want, (f, word)
        assert af_word(f, word) is want, (f, word)
        monkeypatch.setattr(rewrite, "_AF", {})
        af_word(f, other)
        partial += word[0] not in rewrite._AF[f]
        assert af_word(f, word) is want, (f, word, other)
    assert partial
