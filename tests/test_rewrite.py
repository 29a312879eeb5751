import random

from liveupdate import rewrite
from liveupdate.formula import atom, canonical, f_and, f_next, f_or, f_until, natom, t_false, t_true
from liveupdate.parser import parse_formula
from liveupdate.rewrite import af, af_word, edge_step, evolve, expand, expand_n, liveltl_to_ltl, strip
from liveupdate.traces import all_letters
from gen import is_release_free, random_formula, random_trace
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
    phi = parse_formula("G (r -> X F g) && (a U g)")
    eta = (L("a"), L("r"), L(), L("a", "g"), L("r"))
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


def _cold(monkeypatch):
    """Empty derivative rows and conjunct table, so that every derivative
    below is derived by this test."""
    monkeypatch.setattr(rewrite, "_AF", {})
    monkeypatch.setattr(rewrite, "_PARTS", {})


def test_conjunct_walk_gives_the_plain_state(monkeypatch):
    # a walk from a conjunction derives each conjunct on its own, where that
    # is exact; every prefix of every word must still reach the state of a
    # fold of canonical(derivative) that never factors.  Several words share
    # the rows, so later walks step from states that earlier ones derived
    # per conjunct, and the letters carry an atom no formula mentions.  The
    # conjunctions with a next over a literal take the plain path.
    rng = random.Random(4013)
    factored = 0
    for _ in range(300):
        phi = f_and([random_formula(rng, ["a", "b", "c"], 3) for _ in range(rng.randrange(2, 5))])
        words = [random_trace(rng, ["a", "b", "c", "d"], 6) for _ in range(4)]
        _cold(monkeypatch)
        for word in words:
            af_word(phi, word)
        factored += bool(rewrite._PARTS.get(phi))
        for word in words:
            want = phi
            for i, letter in enumerate(word):
                assert af_word(phi, word[:i]) is want, (str(phi), word[:i])
                assert evolve(word[:i], phi) is strip(want)
                want = canonical(af_reference(want, letter))
            assert af_word(phi, word) is want, (str(phi), word)
    assert factored > 60


def test_next_over_a_literal_keeps_the_plain_path(monkeypatch):
    # per conjunct, X (X a || X !a) becomes a || !a, which f_or collapses to
    # true; the derivative of the whole keeps a and !a in separate disjuncts
    phi = parse_formula("X (X a || X !a) && X (F b || F c)")
    word = (L(), L())
    per_conjunct = canonical(f_and([af_word(c, word) for c in phi.children]))
    assert per_conjunct is parse_formula("F b || F c")
    _cold(monkeypatch)
    assert af_word(phi, word) is parse_formula("a && F c || !a && F c || a && F b || !a && F b")
    assert rewrite._PARTS == {phi: None}


def test_a_join_equal_to_one_of_its_parts_derives():
    # after {a}, F a && F b joins (true, F b) into F b itself; F b's own
    # derivatives then derive that part by the plain derivative
    phi, fb = parse_formula("F a && F b"), parse_formula("F b")
    assert af_word(phi, (L("a"),)) is fb
    assert fb in rewrite._PARTS[fb]
    assert af_word(phi, (L("a"), L(), L("b"))) is t_true()
    assert af_word(phi, (L("a"), L())) is fb


def test_only_a_walk_from_a_conjunction_is_factored():
    # af called on its own (as the automaton translation and the edge step
    # call it) derives the whole formula and keeps no conjunct states
    phi = parse_formula("G (a -> F b) && F c")
    for letter in all_letters(("a", "b", "c")):
        assert af(phi, letter) is canonical(af_reference(phi, letter))
    assert rewrite._PARTS == {}
