import random

import pytest

from liveupdate.formula import atom, t_true
from liveupdate.parser import parse_formula
from liveupdate.semantics import eval_initial, eval_ltl, eval_update, words_membership
from liveupdate.traces import LassoTrace, parse_trace

from gen import is_release_free, random_formula, random_lasso


def L(*names):
    return frozenset(names)


def test_eval_ltl_basics():
    assert eval_ltl(LassoTrace((L(),), (L("a"),)), 0, parse_formula("X a"))
    assert eval_ltl(LassoTrace((L("a"), L("a")), (L("b"),)), 0, parse_formula("a U b"))
    assert eval_ltl(LassoTrace((), (L("a"),)), 0, parse_formula("false R a"))
    assert not eval_ltl(LassoTrace((), (L(),)), 0, parse_formula("F a"))


def test_eval_ltl_index_normalization():
    sig = LassoTrace((L("a"),), (L("b"), L()))
    f = parse_formula("b")
    assert eval_ltl(sig, 1, f)
    assert eval_ltl(sig, 3, f)  # wraps into the loop
    assert not eval_ltl(sig, 4, f)


def test_eval_initial_bounded_release():
    # boundary 2: release quantifiers range over the two p-positions only
    word = LassoTrace((L("p"), L("p")), (L(),))
    assert eval_initial(2, word, 0, parse_formula("false R p"))
    assert not eval_ltl(word, 0, parse_formula("false R p"))
    # empty boundary: release true immediately
    assert eval_initial(0, LassoTrace((), (L(),)), 0, parse_formula("false R p"))


def test_eval_initial_release_free_agrees(capsys):
    rng = random.Random(9)
    for _ in range(300):
        f = random_formula(rng, ["a", "b"], 3)
        if not is_release_free(f):
            continue
        sig = random_lasso(rng, ["a", "b"])
        for eta_len in range(0, len(sig.prefix) + 1):
            assert eval_initial(eta_len, sig, 0, f) == eval_ltl(sig, 0, f)


def test_eval_initial_relay_example(relay2):
    eta = parse_trace("m1 i0 i1 r ; i1 ; m0 m1")
    word = LassoTrace(eta, (L(),))  # loop never grants i0
    assert not eval_initial(3, word, 0, relay2.spec)
    good = LassoTrace(eta, (L("i0", "i1", "r"),))
    assert eval_initial(3, good, 0, relay2.spec)


def test_eval_update_shift():
    sig = LassoTrace((L(), L()), (L("g"),))
    g = atom("g")
    assert eval_update(2, sig, 0, g)
    assert eval_update(0, sig, 0, g) == eval_ltl(sig, 0, g)
    sig2 = LassoTrace((L("g"),), (L(),))
    assert not eval_update(1, sig2, 0, g)


def test_words_membership_collapses_to_ltl():
    sig = LassoTrace((), (L("p"),))
    assert words_membership(t_true(), parse_formula("G p"), (), sig)


def test_words_membership_relay(relay2):
    eta = parse_trace("m1 i0 i1 r ; i1 ; m0 m1")
    assert words_membership(relay2.spec, t_true(), eta, LassoTrace((), (L("i0", "i1", "r"),)))
    assert not words_membership(relay2.spec, t_true(), eta, LassoTrace((), (L(),)))


def test_eval_initial_requires_prefix_coverage():
    with pytest.raises(ValueError):
        eval_initial(3, LassoTrace((L(),), (L(),)), 0, parse_formula("G a"))
