import dataclasses
import itertools
import random
from types import SimpleNamespace

import pytest

from liveupdate import automata
from liveupdate.automata import (BudgetError, _product_lasso, accepting_lasso, explore, ltl_to_nba, mc_ltl,
                                 nba_emptiness)
from liveupdate.benchmarks import TABLE1_ROWS, update_pair
from liveupdate.formula import f_and, neg, t_false
from liveupdate.machine import parse_machine
from liveupdate.parser import parse_formula
from liveupdate.semantics import eval_ltl
from liveupdate.traces import APTable, LassoTrace

import recursive
from gen import all_lassos, random_formula, random_lasso, random_machine
from nba import accepts_lasso, to_hoa


def L(*names):
    return frozenset(names)


def test_explore_numbers_nodes_in_discovery_order():
    # n -> n+1 and n -> 2n, closed below 6
    def successors(n):
        return [(lab, m % 6) for lab, m in (("inc", n + 1), ("dbl", 2 * n))]

    nodes, rows = explore([3, 1], successors)
    assert nodes == [3, 1, 4, 0, 2, 5]
    assert rows == [
        [("inc", 2), ("dbl", 3)],
        [("inc", 4), ("dbl", 4)],
        [("inc", 5), ("dbl", 4)],
        [("inc", 1), ("dbl", 3)],
        [("inc", 0), ("dbl", 2)],
        [("inc", 3), ("dbl", 2)],
    ]
    assert explore([3, 1], successors, max_states=6) == (nodes, rows)
    # the fourth node is found while 3 is expanded; 1 and 4 wait
    with pytest.raises(BudgetError, match=r"^exceeds 3 states \(frontier 2\)$"):
        explore([3, 1], successors, max_states=3)


def test_eventually_two_state():
    nba = ltl_to_nba(parse_formula("F a"))
    assert len(nba.labels) == 2
    assert accepts_lasso(nba, LassoTrace((), (L("a"),)))
    assert accepts_lasso(nba, LassoTrace((L(), L("a")), (L(),)))
    assert not accepts_lasso(nba, LassoTrace((), (L(),)))


def test_false_is_empty():
    nba = ltl_to_nba(t_false())
    assert nba_emptiness(nba) is None


def test_emptiness_witness_satisfies_formula():
    f = parse_formula("G (a -> X b) && F a")
    nba = ltl_to_nba(f)
    witness = nba_emptiness(nba)
    assert witness is not None
    assert eval_ltl(witness, 0, f)


def test_translation_agrees_with_eval():
    rng = random.Random(42)
    for _ in range(250):
        f = random_formula(rng, ["a", "b", "c"], 3)
        nba = ltl_to_nba(f)
        for _ in range(3):
            sig = random_lasso(rng, ["a", "b", "c"])
            assert accepts_lasso(nba, sig) == eval_ltl(sig, 0, f), str(f)


def test_emptiness_against_eval_search():
    # emptiness verdict agrees with a brute search over small lassos
    rng = random.Random(43)
    for _ in range(120):
        f = random_formula(rng, ["a", "b"], 2)
        nba = ltl_to_nba(f)
        witness = nba_emptiness(nba)
        if witness is not None:
            assert eval_ltl(witness, 0, f)
        else:
            letters = [L(), L("a"), L("b"), L("a", "b")]
            for p in letters:
                for q in letters:
                    assert not eval_ltl(LassoTrace((p,), (q,)), 0, f)


def test_emptiness_random_automata_vs_reachability():
    from liveupdate.automata import BuchiAutomaton, _sccs
    from liveupdate.traces import Cube

    rng = random.Random(99)

    def rand_nba():
        n = rng.randrange(1, 5)
        edges = []
        for _ in range(n):
            row = []
            for _ in range(rng.randrange(0, 3)):
                pos = frozenset(a for a in ("a",) if rng.random() < 0.5)
                row.append((Cube(pos, frozenset(("a",)) - pos), rng.randrange(n)))
            edges.append(row)
        acc = frozenset(s for s in range(n) if rng.random() < 0.4)
        return BuchiAutomaton(("a",), list(range(n)), [0], edges, acc)

    def brute_nonempty(nba):
        succ = [[d for _, d in row] for row in nba.edges]
        reach = {0}
        todo = [0]
        while todo:
            v = todo.pop()
            for w in succ[v]:
                if w not in reach:
                    reach.add(w)
                    todo.append(w)
        for comp in _sccs(len(nba.labels), succ):
            nontrivial = len(comp) > 1 or comp[0] in succ[comp[0]]
            if nontrivial and any(q in nba.accepting and q in reach for q in comp):
                return True
        return False

    for _ in range(300):
        nba = rand_nba()
        assert (nba_emptiness(nba) is not None) == brute_nonempty(nba)


def test_single_accepting_self_loop():
    from liveupdate.automata import BuchiAutomaton
    from liveupdate.traces import Cube

    nba = BuchiAutomaton(("a",), [0], [0],
                         [[(Cube(frozenset(("a",)), frozenset()), 0)]], frozenset((0,)))
    witness = nba_emptiness(nba)
    assert witness is not None
    assert witness.loop == (frozenset(("a",)),)


def test_mc_ltl_fig1_relay(fig1_machine, relay2):
    assert mc_ltl(fig1_machine, relay2.spec).passed


def test_mc_ltl_counterexample_replay():
    m = parse_machine("inputs: r\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    f = parse_formula("F g")
    verdict = mc_ltl(m, f)
    assert not verdict.passed
    ce = verdict.witness
    assert not eval_ltl(ce.lasso, 0, f)
    # the witness is a real trace of the machine
    word = [ce.lasso.letter(i) for i in range(ce.lasso.positions)]
    inputs = tuple(l & frozenset(m.ap.inputs) for l in word)
    assert m.run(inputs) == tuple(word)


def test_mc_ltl_agrees_with_lasso_enumeration():
    rng = random.Random(44)
    ap = APTable(("x",), ("y",))
    for _ in range(60):
        m = random_machine(rng, ap, 3)
        f = random_formula(rng, ["x", "y"], 2)
        verdict = mc_ltl(m, f)
        brute = all(eval_ltl(sig, 0, f) for sig in all_lassos(m, 3))
        assert verdict.passed == brute, str(f)


def test_mc_ltl_by_conjuncts_agrees_with_whole_negation():
    # the reference searches the product with the automaton of the whole
    # negated formula; mc_ltl checks each negated top-level conjunct and
    # reports the witness of the first one that the machine violates
    rng = random.Random(47)
    ap = APTable(("x",), ("y", "z"))
    failures = 0
    for _ in range(150):
        m = random_machine(rng, ap, 3)
        f = f_and([random_formula(rng, ["x", "y", "z"], 2) for _ in range(rng.randrange(1, 4))])
        whole = _product_lasso([m.initial], m.moves, ltl_to_nba(neg(f)))
        verdict = mc_ltl(m, f)
        assert verdict.passed == (whole is None), str(f)
        if verdict.passed:
            continue
        failures += 1
        ce = verdict.witness
        assert not eval_ltl(ce.lasso, 0, f), str(f)
        assert ce.lasso == m.lasso_for(ce.input_prefix, ce.input_loop)
        conjuncts = f.children if f.kind == "and" else (f,)
        first = next(c for c in conjuncts if not mc_ltl(m, c).passed)
        assert mc_ltl(m, first).witness == ce, str(f)
    assert 0 < failures < 150


def test_counterexamples_minimal_prefix():
    m = parse_machine("inputs: r\noutputs: g\nstate s0 initial { }\ns0 --*--> s0\n")
    verdict = mc_ltl(m, parse_formula("F g"))
    assert len(verdict.witness.lasso.prefix) == 0  # shortest witness loops immediately


def test_hoa_export():
    nba = ltl_to_nba(parse_formula("F a"))
    text = to_hoa(nba)
    assert text.startswith("HOA: v1")
    assert "Acceptance: 1 Inf(0)" in text
    assert "--END--" in text


def test_emptiness_second_initial_state():
    from liveupdate.automata import BuchiAutomaton
    from liveupdate.traces import Cube

    # state 0 is a dead end; only initial state 1 carries an accepting cycle
    a = Cube(frozenset(("a",)), frozenset())
    nba = BuchiAutomaton(("a",), [0, 1], [0, 1], [[], [(a, 1)]], frozenset((1,)))
    witness = nba_emptiness(nba)
    assert witness is not None
    assert accepts_lasso(nba, witness)


def _distances(sources, succ):
    """Breadth-first step counts from ``sources`` to every node they reach."""
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_accepting_lasso_on_random_graphs_with_several_initials():
    rng = random.Random(33)
    found = 0
    for _ in range(1500):
        n = rng.randint(2, 9)
        succ = [[w for w in range(n) if rng.random() < 0.25] for _ in range(n)]
        acc = {v for v in range(n) if rng.random() < 0.3}
        initials = rng.sample(range(n), rng.randint(2, min(3, n)))
        # each edge is labeled by its (source, target) pair
        got = accepting_lasso(initials, lambda v: [((v, w), w) for w in succ[v]], acc.__contains__)
        reach = [set(_distances(succ[v], succ)) for v in range(n)]  # in one step or more
        dist = _distances(initials, succ)
        good = {v for v in acc if v in dist and v in reach[v]}
        if not good:
            assert got is None
            continue
        found += 1
        prefix, loop = got
        anchor = loop[-1][1]
        assert anchor in good
        assert len(prefix) == min(dist[v] for v in good)
        start = prefix[0][0][0] if prefix else anchor
        assert start in initials
        for path in (prefix, loop):
            for label, w in path:
                assert label == (start, w)
                start = w
            assert start == anchor
        if anchor in succ[anchor]:
            assert loop == [((anchor, anchor), anchor)]
        else:
            first = next(w for w in succ[anchor] if anchor in reach[w])
            assert loop[0][1] == first
            assert len(loop) == 1 + _distances([first], succ)[anchor]
    assert found > 300


def test_translation_is_memoized():
    f = parse_formula("G (a -> F b)")
    assert ltl_to_nba(f) is ltl_to_nba(f)


def test_automata_are_immutable():
    nba = ltl_to_nba(parse_formula("G (a -> F b)"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        nba.edges = ()
    assert isinstance(nba.labels, tuple) and isinstance(nba.initial, tuple)
    assert isinstance(nba.edges, tuple) and all(isinstance(row, tuple) for row in nba.edges)


def test_memo_is_per_state_budget(monkeypatch):
    f, g = parse_formula("G (a -> F b)"), parse_formula("G (b -> F a)")
    # a budget that runs out caches nothing
    with pytest.raises(BudgetError):
        ltl_to_nba(f, max_states=1)
    assert len(ltl_to_nba(f)) > 1
    # a cached automaton is not handed out for a smaller budget
    assert len(ltl_to_nba(g)) > 1
    with pytest.raises(BudgetError):
        ltl_to_nba(g, max_states=1)


def unread():
    raise AssertionError("the clock is read without a deadline")


def test_explore_reads_the_deadline_before_each_node(monkeypatch):
    # a clock that advances 1 s per reading: by the deadline 5, nodes 0 to 5
    # are expanded and node 6 is not; without a deadline the clock is unread
    def successors(n):
        return [("inc", n + 1)] if n < 99 else []

    ticks = itertools.count()
    monkeypatch.setattr(automata, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    with pytest.raises(TimeoutError, match="after 6 of 7 states"):
        explore([0], successors, deadline=5)
    monkeypatch.setattr(automata, "time", SimpleNamespace(monotonic=unread))
    assert len(explore([0], successors)[0]) == 100


def test_translation_past_the_deadline_keeps_nothing(monkeypatch):
    monkeypatch.setattr(automata, "time", SimpleNamespace(monotonic=lambda: 10.0))
    f = parse_formula("G (a -> F b)")
    with pytest.raises(TimeoutError):
        ltl_to_nba(f, deadline=5.0)
    assert automata._NBA == {}
    monkeypatch.setattr(automata, "time", SimpleNamespace(monotonic=unread))
    nba = ltl_to_nba(f)
    assert ltl_to_nba(f, deadline=5.0) is nba  # kept, whatever the deadline


def test_budget_counts_every_state_built():
    # two conjunct sets, three (conjunct set, counter) states
    f = parse_formula("G (a -> F b)")
    with pytest.raises(BudgetError, match=r"^automaton exceeds 2 states"):
        ltl_to_nba(f, max_states=2)
    assert len(ltl_to_nba(f, max_states=3)) == 3


def test_state_ids_are_breadth_first():
    # state 0 is the one initial state, and ids follow breadth-first discovery
    rng = random.Random(45)
    formulas = [random_formula(rng, ["a", "b", "c"], rng.choice((3, 4))) for _ in range(300)]
    for row in TABLE1_ROWS:
        for problem in update_pair(row.initial, row.update)[:2]:
            formulas.extend(problem.spec.children if problem.spec.kind == "and" else [problem.spec])
    for f in formulas + [neg(f) for f in formulas]:
        nba = ltl_to_nba(f)
        assert nba.initial == ((0,) if len(nba) else ()), str(f)
        dist = [0] + [None] * (len(nba) - 1) if len(nba) else []
        frontier = [0] if len(nba) else []
        while frontier:
            nxt = []
            for v in frontier:
                for _, w in nba.edges[v]:
                    if dist[w] is None:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert None not in dist and dist == sorted(dist), str(f)


def test_step_table_is_invisible(monkeypatch):
    # the steps of a conjunct set are kept for every later translation; an
    # automaton is the same whether the table is cold, warmed by other
    # translations, or not there at all (the reference scans the untils of
    # its own root formula)
    rng = random.Random(2025)
    formulas = [random_formula(rng, ["a", "b", "c"], rng.choice((3, 4))) for _ in range(120)]
    formulas += [neg(f) for f in formulas]
    monkeypatch.setattr(automata, "_NBA", {})
    monkeypatch.setattr(automata, "_STEPS", {})
    cold, computed = [], 0
    for f in formulas:
        automata._NBA.clear()
        automata._STEPS.clear()
        cold.append(ltl_to_nba(f))
        computed += len(automata._STEPS)
    automata._NBA.clear()
    warmed = [ltl_to_nba(f) for f in formulas]  # each after those before it
    assert len(automata._STEPS) < computed / 2  # most conjunct sets recur
    for f, nba, again in zip(formulas, cold, warmed):
        assert vars(nba) == vars(again) == vars(recursive.ltl_to_nba(f)), str(f)  # field by field


def test_one_pass_translation_matches_the_two_pass_reference():
    # the reference builds the generalized automaton over conjunct sets, then
    # degeneralizes it; the translation explores (conjunct set, counter)
    # states at once and must number, connect and accept them alike
    rng = random.Random(2026)
    formulas = [random_formula(rng, ["a", "b", "c", "d"], rng.choice((3, 4, 5))) for _ in range(150)]
    for f in formulas + [neg(f) for f in formulas]:
        got, ref = automata._translate(f, 20000), recursive.ltl_to_nba(f)
        assert (got.labels, got.edges, got.initial, got.accepting) == \
            (ref.labels, ref.edges, ref.initial, ref.accepting), str(f)
