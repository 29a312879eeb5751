import random

import pytest

from liveupdate.automata import BudgetError, accepts_lasso, explore, ltl_to_nba, mc_ltl, nba_emptiness, to_hoa
from liveupdate.formula import t_false
from liveupdate.machine import parse_machine
from liveupdate.parser import parse_formula
from liveupdate.semantics import eval_ltl
from liveupdate.traces import APTable, LassoTrace

from gen import random_formula, random_lasso, random_machine


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
        brute = all(eval_ltl(sig, 0, f) for sig in m.all_lassos(3))
        assert verdict.passed == brute, str(f)


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
