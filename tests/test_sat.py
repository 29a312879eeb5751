import hashlib
import random

import pytest

from liveupdate.benchmarks import family
from liveupdate.sat import Solver, parse_dimacs_model, to_dimacs
from liveupdate.synthesis import SynthesisProblem

from ledger import shuffled
from test_synthesis import emit_dimacs


def random_3sat(rng, nv):
    """A random 3-SAT CNF over ``nv`` variables near the threshold."""
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nv + 1), 3)]
            for _ in range(int(4.26 * nv))]


def environment_cnf():
    """The environment CNF of arbiter-full(2) at k=2: refuted after 2,546
    conflicts."""
    inst = family("arbiter-full", 2)
    header, *rows = emit_dimacs(SynthesisProblem(inst.spec, inst.ap), 2, "environment").splitlines()
    return int(header.split()[2]), [[int(tok) for tok in row.split()[:-1]] for row in rows]


def brute_force(nv, clauses):
    for bits in range(1 << nv):
        def val(lit):
            v = bits >> (abs(lit) - 1) & 1
            return bool(v) if lit > 0 else not v
        if all(any(val(l) for l in c) for c in clauses):
            return True
    return False


def test_trivial():
    s = Solver(1, [[1]])
    assert s.solve() is True
    assert 1 in s.model()


def test_contradiction():
    assert Solver(1, [[1], [-1]]).solve() is False


def test_load_assigns_units_in_clause_order():
    s = Solver(4, [[2], [1, 3, 1], [-4], [3, -1], [2]])
    assert s.trail == [2, -4]
    assert s.clauses == [[1, 3, 1], [3, -1]]
    assert s.watches[1] == [0] and s.watches[3] == [0, 1] and s.watches[-1] == [1]
    assert not Solver(2, [[1], [2, -1], [-1]]).ok
    assert not Solver(2, [[1, 2], []]).ok


def test_load_takes_the_clauses_as_given():
    # the solver owns the lists it is given: it keeps each clause of two or
    # more literals as that very list and reorders its literals, and a solver
    # loaded from a copy searches alike
    nv, clauses = environment_cnf()
    given = [c[:] for c in clauses]
    s, copied = Solver(nv, clauses), Solver(nv, [c[:] for c in clauses])
    assert list(map(id, s.clauses)) == [id(c) for c in clauses if len(c) > 1]
    assert s.solve() is False and copied.solve() is False
    assert _search_state(s) == _search_state(copied)
    assert clauses != given


def test_random_instances_match_bruteforce():
    # random literals, so clauses with repeated literals and tautologies too
    rng = random.Random(101)
    for _ in range(300):
        nv = rng.randrange(3, 9)
        clauses = [
            [rng.randrange(1, nv + 1) * rng.choice([1, -1]) for _ in range(rng.choice([1, 2, 3, 3]))]
            for _ in range(rng.randrange(2, 4 * nv))
        ]
        s = Solver(nv, clauses)
        got = s.solve()
        assert got == brute_force(nv, clauses), clauses
        if got:
            model = s.model()
            def val(lit):
                return (abs(lit) in model) == (lit > 0)
            assert all(any(val(l) for l in c) for c in clauses)


def test_repeated_literals_are_sound():
    # a clause keeps its repeated literals, so one literal can sit in both
    # watched positions, from the load on ([x, x], [x, x, y]) or once the
    # watch moves ([y, x, y] after x is falsified).  Every such clause over
    # three variables, next to every sequence of up to two units, and every
    # pair of them, gives brute force's verdict and a model of the clauses.
    lits = [v * sign for v in (1, 2, 3) for sign in (1, -1)]
    repeated = [shape for x in lits for y in lits if abs(x) != abs(y)
                for shape in ([x, x], [x, x, y], [y, x, y], [x, y, x])]
    units = [[]] + [[[u]] for u in lits] + [[[u], [w]] for u in lits for w in lits]
    cnfs = [[c, *us] for c in repeated for us in units]
    cnfs += [[c, d] for c in repeated for d in repeated]
    for clauses in cnfs:
        s = Solver(3, clauses)
        got = s.solve()
        assert got == brute_force(3, clauses), clauses
        if got:
            model = s.model()
            assert all(any((abs(l) in model) == (l > 0) for l in c) for c in clauses), clauses


def pigeonhole(n):
    """A solver loaded with n + 1 pigeons in n holes."""
    var = {(p, h): 1 + p * n + h for p in range(n + 1) for h in range(n)}
    clauses = [[var[(p, h)] for h in range(n)] for p in range(n + 1)]
    clauses += [[-var[(p1, h)], -var[(p2, h)]]
                for h in range(n) for p1 in range(n + 1) for p2 in range(p1 + 1, n + 1)]
    return Solver(len(var), clauses)


def test_pigeonhole_unsat():
    assert pigeonhole(4).solve() is False


def test_budget_returns_none():
    assert pigeonhole(7).solve(conflict_budget=10) is None


def test_model_after_reducing_the_learned_clauses(monkeypatch):
    # a random 3-SAT instance near the threshold: satisfiable after 4,548
    # conflicts, with one reduction of the learned clauses on the way
    clauses = random_3sat(random.Random(11), 175)
    reductions = []
    reduce = Solver._reduce_learned

    def counted(self):
        reductions.append(self.conflicts)
        reduce(self)

    monkeypatch.setattr(Solver, "_reduce_learned", counted)
    s = Solver(175, clauses)
    assert s.solve() is True
    assert reductions
    model = s.model()
    assert all(any((abs(lit) in model) == (lit > 0) for lit in c) for c in clauses)


def test_dimacs_roundtrip_text():
    text = to_dimacs(3, [[1, -2], [2, 3], [-1]])
    assert text.splitlines()[0] == "p cnf 3 3"
    assert "1 -2 0" in text


def test_parse_solver_output():
    sat, model = parse_dimacs_model("c comment\ns SATISFIABLE\nv 1 -2 3 0\n")
    assert sat is True and model == {1, 3}
    sat, model = parse_dimacs_model("s UNSATISFIABLE\n")
    assert sat is False


def _continued(s, budget=None, work=None):
    """``s`` solved on one conflict per call, or with its work target raised
    by ``work`` per call, until ``budget`` conflicts."""
    while (got := s.solve(conflict_budget=s.conflicts + 1) if work is None
           else s.solve(conflict_budget=budget, work_target=s.work + work)) is None:
        if budget is not None and s.conflicts >= budget:
            return None
    return got


def _search_state(s):
    return s.conflicts, s.work, s.clauses, s.trail, s.model()


def test_solve_continued_one_conflict_at_a_time():
    # random 3-SAT near the threshold: each solve, continued one conflict at
    # a time or one work target at a time, learns the clauses, does the work
    # and ends with the trail of one solve.  Each solver owns its clauses, so
    # each is loaded from its own copy
    rng = random.Random(2003)
    verdicts = []
    for _ in range(40):
        nv = rng.randrange(20, 60)
        clauses = random_3sat(rng, nv)
        slices = {work: Solver(nv, [c[:] for c in clauses]) for work in (None, 1, 100)}
        whole = Solver(nv, clauses)
        verdicts.append(whole.solve())
        for work, sliced in slices.items():
            assert _continued(sliced, work=work) == verdicts[-1]
            assert _search_state(sliced) == _search_state(whole)
    assert True in verdicts and False in verdicts


def test_solve_continued_past_its_budget():
    # the environment CNF of arbiter-full(2) at k=2: out of a 1,024-conflict
    # budget, then refuted when continued, either way; each solver is loaded
    # from its own copy of the clauses
    nv, clauses = environment_cnf()
    whole, sliced = Solver(nv, clauses), Solver(nv, [c[:] for c in clauses])
    assert whole.solve(conflict_budget=1024) is None
    assert _continued(sliced, budget=1024) is None
    assert _search_state(sliced) == _search_state(whole)
    assert whole.solve() is False and _continued(sliced) is False
    assert whole.conflicts > 1024
    assert _search_state(sliced) == _search_state(whole)


def test_deadline_raises_and_the_solve_goes_on():
    s = pigeonhole(4)
    with pytest.raises(TimeoutError):
        s.solve(deadline=0.0)  # read at the first conflict
    assert s.conflicts == 0
    assert s.solve() is False


# The sha256 of every search's verdict, conflicts, learned clauses, trail and
# sorted model, over random 3-SAT near the threshold (the one over 175
# variables reduces its learned clauses) and the environment CNF of
# arbiter-full(2) at k=2: 8,589 conflicts in all.  A change meant to keep the
# search keeps it; one meant to change the search updates it and says why.
SEARCH_SHA256 = "14dbb1938ebc2f18dec8f93b8bfe998e85a9006fc3adedb81d26cb1905dcb144"


def pinned_cnfs():
    """The CNFs of ``SEARCH_SHA256``, made afresh."""
    rng = random.Random(31)
    cnfs = [(nv, random_3sat(rng, nv)) for nv in [rng.randrange(40, 120) for _ in range(12)]]
    return cnfs + [(175, random_3sat(random.Random(11), 175)), environment_cnf()]


def test_search_is_pinned():
    digest = hashlib.sha256()
    for nv, clauses in pinned_cnfs():
        s = Solver(nv, clauses)
        found = s.solve()
        learned = s.clauses[s.learned_from:]
        digest.update(repr((found, s.conflicts, learned, s.trail, sorted(s.model()))).encode())
    assert digest.hexdigest() == SEARCH_SHA256


def test_a_shuffle_keeps_the_clauses_and_the_verdict():
    # ``ledger.py --shuffle`` samples a search on reordered copies of a CNF:
    # one seed gives one order, each clause keeps its literals, and the copy
    # has the verdict of the CNF as given
    nv, clauses = pinned_cnfs()[0]
    once = shuffled(clauses, 1)
    assert once == shuffled(clauses, 1) and once != clauses
    assert sorted(map(sorted, once)) == sorted(map(sorted, clauses))
    assert Solver(nv, once).solve() is Solver(nv, clauses).solve()


def test_reasons_keep_their_implied_literal_first():
    # ``_analyze`` reads a reason's other literals from position 1 on, so at
    # every conflict each implied literal of the trail sits first in its reason
    for nv, clauses in pinned_cnfs():
        s = Solver(nv, clauses)
        analyze, analysed = s._analyze, []

        def checked(confl):
            reason, kept = s.reason, s.clauses  # a reduction replaces the clause list
            assert all(kept[reason[abs(lit)]][0] == lit for lit in s.trail if reason[abs(lit)] != -1)
            analysed.append(confl)
            return analyze(confl)

        s._analyze = checked
        found = s.solve()
        assert len(analysed) == s.conflicts - (found is False)  # a refutation ends at level 0


def _decide_by_scan(s):
    """``Solver._decide`` as a scan over the variables: the first unassigned
    one of the highest activity, in its saved phase."""
    best, besta = 0, -1.0
    for v in range(1, s.nvars + 1):
        if s.value[v] == 0 and s.activity[v] > besta:
            best, besta = v, s.activity[v]
    if best == 0:
        return 0
    return best if s.phase[best] >= 0 else -best


def _check_decide(s):
    assert s.free == [-1.0] + [s.activity[v] if s.value[v] == 0 else -1.0
                               for v in range(1, s.nvars + 1)]
    assert s._decide() == _decide_by_scan(s)


def test_decide_picks_the_lowest_of_the_most_active():
    # random 3-SAT with level-0 units and activities drawn from a few values,
    # so most maxima are ties: every decision of the search, and the state
    # after every backtrack, agree with the scan; every third solve starts
    # with var_inc near 1e100, which forces rescales of the activities
    rng = random.Random(1003)
    rescaled = 0
    for trial in range(30):
        nv = rng.randrange(20, 60)
        units = [[rng.choice((v, -v))] for v in rng.sample(range(1, nv + 1), 3)]
        s = Solver(nv, random_3sat(rng, nv) + units)
        for v in range(1, nv + 1):
            s.activity[v] = rng.choice((0.0, 1.0, 1.0, 2.5, 2.5, 4.0))
            if s.value[v] == 0:  # the free list mirrors an unassigned variable's activity
                s.free[v] = s.activity[v]
        _check_decide(s)
        decide, backtrack = s._decide, s._backtrack

        def checked_decide():
            got = decide()
            assert got == _decide_by_scan(s)
            return got

        def checked_backtrack(target):
            backtrack(target)
            _check_decide(s)

        s._decide, s._backtrack = checked_decide, checked_backtrack
        if trial % 3 == 0:
            s.var_inc = 0.9e100
        s.solve()
        rescaled += s.var_inc < 1e90
    assert rescaled >= 5
