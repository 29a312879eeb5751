import random

from liveupdate.sat import Solver, parse_dimacs_model, to_dimacs


def brute_force(nv, clauses):
    for bits in range(1 << nv):
        def val(lit):
            v = bits >> (abs(lit) - 1) & 1
            return bool(v) if lit > 0 else not v
        if all(any(val(l) for l in c) for c in clauses):
            return True
    return False


def test_trivial():
    s = Solver()
    v = s.new_var()
    s.add_clause([v])
    assert s.solve() is True
    assert v in s.model()


def test_contradiction():
    s = Solver()
    v = s.new_var()
    s.add_clause([v])
    s.add_clause([-v])
    assert s.solve() is False


def test_random_instances_match_bruteforce():
    rng = random.Random(101)
    for _ in range(300):
        nv = rng.randrange(3, 9)
        clauses = [
            [rng.randrange(1, nv + 1) * rng.choice([1, -1]) for _ in range(rng.choice([1, 2, 3, 3]))]
            for _ in range(rng.randrange(2, 4 * nv))
        ]
        s = Solver()
        for _ in range(nv):
            s.new_var()
        for c in clauses:
            s.add_clause(c)
        got = s.solve()
        assert got == brute_force(nv, clauses), clauses
        if got:
            model = s.model()
            def val(lit):
                return (abs(lit) in model) == (lit > 0)
            assert all(any(val(l) for l in c) for c in clauses)


def test_pigeonhole_unsat():
    n = 4  # 5 pigeons, 4 holes
    s = Solver()
    var = {(p, h): s.new_var() for p in range(n + 1) for h in range(n)}
    for p in range(n + 1):
        s.add_clause([var[(p, h)] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                s.add_clause([-var[(p1, h)], -var[(p2, h)]])
    assert s.solve() is False


def test_budget_returns_none():
    n = 7
    s = Solver()
    var = {(p, h): s.new_var() for p in range(n + 1) for h in range(n)}
    for p in range(n + 1):
        s.add_clause([var[(p, h)] for h in range(n)])
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                s.add_clause([-var[(p1, h)], -var[(p2, h)]])
    assert s.solve(conflict_budget=10) is None


def test_model_after_reducing_the_learned_clauses(monkeypatch):
    # a random 3-SAT instance near the threshold: satisfiable after 4,548
    # conflicts, with one reduction of the learned clauses on the way
    rng = random.Random(11)
    clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 176), 3)]
               for _ in range(745)]
    reductions = []
    reduce = Solver._reduce_learned

    def counted(self):
        reductions.append(self.conflicts)
        reduce(self)

    monkeypatch.setattr(Solver, "_reduce_learned", counted)
    s = Solver()
    for _ in range(175):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
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
    sat, model = parse_dimacs_model("SAT\n1 -2 3 0\n")
    assert sat is True and model == {1, 3}
