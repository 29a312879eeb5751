"""Nondeterministic Buchi automata from LTL, products and emptiness.

The translation reuses the after-derivative calculus: an automaton state is a
set of obligation conjuncts, a transition picks one disjunct of the derivative
of the state under a letter, and acceptance bookkeeping tracks one set per
until subformula (a transition fulfills an until when the target either drops
it or carries a residue of its right-hand side).  The generalized condition is
degeneralized with the usual round-robin counter in the same pass: a state is
a (conjunct set, counter) pair.  A conjunct set's steps do not depend on the
formula being translated: one process-wide table keeps, per conjunct set,
each (letter, disjunct) step with the until units of the disjunct that the
letter leaves unfulfilled, and every translation reads it; an edge fulfills
each until of its own formula that is not among them.

Every closure here -- the translation, the pruning and the lasso search over
every product -- is one breadth-first ``explore`` of an implicit graph.  State
ids are breadth-first discovery order from the one initial state 0, which
fixes the variable order of the synthesis CNF; a translation's state budget
counts every state that it builds.  Automata are immutable, and
``ltl_to_nba`` is memoized per (formula, state budget) until
``liveupdate.forget()``, so every caller of one formula shares one automaton.

A specification becomes automata one way: one automaton for the negation of
each top-level conjunct (``_conjunct_automata``).  Bounded synthesis encodes
against them and ``mc_ltl`` checks against them, so re-verifying a
synthesized machine translates nothing that its search did not.

Counterexamples and emptiness witnesses are read off the discovery tree of
that breadth-first search: the shortest prefix to an accepting node on a
cycle, then a loop back to it -- a self-loop if there is one, else through the
first successor with a path back -- so regression outputs stay readable.  A
model-checking counterexample is the shortest lasso of the first conjunct
that the machine violates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from .formula import Formula, dnf_units, f_and, neg, subformulas
from .machine import MooreMachine
from .rewrite import af
from .traces import Cube, LassoTrace, Letter, all_letters

__all__ = [
    "BuchiAutomaton",
    "CounterexampleLasso",
    "Verdict",
    "BudgetError",
    "explore",
    "ltl_to_nba",
    "accepting_lasso",
    "nba_emptiness",
    "mc_ltl",
]


class BudgetError(RuntimeError):
    """A state budget ran out; the answer is unknown."""


@dataclass(frozen=True, eq=False)
class BuchiAutomaton:
    """Cube-labeled nondeterministic Buchi automaton.  Like a ``Formula``, an
    automaton is its own identity: tables key on the object."""

    ap: tuple[str, ...]
    labels: tuple[Hashable, ...]
    initial: tuple[int, ...]
    edges: tuple[tuple[tuple[Cube, int], ...], ...]
    accepting: frozenset[int]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CounterexampleLasso:
    """A violating trace of a checked machine and the input word, a prefix
    then a repeated loop, that produces it."""

    lasso: LassoTrace
    input_prefix: tuple[Letter, ...]
    input_loop: tuple[Letter, ...]


@dataclass
class Verdict:
    outcome: str  # "pass" | "fail"
    witness: CounterexampleLasso | None = None
    failing_obligation: Formula | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


# -- state-space exploration -------------------------------------------------

Step = tuple[Hashable, Hashable]  # (edge label, node the edge enters)


def explore(initials: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Step]],
            max_states: int | None = None, deadline: float | None = None,
            ) -> tuple[list[Hashable], list[list[tuple[Hashable, int]]]]:
    """Breadth-first closure of an implicitly given graph.

    ``successors(v)`` lists the ``(label, w)`` edges leaving ``v``.  Returns
    the nodes in discovery order, initials first, and for each node its
    ``(label, node index)`` edges.  A node beyond ``max_states`` raises
    ``BudgetError``; its message gives the frontier, the nodes found but not
    yet expanded.  With a ``time.monotonic()`` ``deadline``, the clock is
    read before each node is expanded, and a node due after the deadline
    raises ``TimeoutError``.
    """
    index: dict[Hashable, int] = {}
    nodes: list[Hashable] = []
    rows: list[list[tuple[Hashable, int]]] = []

    def node(v: Hashable) -> int:
        i = index.get(v)
        if i is None:
            if max_states is not None and len(nodes) >= max_states:
                raise BudgetError(f"exceeds {max_states} states (frontier {len(nodes) - len(rows)})")
            i = index[v] = len(nodes)
            nodes.append(v)
        return i

    for v in initials:
        node(v)
    while len(rows) < len(nodes):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"the deadline passed after {len(rows)} of {len(nodes)} states")
        row: list[tuple[Hashable, int]] = []
        rows.append(row)
        row.extend((label, node(w)) for label, w in successors(nodes[len(rows) - 1]))
    return nodes, rows


# -- LTL -> NBA ---------------------------------------------------------------


# (formula, max_states) -> automaton; formulas are hash-consed, so the key is
# exact.  A budget that runs out raises and caches nothing.
_NBA: dict[tuple[Formula, int], BuchiAutomaton] = {}
# conjunct set -> its steps ((cube, pending untils), successor conjunct set), one
# per letter and disjunct of the derivative; the pending untils are the until
# units of the successor that the letter leaves unfulfilled
_STEPS: dict[frozenset[Formula], tuple[Step, ...]] = {}


def ltl_to_nba(f: Formula, max_states: int = 20000, *,
               deadline: float | None = None) -> BuchiAutomaton:
    """Translate a PNF formula into an NBA over its atoms; ``max_states``
    bounds every state that the translation builds, before pruning, and a
    translation that runs past the ``time.monotonic()`` ``deadline`` raises
    ``TimeoutError``.

    The result is memoized per (formula, ``max_states``) until ``forget()``,
    whatever the deadline; automata are immutable, so callers share it.  A
    translation that raises keeps nothing."""
    got = _NBA.get((f, max_states))
    if got is None:
        got = _NBA[(f, max_states)] = _translate(f, max_states, deadline)
    return got


def _steps(units: frozenset[Formula]) -> tuple[Step, ...]:
    got = _STEPS.get(units)
    if got is None:
        state_formula = f_and(units)
        atoms = state_formula.atoms
        steps = []
        for letter in all_letters(sorted(atoms)):
            cube = Cube(letter, atoms - letter)
            for d in dnf_units(af(state_formula, letter)):
                pending = frozenset(u for u in d if u.kind == "U" and
                                    not any(rd <= d for rd in dnf_units(af(u.right, letter))))
                steps.append(((cube, pending), d))
        got = _STEPS[units] = tuple(steps)
    return got


def _translate(f: Formula, max_states: int, deadline: float | None = None) -> BuchiAutomaton:
    untils = tuple(g for g in subformulas(f) if g.kind == "U")
    m = len(untils)

    if f.kind == "and":
        init_units = frozenset(f.children)
    elif f.kind == "true":
        init_units = frozenset()
    else:
        init_units = frozenset((f,))

    # degeneralized nodes (conjunct set, round-robin counter); an edge
    # fulfills every until of f that it leaves not pending, and counter value
    # m is accepting
    def successors(node: tuple[frozenset[Formula], int]):
        units, c = node
        base = 0 if c == m else c
        for (cube, pending), dst in _steps(units):
            j = base
            while j < m and untils[j] not in pending:
                j += 1
            yield cube, (dst, j)

    try:
        nodes, rows = explore([(init_units, 0)], successors, max_states, deadline)
    except BudgetError as exc:
        raise BudgetError(f"automaton {exc}") from None
    keep = _coreachable(rows, lambda i: nodes[i][1] == m)
    new = {old: i for i, old in enumerate(keep)}
    return BuchiAutomaton(
        ap=tuple(sorted(f.atoms)),
        labels=tuple((f_and(nodes[i][0]), nodes[i][1]) for i in keep),
        initial=(0,) if 0 in new else (),
        edges=tuple(tuple((cube, new[dst]) for cube, dst in rows[i] if dst in new) for i in keep),
        accepting=frozenset(new[i] for i in keep if nodes[i][1] == m),
    )


def _conjunct_automata(f: Formula, max_states: int = 20000, *,
                       deadline: float | None = None) -> list[BuchiAutomaton]:
    """One automaton per top-level conjunct of ``f``, in operand order, for
    its negation; the empty ones (conjuncts that always hold) are dropped.
    Each translation reads ``deadline`` as ``ltl_to_nba`` does."""
    out = []
    for c in f.children if f.kind == "and" else (f,):
        nba = ltl_to_nba(neg(c), max_states=max_states, deadline=deadline)
        if len(nba.labels) and nba.initial:
            out.append(nba)
    return out


def _sccs(n: int, succ: list[list[int]]) -> list[list[int]]:
    """Tarjan SCC, iterative."""
    indexv = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = [0]
    for root in range(n):
        if indexv[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                indexv[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if indexv[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], indexv[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == indexv[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def _accepting_sccs(succ: list[list[int]], accepting: Callable[[int], bool]) -> list[list[int]]:
    """The SCCs that contain a cycle through an accepting node."""
    return [comp for comp in _sccs(len(succ), succ)
            if (len(comp) > 1 or comp[0] in succ[comp[0]]) and any(accepting(v) for v in comp)]


def _coreachable(rows: list[list[tuple[Hashable, int]]], accepting: Callable[[int], bool]) -> list[int]:
    """The ids, in increasing order, of the nodes from which some accepting
    cycle is reachable."""
    succ = [[dst for _, dst in row] for row in rows]
    pred: list[list[Step]] = [[] for _ in rows]
    for src, row in enumerate(succ):
        for dst in row:
            pred[dst].append((None, src))
    cyclic = [v for comp in _accepting_sccs(succ, accepting) for v in comp]
    return sorted(explore(cyclic, pred.__getitem__)[0])


# -- accepting lassos ---------------------------------------------------------


def accepting_lasso(initials: Iterable[Hashable],
                    successors: Callable[[Hashable], Iterable[Step]],
                    accepting: Callable[[Hashable], bool]) -> tuple[list[Step], list[Step]] | None:
    """An accepting lasso of an implicitly given graph, or None if there is none.

    ``successors(v)`` lists the ``(label, w)`` edges leaving ``v``.  The result
    is ``(prefix, loop)``, read off the tree of edges that first discovered
    each node in one ``explore``.  The anchor is the first accepting node on
    a cycle in discovery order, so its tree path from an initial node is a
    shortest prefix.  The loop is a self-loop if the anchor has one, else the
    edge to the first successor in the anchor's SCC, then the tree path back
    of an ``explore`` of that SCC from the successor.
    """
    initials = list(dict.fromkeys(initials))
    nodes, rows = explore(initials, successors)
    acc = [accepting(v) for v in nodes]
    comps = _accepting_sccs([[w for _, w in row] for row in rows], acc.__getitem__)
    if not comps:
        return None
    anchor = min(v for comp in comps for v in comp if acc[v])
    prefix = _tree_path(rows, len(initials), anchor)
    loop = next(([step] for step in rows[anchor] if step[1] == anchor), None)
    if loop is None:
        scc = next(set(comp) for comp in comps if anchor in comp)
        label, w = next(step for step in rows[anchor] if step[1] in scc)
        inner, inner_rows = explore([w], lambda v: [step for step in rows[v] if step[1] in scc])
        back = _tree_path(inner_rows, 1, inner.index(anchor))
        loop = [(label, w)] + [(lab, inner[x]) for lab, x in back]
    return ([(label, nodes[w]) for label, w in prefix],
            [(label, nodes[w]) for label, w in loop])


def _tree_path(rows: list[list[tuple[Hashable, int]]], roots: int,
               target: int) -> list[tuple[Hashable, int]]:
    """The steps from a root to ``target`` along the edges that first
    discovered each node of an ``explore``; its first ``roots`` nodes are the
    initials, which have no parent."""
    # explore numbers nodes as it meets them, so node roots + i is entered
    # first by the i-th edge that enters a node not yet met
    parent: list[tuple[int, Hashable]] = []
    for v, row in enumerate(rows):
        for label, w in row:
            if w == roots + len(parent):
                parent.append((v, label))
    path = []
    while target >= roots:
        v, label = parent[target - roots]
        path.append((label, target))
        target = v
    return path[::-1]


def nba_emptiness(nba: BuchiAutomaton) -> LassoTrace | None:
    """None if the language is empty, else a shortest-prefix witness lasso."""
    found = accepting_lasso(nba.initial, nba.edges.__getitem__, nba.accepting.__contains__)
    if found is None:
        return None
    prefix, loop = found
    return LassoTrace(tuple(cube.pos for cube, _ in prefix), tuple(cube.pos for cube, _ in loop))


def _product_lasso(starts: Iterable[Hashable],
                   steps: Callable[[Hashable], Iterable[tuple[Hashable, Letter, Hashable]]],
                   nba: BuchiAutomaton) -> tuple[list[Hashable], list[Hashable]] | None:
    """An accepting lasso of a deterministic component times ``nba``: the step
    labels of its prefix and of its loop, or None if there is none.

    ``steps(s)`` lists the ``(label, letter, next)`` moves of the component
    from ``s``; the automaton follows each along every edge whose cube
    matches the letter, and acceptance is the automaton's."""

    def successors(node: tuple[Hashable, int]) -> list[Step]:
        s, q = node
        return [(label, (s2, q2)) for label, letter, s2 in steps(s)
                for cube, q2 in nba.edges[q] if cube.matches(letter)]

    found = accepting_lasso([(s, q) for s in starts for q in nba.initial], successors,
                            lambda node: node[1] in nba.accepting)
    if found is None:
        return None
    prefix, loop = found
    return [label for label, _ in prefix], [label for label, _ in loop]


# -- model checking -----------------------------------------------------------


def mc_ltl(machine: MooreMachine, f: Formula, searched: dict | None = None, *,
           deadline: float | None = None) -> Verdict:
    """Check that every trace of the machine satisfies ``f``.

    The machine is checked against the automaton of each negated top-level
    conjunct of ``f`` in operand order, the ones that synthesis searches
    against.  A failure carries the shortest lasso (shortest prefix, then a
    loop as in ``accepting_lasso``) of the first conjunct that it violates.
    Calls on one machine that share a ``searched`` dict search its product
    with each automaton once.  The translations read ``deadline`` as
    ``ltl_to_nba`` does.
    """
    searched = {} if searched is None else searched
    for nba in _conjunct_automata(f, deadline=deadline):
        if nba not in searched:
            searched[nba] = _product_lasso([machine.initial], machine.moves, nba)
        found = searched[nba]
        if found is not None:
            in_pre, in_loop = map(tuple, found)
            return Verdict("fail", witness=CounterexampleLasso(machine.lasso_for(in_pre, in_loop),
                                                               in_pre, in_loop))
    return Verdict("pass")
