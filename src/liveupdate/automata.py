"""Nondeterministic Buchi automata from LTL, products and emptiness.

The translation reuses the after-derivative calculus: an automaton state is a
set of obligation conjuncts, a transition picks one disjunct of the derivative
of the state under a letter, and acceptance bookkeeping tracks one set per
until subformula (a transition fulfills an until when the target either drops
it or carries a residue of its right-hand side).  The generalized condition is
then degeneralized with the usual round-robin counter.

Every closure here -- the translation, the pruning and the lasso search --
is one breadth-first ``explore`` of an implicit graph.  Counterexamples and
emptiness witnesses are extracted shortest-prefix, shortest-loop by BFS
layering, so regression outputs stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from .formula import Formula, dnf_units, f_and, neg, subformulas, t_true
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
    "accepts_lasso",
    "mc_ltl",
    "to_hoa",
]


class BudgetError(RuntimeError):
    """A state budget ran out; the answer is unknown."""


@dataclass
class BuchiAutomaton:
    """Cube-labeled nondeterministic Buchi automaton."""

    ap: tuple[str, ...]
    labels: list[Hashable]
    initial: list[int]
    edges: list[list[tuple[Cube, int]]]
    accepting: frozenset[int]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CounterexampleLasso:
    """A violating trace of a checked machine together with the machine-state
    cycle that produces its loop."""

    lasso: LassoTrace
    machine_state_cycle: tuple[int, ...]
    input_prefix: tuple[Letter, ...] = ()
    input_loop: tuple[Letter, ...] = ()


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
            max_states: int | None = None) -> tuple[list[Hashable], list[list[tuple[Hashable, int]]]]:
    """Breadth-first closure of an implicitly given graph.

    ``successors(v)`` lists the ``(label, w)`` edges leaving ``v``.  Returns
    the nodes in discovery order, initials first, and for each node its
    ``(label, node index)`` edges.  A node beyond ``max_states`` raises
    ``BudgetError``; its message gives the frontier, the nodes found but not
    yet expanded.
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
        row: list[tuple[Hashable, int]] = []
        rows.append(row)
        row.extend((label, node(w)) for label, w in successors(nodes[len(rows) - 1]))
    return nodes, rows


# -- LTL -> NBA ---------------------------------------------------------------


def _conj(units: frozenset[Formula]) -> Formula:
    return f_and(sorted(units, key=lambda g: g.key)) if units else t_true()


def ltl_to_nba(f: Formula, max_states: int = 20000) -> BuchiAutomaton:
    """Translate a PNF formula into an NBA over its atoms."""
    untils = tuple(g for g in subformulas(f) if g.kind == "U")
    m = len(untils)

    if f.kind == "and":
        init_units = frozenset(f.children)
    elif f.kind == "true":
        init_units = frozenset()
    else:
        init_units = frozenset((f,))

    def successors(units: frozenset[Formula]):
        state_formula = _conj(units)
        atoms = sorted(state_formula.atoms)
        for letter in all_letters(atoms):
            cube = Cube(letter, frozenset(atoms) - letter)
            for d in dnf_units(af(state_formula, letter)):
                fulfilled = frozenset(
                    i for i, u in enumerate(untils)
                    if u not in d or any(rd <= d for rd in dnf_units(af(u.right, letter)))
                )
                yield (cube, fulfilled), d

    # generalized automaton over conjunct-set states; edges carry the untils they fulfill
    try:
        order, gtrans = explore([init_units], successors, max_states)
    except BudgetError as exc:
        raise BudgetError(f"automaton {exc}") from None

    # degeneralize with a round-robin counter; counter value m is accepting
    if m == 0:
        labels: list[Hashable] = [(_conj(u), 0) for u in order]
        edges = [[(cube, dst) for (cube, _), dst in row] for row in gtrans]
        nba = BuchiAutomaton(
            ap=tuple(sorted(f.atoms)),
            labels=labels,
            initial=[0],
            edges=edges,
            accepting=frozenset(range(len(order))),
        )
    else:
        index: dict[tuple[int, int], int] = {}
        rev: list[tuple[int, int]] = []
        labels = []

        def node(g: int, c: int) -> int:
            key = (g, c)
            if key not in index:
                index[key] = len(labels)
                rev.append(key)
                labels.append((_conj(order[g]), c))
            return index[key]

        start = node(0, 0)
        todo = [start]
        seen = {start}
        edge_map: dict[int, list[tuple[Cube, int]]] = {}
        while todo:
            nid = todo.pop()
            g, c = rev[nid]
            row = []
            base = 0 if c == m else c
            for (cube, fulfilled), dst in gtrans[g]:
                j = base
                while j < m and j in fulfilled:
                    j += 1
                tgt = node(dst, j)
                row.append((cube, tgt))
                if tgt not in seen:
                    seen.add(tgt)
                    todo.append(tgt)
            edge_map[nid] = row
        edges = [edge_map.get(i, []) for i in range(len(labels))]
        nba = BuchiAutomaton(
            ap=tuple(sorted(f.atoms)),
            labels=labels,
            initial=[start],
            accepting=frozenset(i for i, (_, c) in enumerate(labels) if c == m),
            edges=edges,
        )
    return _prune_coreachable(nba)


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


def _cycles_through(succ: list[list[int]], accepting: Callable[[int], bool]) -> set[int]:
    """Nodes of the SCCs that contain a cycle through an accepting node."""
    good: set[int] = set()
    for comp in _sccs(len(succ), succ):
        cyclic = len(comp) > 1 or comp[0] in succ[comp[0]]
        if cyclic and any(accepting(v) for v in comp):
            good.update(comp)
    return good


def _prune_coreachable(nba: BuchiAutomaton) -> BuchiAutomaton:
    """Keep only states from which some accepting cycle is reachable."""
    n = len(nba.labels)
    targets = _cycles_through([[dst for _, dst in row] for row in nba.edges],
                              nba.accepting.__contains__)
    pred: list[list[Step]] = [[] for _ in range(n)]
    for src, row in enumerate(nba.edges):
        for _, dst in row:
            pred[dst].append((None, src))
    keep = set(explore(targets, pred.__getitem__)[0])
    if len(keep) == n:
        return nba
    remap = {old: new for new, old in enumerate(sorted(keep))}
    return BuchiAutomaton(
        ap=nba.ap,
        labels=[nba.labels[old] for old in sorted(keep)],
        initial=[remap[i] for i in nba.initial if i in keep],
        edges=[
            [(cube, remap[dst]) for cube, dst in nba.edges[old] if dst in keep]
            for old in sorted(keep)
        ],
        accepting=frozenset(remap[q] for q in nba.accepting if q in keep),
    )


# -- accepting lassos ---------------------------------------------------------


def accepting_lasso(initials: Iterable[Hashable],
                    successors: Callable[[Hashable], Iterable[Step]],
                    accepting: Callable[[Hashable], bool]) -> tuple[list[Step], list[Step]] | None:
    """An accepting lasso of an implicitly given graph, or None if there is none.

    ``successors(v)`` lists the ``(label, w)`` edges leaving ``v``.  The result
    is ``(prefix, loop)``: the fewest steps from an initial node to an
    accepting node on a cycle, then a loop back to that node -- a self-loop if
    there is one, else through the first successor with a path back.
    """
    initials = list(dict.fromkeys(initials))
    nodes, rows = explore(initials, successors)
    starts = list(range(len(initials)))
    acc = [accepting(v) for v in nodes]
    good = {v for v in _cycles_through([[w for _, w in row] for row in rows], acc.__getitem__)
            if acc[v]}
    if not good:
        return None
    anchor, prefix = _shortest_path(rows, starts, good)
    loop = _loop(rows, anchor)
    return ([(label, nodes[w]) for label, w in prefix],
            [(label, nodes[w]) for label, w in loop])


def _loop(rows: list[list[tuple[Hashable, int]]], anchor: int) -> list[tuple[Hashable, int]]:
    for label, w in rows[anchor]:
        if w == anchor:
            return [(label, w)]
    for label, w in rows[anchor]:
        back = _shortest_path(rows, [w], {anchor})
        if back is not None:
            return [(label, w)] + back[1]
    raise AssertionError("anchor lies on no cycle")


def _shortest_path(rows: list[list[tuple[Hashable, int]]], sources: list[int],
                   targets: set[int]) -> tuple[int, list[tuple[Hashable, int]]] | None:
    """Breadth-first search: the target reached and the steps to it."""
    for s in sources:
        if s in targets:
            return s, []
    parents: dict[int, tuple[int, Hashable] | None] = dict.fromkeys(sources)
    frontier = list(parents)
    while frontier:
        nxt = []
        for v in frontier:
            for label, w in rows[v]:
                if w in parents:
                    continue
                parents[w] = (v, label)
                if w in targets:
                    path = []
                    cur = w
                    while parents[cur] is not None:
                        prev, step = parents[cur]
                        path.append((step, cur))
                        cur = prev
                    return w, path[::-1]
                nxt.append(w)
        frontier = nxt
    return None


def nba_emptiness(nba: BuchiAutomaton) -> LassoTrace | None:
    """None if the language is empty, else a shortest-prefix witness lasso."""
    found = accepting_lasso(nba.initial, nba.edges.__getitem__, nba.accepting.__contains__)
    if found is None:
        return None
    prefix, loop = found
    return LassoTrace(tuple(cube.pos for cube, _ in prefix), tuple(cube.pos for cube, _ in loop))


def accepts_lasso(nba: BuchiAutomaton, sigma: LassoTrace) -> bool:
    """Exact membership of an ultimately periodic word."""

    def successors(node: tuple[int, int]) -> list[Step]:
        q, pos = node
        letter, nxt = sigma.letter(pos), sigma.succ(pos)
        return [(None, (dst, nxt)) for cube, dst in nba.edges[q] if cube.matches(letter)]

    return accepting_lasso([(q, 0) for q in nba.initial], successors,
                           lambda node: node[0] in nba.accepting) is not None


# -- model checking -----------------------------------------------------------


def mc_ltl(machine: MooreMachine, f: Formula) -> Verdict:
    """Check that every trace of the machine satisfies ``f``.

    A failure carries a counterexample lasso found via the product with the
    automaton for the negation (shortest prefix, then shortest loop).
    """
    ce = product_counterexample(machine, ltl_to_nba(neg(f)))
    if ce is None:
        return Verdict("pass")
    return Verdict("fail", witness=ce)


def product_counterexample(machine: MooreMachine, nba: BuchiAutomaton) -> CounterexampleLasso | None:
    """Search the machine x automaton product for an accepting lasso."""
    letters = machine.input_letters()

    def successors(node: tuple[int, int]) -> list[Step]:
        ms, q = node
        out = []
        for inp in letters:
            letter, ms2 = machine.letter(ms, inp), machine.delta(ms, inp)
            out.extend((inp, (ms2, q2)) for cube, q2 in nba.edges[q] if cube.matches(letter))
        return out

    found = accepting_lasso([(machine.initial, q) for q in nba.initial], successors,
                            lambda node: node[1] in nba.accepting)
    if found is None:
        return None
    prefix, loop = found
    in_pre = tuple(inp for inp, _ in prefix)
    in_loop = tuple(inp for inp, _ in loop)
    cycle_states = tuple(ms for _, (ms, _) in loop)
    return CounterexampleLasso(machine.lasso_for(in_pre, in_loop), cycle_states, in_pre, in_loop)


# -- HOA export ---------------------------------------------------------------


def to_hoa(nba: BuchiAutomaton, name: str = "nba") -> str:
    """HOA v1 serialization with Buchi acceptance and cube-labeled edges."""
    ap = list(nba.ap)
    apidx = {a: i for i, a in enumerate(ap)}

    def guard(cube: Cube) -> str:
        lits = [str(apidx[a]) for a in sorted(cube.pos)] + [f"!{apidx[a]}" for a in sorted(cube.neg)]
        return "&".join(lits) if lits else "t"

    lines = [
        "HOA: v1",
        f'name: "{name}"',
        f"States: {len(nba.labels)}",
        *(f"Start: {q}" for q in nba.initial),
        f"AP: {len(ap)} " + " ".join(f'"{a}"' for a in ap),
        "Acceptance: 1 Inf(0)",
        "acc-name: Buchi",
        "--BODY--",
    ]
    for q in range(len(nba.labels)):
        acc = " {0}" if q in nba.accepting else ""
        lines.append(f"State: {q}{acc}")
        for cube, dst in nba.edges[q]:
            lines.append(f"  [{guard(cube)}] {dst}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
