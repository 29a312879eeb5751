"""Built-in benchmark families and the update-pair regression table.

The family formulas are reconstructions in the usual synthesis-competition /
specification-pattern style; the exact shapes used here are documented next
to each generator, and the regression table binds only realizability
verdicts, never state counts or timings.

Robot families place a robot on ``n`` locations encoded as mutually exclusive
output atoms ``loc_i`` (the robot is always at exactly one location, moves
are unconstrained):

* visit:            every location eventually visited.
* seq-visit:        visited in index order (later ones may come early too).
* ordered-visit:    strict order: ``loc_{i+1}`` stays false until ``loc_i``.
* patrolling:       every location visited infinitely often.
* seq-patrolling:   the visit sequence restarts forever.
* reactivity:       patrolling plus a reaction duty: after an ``ev`` input
                    the robot reaches ``loc_0`` within two steps.

Reactive-system families:

* relay(n):         the running satellite example: measurements ``m_j`` in,
                    instructions ``i_j`` and a report ``r`` out; responses
                    strictly after measurements, no spurious instructions or
                    reports once measurements stop, reports while all
                    stations deliver.
* arbiter-simple:   request-free grant iteration: every grant fires
                    infinitely often, grants mutually exclusive.
* arbiter-full:     grants only in response to requests: request-response
                    plus a weak-until discipline making unsolicited grants
                    spurious.
* arbiter-prioritized: request-response where client 0 is served with
                    bounded latency (within two steps).
* abp-receiver:     per-bit acknowledge duties with the same no-spurious
                    discipline as the full arbiter.
* abp-transmitter:  per-bit send duties, sends unilateral.
* load-balancer:    jobs in, worker assignments out, every worker used
                    infinitely often.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (
    Formula,
    atom,
    f_and,
    f_eventually,
    f_globally,
    f_implies,
    f_next,
    f_or,
    f_release,
    f_until,
    natom,
)
from .traces import APTable

__all__ = ["BenchmarkInstance", "family", "update_pair", "TABLE1_ROWS", "ACCEPTANCE_ROWS", "Table1Row"]


@dataclass(frozen=True)
class BenchmarkInstance:
    name: str
    ap: APTable
    spec: Formula  # top-level conjunction; conjuncts encode independently


def _mutex(names: list[str]) -> list[Formula]:
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            out.append(f_globally(f_or((natom(names[i]), natom(names[j])))))
    return out


def _locs(n: int) -> list[str]:
    return [f"loc{i}" for i in range(n)]


def _exclusivity(n: int) -> list[Formula]:
    locs = _locs(n)
    return [f_globally(f_or([atom(l) for l in locs]))] + _mutex(locs)


def _seq(locs: list[str]) -> Formula:
    # F(loc0 && F(loc1 && ... ))
    inner = atom(locs[-1])
    for l in reversed(locs[:-1]):
        inner = f_and((atom(l), f_eventually(inner)))
    return f_eventually(inner)


def _weak_until(a: Formula, b: Formula) -> Formula:
    # a W b == b R (a || b)
    return f_release(b, f_or((a, b)))


def family(name: str, n: int) -> BenchmarkInstance:
    """Instantiate a benchmark family at parameter ``n`` >= 1."""
    if n < 1:
        raise ValueError(f"family parameter must be at least 1: {n}")
    if name == "visit":
        ap = APTable((), tuple(_locs(n)))
        spec = f_and(_exclusivity(n) + [f_eventually(atom(l)) for l in _locs(n)])
    elif name == "seq-visit":
        ap = APTable((), tuple(_locs(n)))
        spec = f_and(_exclusivity(n) + [_seq(_locs(n))])
    elif name == "ordered-visit":
        locs = _locs(n)
        ap = APTable((), tuple(locs))
        order = [f_until(natom(locs[i + 1]), atom(locs[i])) for i in range(n - 1)]
        spec = f_and(_exclusivity(n) + order + [f_eventually(atom(l)) for l in locs])
    elif name == "patrolling":
        ap = APTable((), tuple(_locs(n)))
        spec = f_and(_exclusivity(n) + [f_globally(f_eventually(atom(l))) for l in _locs(n)])
    elif name == "seq-patrolling":
        ap = APTable((), tuple(_locs(n)))
        spec = f_and(_exclusivity(n) + [f_globally(_seq(_locs(n)))])
    elif name == "reactivity":
        locs = _locs(n)
        ap = APTable(("ev",), tuple(locs))
        react = f_globally(f_implies(atom("ev"), f_next(f_or((atom(locs[0]), f_next(atom(locs[0])))))))
        spec = f_and(_exclusivity(n)
                     + [f_globally(f_eventually(atom(l))) for l in locs]
                     + [react])
    elif name == "relay":
        ms = [f"m{j}" for j in range(n)]
        is_ = [f"i{j}" for j in range(n)]
        ap = APTable(tuple(ms), tuple(is_) + ("r",))
        conj: list[Formula] = []
        for m, i in zip(ms, is_):
            conj.append(f_globally(f_implies(atom(m), f_next(f_eventually(atom(i))))))
        for m, i in zip(ms, is_):
            conj.append(f_globally(f_implies(f_globally(natom(m)),
                                             f_eventually(f_globally(natom(i))))))
        conj.append(f_globally(f_implies(f_and([f_eventually(atom(m)) for m in ms]),
                                         f_eventually(atom("r")))))
        conj.append(f_globally(f_implies(f_or([f_globally(natom(m)) for m in ms]),
                                         f_eventually(f_globally(natom("r"))))))
        spec = f_and(conj)
    elif name == "arbiter-simple":
        gs = [f"g{j}" for j in range(n)]
        ap = APTable((), tuple(gs))
        spec = f_and([f_globally(f_eventually(atom(g))) for g in gs] + _mutex(gs))
    elif name == "arbiter-full":
        rs = [f"r{j}" for j in range(n)]
        gs = [f"g{j}" for j in range(n)]
        ap = APTable(tuple(rs), tuple(gs))
        conj = _mutex(gs)
        for r, g in zip(rs, gs):
            conj.append(f_globally(f_implies(atom(r), f_eventually(atom(g)))))
            conj.append(_weak_until(natom(g), atom(r)))
            conj.append(f_globally(f_implies(atom(g), f_next(_weak_until(natom(g), atom(r))))))
        spec = f_and(conj)
    elif name == "arbiter-prioritized":
        rs = [f"r{j}" for j in range(n)]
        gs = [f"g{j}" for j in range(n)]
        ap = APTable(tuple(rs), tuple(gs))
        conj = _mutex(gs)
        for r, g in zip(rs, gs):
            conj.append(f_globally(f_implies(atom(r), f_eventually(atom(g)))))
        conj.append(f_globally(f_implies(atom(rs[0]),
                                         f_next(f_or((atom(gs[0]), f_next(atom(gs[0]))))))))
        spec = f_and(conj)
    elif name == "abp-receiver":
        ms = [f"m{b}" for b in range(n)]
        as_ = [f"a{b}" for b in range(n)]
        ap = APTable(tuple(ms), tuple(as_))
        conj = _mutex(as_)
        for m, a in zip(ms, as_):
            conj.append(f_globally(f_implies(atom(m), f_eventually(atom(a)))))
            conj.append(_weak_until(natom(a), atom(m)))
            conj.append(f_globally(f_implies(atom(a), f_next(_weak_until(natom(a), atom(m))))))
        spec = f_and(conj)
    elif name == "abp-transmitter":
        ks = [f"k{b}" for b in range(n)]
        ss = [f"s{b}" for b in range(n)]
        ap = APTable(tuple(ks), tuple(ss))
        conj = _mutex(ss)
        for b in range(n):
            conj.append(f_globally(f_eventually(atom(ss[b]))))
            conj.append(f_globally(f_implies(atom(ks[b]),
                                             f_next(f_eventually(atom(ss[(b + 1) % n]))))))
        spec = f_and(conj)
    elif name == "load-balancer":
        ws = [f"w{j}" for j in range(n)]
        ap = APTable(("job",), tuple(ws))
        conj = _mutex(ws)
        conj.append(f_globally(f_implies(atom("job"), f_next(f_eventually(f_or([atom(w) for w in ws]))))))
        conj.extend(f_globally(f_eventually(atom(w))) for w in ws)
        spec = f_and(conj)
    else:
        raise ValueError(f"unknown benchmark family {name!r}")
    return BenchmarkInstance(f"{name}({n})", ap, spec)


def update_pair(initial: tuple[str, int], update: tuple[str, int]) -> tuple[BenchmarkInstance, BenchmarkInstance, APTable]:
    """Instantiate an update pair; the problem AP table is the union (the
    update system may use every proposition the initial one did)."""
    bi = family(*initial)
    bu = family(*update)
    return bi, bu, bi.ap.union(bu.ap)


@dataclass(frozen=True)
class Table1Row:
    key: str
    initial: tuple[str, int]
    update: tuple[str, int]
    expected: str  # "real" | "unreal"


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row("visit->seq-visit", ("visit", 2), ("seq-visit", 2), "real"),
    Table1Row("visit->patrolling", ("visit", 2), ("patrolling", 2), "real"),
    Table1Row("visit->seq-patrolling", ("visit", 2), ("seq-patrolling", 2), "real"),
    Table1Row("visit->reactivity", ("visit", 2), ("reactivity", 2), "real"),
    Table1Row("seq-visit->patrolling", ("seq-visit", 2), ("patrolling", 2), "real"),
    Table1Row("seq-visit->seq-patrolling", ("seq-visit", 2), ("seq-patrolling", 2), "real"),
    Table1Row("seq-visit->reactivity", ("seq-visit", 2), ("reactivity", 2), "real"),
    Table1Row("patrolling->ordered-visit", ("patrolling", 2), ("ordered-visit", 2), "real"),
    Table1Row("patrolling->reactivity", ("patrolling", 2), ("reactivity", 2), "real"),
    Table1Row("relay:1->2", ("relay", 1), ("relay", 2), "real"),
    Table1Row("relay:2->1", ("relay", 2), ("relay", 1), "real"),
    Table1Row("arbiter:2f->3f", ("arbiter-full", 2), ("arbiter-full", 3), "unreal"),
    Table1Row("arbiter:2s->2f", ("arbiter-simple", 2), ("arbiter-full", 2), "unreal"),
    Table1Row("arbiter:2s->4s", ("arbiter-simple", 2), ("arbiter-simple", 4), "real"),
    Table1Row("arbiter:2s->2p", ("arbiter-simple", 2), ("arbiter-prioritized", 2), "real"),
    Table1Row("arbiter:2f->2p", ("arbiter-full", 2), ("arbiter-prioritized", 2), "real"),
    Table1Row("arbiter:2p->3p", ("arbiter-prioritized", 2), ("arbiter-prioritized", 3), "real"),
    Table1Row("abp-receiver:1->2", ("abp-receiver", 1), ("abp-receiver", 2), "unreal"),
    Table1Row("abp-receiver:2->3", ("abp-receiver", 2), ("abp-receiver", 3), "unreal"),
    Table1Row("abp-transmitter:1->2", ("abp-transmitter", 1), ("abp-transmitter", 2), "real"),
    Table1Row("load-balancer:2->4", ("load-balancer", 2), ("load-balancer", 4), "real"),
)

# verdict-asserted subset of the regression table
ACCEPTANCE_ROWS = (
    "visit->seq-visit",
    "seq-visit->patrolling",
    "patrolling->reactivity",
    "relay:2->1",
    "arbiter:2s->4s",
    "arbiter:2s->2p",
    "arbiter:2s->2f",
    "abp-receiver:1->2",
)
