"""Test-side views of automata: exact membership of a lasso word and HOA
export."""

from __future__ import annotations

from liveupdate.automata import BuchiAutomaton, _product_lasso
from liveupdate.traces import Cube, LassoTrace


def accepts_lasso(nba: BuchiAutomaton, sigma: LassoTrace) -> bool:
    """Exact membership of an ultimately periodic word."""
    return _product_lasso([0], lambda pos: [(None, sigma.letter(pos), sigma.succ(pos))],
                          nba) is not None


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
