"""The deterministic obligation monitor.

States are derivatives of the tracked formula, the transition function is a
derivative step over combined input/output letters, and every state is
labeled with its release-stripped form: the obligation the update system
inherits if the handover happens there.

Two anchoring calculi are supported:

* ``anchor="edge"`` (display form, rendered by the CLI): the step is
  ``rewrite.edge_step``, ``af`` with a release's raised residue under a next,
  so a label reads as the obligation at the moment the transition is taken,
  one step before the update system starts.  The response property of the
  running relay example gets the labels ``X F i1`` and ``F i1 && X F i1``.
* ``anchor="state"`` (checking form): the transition function is the plain
  after-derivative, so the label after consuming a trace equals
  ``evolve(trace, phi)`` exactly.  Model checking and synthesis of universal
  updates use this form, which makes their obligation sets agree with the
  bounded-release semantics.  It is a walk from ``phi`` in the sense of
  ``rewrite.start_walk``: a state of a conjunction ``phi`` is derived
  conjunct by conjunct, giving the same formula as the derivative of the
  whole.  The edge step derives each state whole.

Cutting against a concrete machine restricts the monitor to letters the
machine can produce, combining each state's output with the consumed input
exactly when the machine takes the corresponding edge.  Cut states are
(formula, machine state) pairs, which is why distinct states may share a
label; ``cut_from_phi`` explores them straight from the formula, without
the uncut monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .automata import BudgetError, explore
from .formula import Formula
from .machine import MooreMachine, dot_graph
from .rewrite import af, edge_step, start_walk, strip
from .traces import APTable, Letter, all_letters

__all__ = ["ObligationMonitor", "build_monitor", "cut_from_phi", "cut_monitor", "reachable_obligations"]

Anchor = Literal["edge", "state"]


@dataclass(frozen=True)
class MonitorNode:
    formula: Formula
    machine_state: int | None = None


@dataclass
class ObligationMonitor:
    phi: Formula
    anchor: Anchor
    nodes: list[MonitorNode]
    initial: int
    # edges keyed by the projection of the letter onto the tracked atoms
    edges: list[dict[Letter, int]]
    cut_against: MooreMachine | None = None

    def label(self, node: int) -> Formula:
        return strip(self.nodes[node].formula)

    def step(self, node: int, letter: Letter) -> int:
        """Deterministic successor under a full letter.

        Uncut monitors resolve every direction (the letter is projected onto
        the tracked atoms); cut monitors carry exactly the combined letters
        the machine can produce.
        """
        key = frozenset(letter)
        if self.cut_against is None:
            key &= self.phi.atoms
        row = self.edges[node]
        if key in row:
            return row[key]
        raise KeyError(
            "letter not available from this node (cut monitors only carry machine-consistent letters)")

    def run(self, word) -> int:
        node = self.initial
        for letter in word:
            node = self.step(node, letter)
        return node

    def __len__(self) -> int:
        return len(self.nodes)

    def to_dot(self, title: str = "monitor") -> str:
        labels = [f"{self.label(i)} | {self.cut_against.names[node.machine_state]}"
                  if node.machine_state is not None else str(self.label(i))
                  for i, node in enumerate(self.nodes)]
        grouped: dict[tuple[int, int], list[str]] = {}  # the letters of each edge
        for i, row in enumerate(self.edges):
            for letter, dst in sorted(row.items(), key=lambda kv: sorted(kv[0])):
                grouped.setdefault((i, dst), []).append("{" + " ".join(sorted(letter)) + "}")
        return dot_graph(title, self.initial, labels,
                         [(i, dst, " | ".join(texts)) for (i, dst), texts in grouped.items()])

    def to_json(self) -> dict:
        return {
            "formula": str(self.phi),
            "anchor": self.anchor,
            "initial": self.initial,
            "states": [
                {
                    "id": i,
                    "obligation": str(self.label(i)),
                    "state_formula": str(node.formula),
                    **({"machine_state": self.cut_against.names[node.machine_state]}
                       if node.machine_state is not None else {}),
                }
                for i, node in enumerate(self.nodes)
            ],
            "edges": [
                {"src": i, "letter": sorted(letter), "dst": dst}
                for i, row in enumerate(self.edges)
                for letter, dst in sorted(row.items(), key=lambda kv: sorted(kv[0]))
            ],
        }


def _monitor(phi: Formula, anchor: Anchor, max_states: int, deadline: float | None = None,
             machine: MooreMachine | None = None) -> ObligationMonitor:
    """The closure of the derivative step from ``phi`` and the initial state
    of ``machine``, over the letters of its ``moves``."""
    if anchor == "edge":
        step = edge_step
    else:
        start_walk(phi)
        step = af
    relevant = phi.atoms
    if machine is None:  # one state, None, that moves on every letter over the atoms
        uncut = [(letter, letter, None) for letter in all_letters(sorted(relevant))]
        moves, initial = (lambda _state: uncut), None
    else:
        moves, initial = machine.moves, machine.initial

    def successors(node: MonitorNode):
        return [(letter, MonitorNode(step(node.formula, letter & relevant), dst))
                for _inp, letter, dst in moves(node.machine_state)]

    try:
        nodes, rows = explore([MonitorNode(phi, initial)], successors, max_states, deadline)
    except BudgetError as exc:
        raise BudgetError(f"monitor {exc}") from None
    return ObligationMonitor(phi, anchor, nodes, 0, [dict(row) for row in rows], machine)


def build_monitor(phi: Formula, ap: APTable, max_states: int = 10000,
                  anchor: Anchor = "edge") -> ObligationMonitor:
    """Closure of the derivative step from ``phi`` over all directions.

    The initial state is ``phi`` itself, labeled ``strip(phi)``; every
    direction is resolved (letters are projected onto the atoms of ``phi``,
    which the derivative alone can observe).
    """
    ap.check_formula(phi)
    return _monitor(phi, anchor, max_states)


def cut_from_phi(phi: Formula, ts_i: MooreMachine, anchor: Anchor = "state",
                 max_states: int = 10000, *, deadline: float | None = None) -> ObligationMonitor:
    """The monitor of ``phi`` restricted to the letters of the machine's
    executions, built without the uncut monitor.

    The monitor consumes the combined letter ``output(state) | input`` when
    the machine takes the corresponding edge; cut states pair the derivative
    formula with the machine state reached.  A cut that runs past the
    ``time.monotonic()`` ``deadline`` raises ``TimeoutError``.
    """
    ts_i.ap.check_formula(phi)
    return _monitor(phi, anchor, max_states, deadline, ts_i)


def cut_monitor(mon: ObligationMonitor, ts_i: MooreMachine,
                max_states: int = 10000) -> ObligationMonitor:
    """``cut_from_phi`` for a caller that already holds the uncut monitor."""
    return cut_from_phi(mon.phi, ts_i, mon.anchor, max_states)


def reachable_obligations(mon: ObligationMonitor) -> list[Formula]:
    """Distinct obligation labels as written: two equivalent labels written
    differently both count."""
    return list(dict.fromkeys(mon.label(i) for i in range(len(mon.nodes))))
