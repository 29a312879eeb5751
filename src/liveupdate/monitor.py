"""The deterministic obligation monitor.

States are derivatives of the tracked formula, the transition function is a
derivative step over combined input/output letters, and every state is
labeled with its release-stripped form: the obligation the update system
inherits if the handover happens there.

Two anchoring calculi are supported:

* ``anchor="edge"`` (display form): obligations raised by a release keep
  their next-step guard, so a label reads as the obligation at the moment the
  transition is taken (one step before the update system starts).  This is
  the form rendered by the CLI and the one whose labels look like
  ``X F i1`` / ``F i1 && X F i1`` for the response property of the running
  relay example.
* ``anchor="state"`` (checking form): the transition function is the plain
  after-derivative, so the label after consuming a trace equals
  ``evolve(trace, phi)`` exactly.  Model checking and synthesis of universal
  updates use this form, which makes their obligation sets agree with the
  bounded-release semantics.

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
from .machine import MooreMachine
from .rewrite import af, edge_step, strip
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
    ap: APTable
    anchor: Anchor
    nodes: list[MonitorNode]
    initial: int
    # edges keyed by the projection of the letter onto the tracked atoms
    edges: list[dict[Letter, int]]
    cut_against: MooreMachine | None = None

    @property
    def relevant(self) -> frozenset[str]:
        return self.phi.atoms

    def label(self, node: int) -> Formula:
        return strip(self.nodes[node].formula)

    def labels(self) -> list[Formula]:
        return [self.label(i) for i in range(len(self.nodes))]

    def step(self, node: int, letter: Letter) -> int:
        """Deterministic successor under a full letter.

        Uncut monitors resolve every direction (the letter is projected onto
        the tracked atoms); cut monitors carry exactly the combined letters
        the machine can produce.
        """
        key = frozenset(letter)
        if self.cut_against is None:
            key &= self.relevant
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
        lines = [f'digraph "{title}" {{', "  rankdir=LR;", '  __init [shape=point, label=""];']
        for i, node in enumerate(self.nodes):
            extra = f" | {self.cut_against.names[node.machine_state]}" if node.machine_state is not None else ""
            lines.append(f'  {i} [shape=box, style=rounded, label="{self.label(i)}{extra}"];')
        lines.append(f"  __init -> {self.initial};")
        for i, row in enumerate(self.edges):
            grouped: dict[int, list[Letter]] = {}
            for letter, dst in sorted(row.items(), key=lambda kv: sorted(kv[0])):
                grouped.setdefault(dst, []).append(letter)
            for dst, letters in grouped.items():
                text = " | ".join("{" + " ".join(sorted(l)) + "}" if l else "{}" for l in letters)
                lines.append(f'  {i} -> {dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

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


def _step_fn(anchor: Anchor):
    return edge_step if anchor == "edge" else af


def _explore(initial, successors, max_states: int):
    try:
        return explore([initial], successors, max_states)
    except BudgetError as exc:
        raise BudgetError(f"monitor {exc}") from None


def build_monitor(phi: Formula, ap: APTable, max_states: int = 10000,
                  anchor: Anchor = "edge") -> ObligationMonitor:
    """Closure of the derivative step from ``phi`` over all directions.

    The initial state is ``phi`` itself, labeled ``strip(phi)``; every
    direction is resolved (letters are projected onto the atoms of ``phi``,
    which the derivative alone can observe).
    """
    ap.check_formula(phi)
    step = _step_fn(anchor)
    letters = all_letters(sorted(phi.atoms))
    formulas, rows = _explore(phi, lambda f: [(letter, step(f, letter)) for letter in letters],
                              max_states)
    return ObligationMonitor(phi, ap, anchor, [MonitorNode(f) for f in formulas], 0,
                             [dict(row) for row in rows])


def cut_from_phi(phi: Formula, ts_i: MooreMachine, anchor: Anchor = "state",
                 max_states: int = 10000) -> ObligationMonitor:
    """The monitor of ``phi`` restricted to the letters of the machine's
    executions, built without the uncut monitor.

    The monitor consumes the combined letter ``output(state) | input`` when
    the machine takes the corresponding edge; cut states pair the derivative
    formula with the machine state reached.
    """
    if not phi.atoms <= ts_i.ap.all:
        raise ValueError("monitored formula mentions propositions the machine does not declare")
    step = _step_fn(anchor)
    relevant = phi.atoms
    input_letters = ts_i.input_letters()

    def successors(node: MonitorNode):
        for inp in input_letters:
            letter = ts_i.letter(node.machine_state, inp)
            yield letter, MonitorNode(step(node.formula, letter & relevant),
                                      ts_i.delta(node.machine_state, inp))

    nodes, rows = _explore(MonitorNode(phi, ts_i.initial), successors, max_states)
    return ObligationMonitor(phi, ts_i.ap, anchor, nodes, 0, [dict(row) for row in rows],
                             cut_against=ts_i)


def cut_monitor(mon: ObligationMonitor, ts_i: MooreMachine,
                max_states: int = 10000) -> ObligationMonitor:
    """``cut_from_phi`` for a caller that already holds the uncut monitor."""
    return cut_from_phi(mon.phi, ts_i, mon.anchor, max_states)


def reachable_obligations(mon: ObligationMonitor) -> list[Formula]:
    """Distinct obligation labels, deduplicated by canonical key."""
    return list(dict.fromkeys(mon.label(i) for i in range(len(mon.nodes))))
