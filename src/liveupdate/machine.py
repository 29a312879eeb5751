"""Output-labeled transition systems (Moore machines).

States carry output letters, edges are guarded by cubes over the input
propositions, and the transition function must be deterministic and total:
every input letter matches exactly one outgoing cube per state.  A trace
letter combines the current state's output with the current input; the
machine then moves along the matching edge.

Text format::

    inputs: m0 m1
    outputs: i0 i1 r
    state s0 initial { i0 i1 r }
    state s1 { i1 }
    s0 --m0 & m1--> s0
    s0 --!m0--> s1
    ...

A cube is an ``&``-separated list of literals over the inputs, or ``*`` for
true.  DOT export renders states with their output labels and edges with
their cubes.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .traces import APTable, Cube, FiniteTrace, LassoTrace, Letter

__all__ = ["Cube", "MooreMachine", "MachineFormatError", "parse_machine", "serialize_machine", "to_dot"]


class MachineFormatError(ValueError):
    pass


class MooreMachine:
    """Deterministic, total, output-labeled transition system."""

    def __init__(self, ap: APTable, names: list[str], initial: int,
                 outputs: list[Letter], edges: list[list[tuple[Cube, int]]]):
        self.ap = ap
        self.names = list(names)
        self.initial = initial
        self.outputs = [frozenset(o) for o in outputs]
        self.edges = [list(e) for e in edges]
        self._audit()

    def _audit(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise MachineFormatError("duplicate state ids")
        outs = frozenset(self.ap.outputs)
        for i, o in enumerate(self.outputs):
            if not o <= outs:
                raise MachineFormatError(f"state {self.names[i]} outputs undeclared propositions {sorted(o - outs)}")
        for i, state_edges in enumerate(self.edges):
            for letter in self.input_letters():
                hits = [dst for cube, dst in state_edges if cube.matches(letter)]
                if len(hits) == 0:
                    raise MachineFormatError(
                        f"transition function not total: state {self.names[i]} has no edge for input {set(letter) or '{}'}")
                if len(hits) > 1 and len(set(hits)) > 1:
                    raise MachineFormatError(
                        f"overlapping edges with different targets in state {self.names[i]} on input {set(letter) or '{}'}")

    def input_letters(self) -> list[Letter]:
        ins = self.ap.inputs
        return [frozenset(c) for r in range(len(ins) + 1) for c in itertools.combinations(ins, r)]

    def delta(self, state: int, inp: Letter) -> int:
        for cube, dst in self.edges[state]:
            if cube.matches(inp):
                return dst
        raise MachineFormatError(f"no edge from {self.names[state]} on {set(inp)}")

    def letter(self, state: int, inp: Letter) -> Letter:
        return self.outputs[state] | inp

    def run(self, inputs: FiniteTrace) -> FiniteTrace:
        """Trace for a finite input word: letter k is output(state k) union
        input k."""
        state = self.initial
        out = []
        for inp in inputs:
            extra = set(inp) - set(self.ap.inputs)
            if extra:
                raise ValueError(f"undeclared input propositions: {sorted(extra)}")
            out.append(self.letter(state, frozenset(inp)))
            state = self.delta(state, frozenset(inp))
        return tuple(out)

    def fin_traces(self, depth: int) -> set[FiniteTrace]:
        """All traces of length at most ``depth`` (exponential; oracle use)."""
        letters = self.input_letters()
        result: set[FiniteTrace] = {()}
        frontier: list[tuple[int, FiniteTrace]] = [(self.initial, ())]
        for _ in range(depth):
            nxt = []
            for state, trace in frontier:
                for inp in letters:
                    t2 = trace + (self.letter(state, inp),)
                    result.add(t2)
                    nxt.append((self.delta(state, inp), t2))
            frontier = nxt
        return result

    def all_lassos(self, input_period: int) -> Iterator[LassoTrace]:
        """Lassos induced by ultimately periodic input words with prefix plus
        period at most ``input_period``."""
        letters = self.input_letters()
        for total in range(1, input_period + 1):
            for plen in range(0, total):
                llen = total - plen
                for combo in itertools.product(letters, repeat=total):
                    pre, loop = combo[:plen], combo[plen:]
                    yield self.lasso_for(pre, loop)
        return

    def lasso_for(self, input_prefix: FiniteTrace, input_loop: FiniteTrace) -> LassoTrace:
        """Exact trace lasso for the input word prefix . loop^omega."""
        state = self.initial
        trace: list[Letter] = []
        for inp in input_prefix:
            trace.append(self.letter(state, inp))
            state = self.delta(state, inp)
        seen: dict[tuple[int, int], int] = {}
        pos = 0
        while (state, pos) not in seen:
            seen[(state, pos)] = len(trace)
            inp = input_loop[pos]
            trace.append(self.letter(state, inp))
            state = self.delta(state, inp)
            pos = (pos + 1) % len(input_loop)
        start = seen[(state, pos)]
        return LassoTrace(tuple(trace[:start]), tuple(trace[start:]))

    def __len__(self) -> int:
        return len(self.names)


def parse_machine(text: str) -> MooreMachine:
    inputs: tuple[str, ...] | None = None
    outputs: tuple[str, ...] | None = None
    names: list[str] = []
    initial: int | None = None
    state_outputs: list[Letter] = []
    edge_lines: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("inputs:"):
            inputs = tuple(line[len("inputs:"):].split())
        elif line.startswith("outputs:"):
            outputs = tuple(line[len("outputs:"):].split())
        elif line.startswith("state "):
            rest = line[len("state "):].strip()
            if "{" not in rest or not rest.endswith("}"):
                raise MachineFormatError(f"malformed state line: {line!r}")
            head, body = rest.split("{", 1)
            parts = head.split()
            if not parts or len(parts) > 2 or (len(parts) == 2 and parts[1] != "initial"):
                raise MachineFormatError(f"malformed state line: {line!r}")
            if len(parts) == 2:
                if initial is not None:
                    raise MachineFormatError("multiple initial states")
                initial = len(names)
            names.append(parts[0])
            state_outputs.append(frozenset(body[:-1].split()))
        elif "--" in line and "-->" in line:
            src, rest = line.split("--", 1)
            cube_text, dst = rest.rsplit("-->", 1)
            edge_lines.append((src.strip(), cube_text.strip(), dst.strip()))
        else:
            raise MachineFormatError(f"unrecognized line: {line!r}")
    if inputs is None or outputs is None:
        raise MachineFormatError("missing inputs:/outputs: header")
    if initial is None:
        raise MachineFormatError("no initial state")
    ap = APTable(inputs, outputs)
    index = {n: i for i, n in enumerate(names)}
    if len(index) != len(names):
        raise MachineFormatError("duplicate state ids")
    edges: list[list[tuple[Cube, int]]] = [[] for _ in names]
    for src, cube_text, dst in edge_lines:
        if src not in index or dst not in index:
            raise MachineFormatError(f"edge references unknown state: {src} --...--> {dst}")
        try:
            cube = Cube.parse(cube_text, frozenset(inputs), "input")
        except ValueError as e:
            raise MachineFormatError(str(e)) from None
        edges[index[src]].append((cube, index[dst]))
    return MooreMachine(ap, names, initial, state_outputs, edges)


def serialize_machine(m: MooreMachine) -> str:
    lines = [
        "inputs: " + " ".join(m.ap.inputs),
        "outputs: " + " ".join(m.ap.outputs),
    ]
    for i, name in enumerate(m.names):
        mark = " initial" if i == m.initial else ""
        lines.append(f"state {name}{mark} {{ {' '.join(sorted(m.outputs[i]))} }}".replace("{  }", "{ }"))
    for i, name in enumerate(m.names):
        for cube, dst in m.edges[i]:
            lines.append(f"{name} --{cube}--> {m.names[dst]}")
    return "\n".join(lines) + "\n"


def to_dot(m: MooreMachine, title: str = "machine") -> str:
    lines = [f'digraph "{title}" {{', "  rankdir=LR;", '  __init [shape=point, label=""];']
    for i, name in enumerate(m.names):
        label = ", ".join(sorted(m.outputs[i]))
        lines.append(f'  {i} [shape=box, style=rounded, label="{name}\\n{{{label}}}"];')
    lines.append(f"  __init -> {m.initial};")
    for i in range(len(m.names)):
        for cube, dst in m.edges[i]:
            lines.append(f'  {i} -> {dst} [label="{cube}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
