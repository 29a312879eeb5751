"""Output-labeled transition systems (Moore machines).

States carry output letters, edges are guarded by cubes over the input
propositions, and the transition function must be deterministic and total:
every input letter matches exactly one outgoing cube per state.  A trace
letter combines the current state's output with the current input; the
machine then moves along the matching edge.  The constructor's audit matches
the cubes once and keeps, per state, each input letter's trace letter and
successor; ``delta``, ``moves``, ``run`` and ``lasso_for`` read that table,
so a walk never follows a later edit of ``outputs`` or ``edges``.

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
their cubes; ``dot_graph`` writes it, and the monitor's DOT export too.
"""

from __future__ import annotations

from .traces import APTable, Cube, FiniteTrace, LassoTrace, Letter, all_letters

__all__ = ["MooreMachine", "MachineFormatError", "parse_machine", "serialize_machine", "to_dot"]


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
        self._table = self._audit()

    def _audit(self) -> list[dict[Letter, tuple[Letter, int]]]:
        """Per state, each input letter's trace letter and successor, in
        ``input_letters()`` order, once the machine is proven deterministic
        and total over its declared propositions."""
        if len(set(self.names)) != len(self.names):
            raise MachineFormatError("duplicate state ids")
        outs = frozenset(self.ap.outputs)
        for i, o in enumerate(self.outputs):
            if not o <= outs:
                raise MachineFormatError(f"state {self.names[i]} outputs undeclared propositions {sorted(o - outs)}")
        table = []
        for i, state_edges in enumerate(self.edges):
            row = {}
            for letter in self.input_letters():
                hits = [dst for cube, dst in state_edges if cube.matches(letter)]
                if len(hits) == 0:
                    raise MachineFormatError(
                        f"transition function not total: state {self.names[i]} has no edge for input {set(letter) or '{}'}")
                if len(hits) > 1 and len(set(hits)) > 1:
                    raise MachineFormatError(
                        f"overlapping edges with different targets in state {self.names[i]} on input {set(letter) or '{}'}")
                row[letter] = (self.outputs[i] | letter, hits[0])
            table.append(row)
        return table

    def input_letters(self) -> tuple[Letter, ...]:
        return all_letters(self.ap.inputs)

    def _step(self, state: int, inp: Letter) -> tuple[Letter, int]:
        """The trace letter and successor of ``state`` on input ``inp``."""
        try:
            return self._table[state][inp]
        except KeyError:
            raise ValueError(f"undeclared input propositions: "
                             f"{sorted(inp - frozenset(self.ap.inputs))}") from None

    def delta(self, state: int, inp: Letter) -> int:
        return self._step(state, inp)[1]

    def moves(self, state: int) -> list[tuple[Letter, Letter, int]]:
        """The ``(input, trace letter, successor)`` steps from ``state``, one
        per input letter in ``input_letters()`` order."""
        return [(inp, letter, dst) for inp, (letter, dst) in self._table[state].items()]

    def run(self, inputs: FiniteTrace) -> FiniteTrace:
        """Trace for a finite input word: letter k is output(state k) union
        input k."""
        state = self.initial
        out = []
        for inp in map(frozenset, inputs):
            letter, state = self._step(state, inp)
            out.append(letter)
        return tuple(out)

    def lasso_for(self, input_prefix: FiniteTrace, input_loop: FiniteTrace) -> LassoTrace:
        """Exact trace lasso for the input word prefix . loop^omega."""
        state = self.initial
        trace: list[Letter] = []
        for inp in input_prefix:
            letter, state = self._step(state, inp)
            trace.append(letter)
        seen: dict[tuple[int, int], int] = {}
        pos = 0
        while (state, pos) not in seen:
            seen[(state, pos)] = len(trace)
            letter, state = self._step(state, input_loop[pos])
            trace.append(letter)
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
            cube = Cube.parse(cube_text, frozenset(inputs))
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
    return dot_graph(title, m.initial,
                     [f"{name}\n{{{', '.join(sorted(out))}}}" for name, out in zip(m.names, m.outputs)],
                     [(i, dst, str(cube)) for i, row in enumerate(m.edges) for cube, dst in row])


def dot_graph(title: str, initial: int, labels: list[str],
              edges: list[tuple[int, int, str]]) -> str:
    """A left-to-right DOT digraph of rounded boxes numbered from 0 with the
    given labels, the ``(src, dst, label)`` edges, and a point that enters
    ``initial``.  The title and every label are DOT strings: ``\\`` and ``"``
    are escaped, and a line break becomes ``\\n``."""
    def q(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'

    lines = [f"digraph {q(title)} {{", "  rankdir=LR;", '  __init [shape=point, label=""];']
    lines += [f"  {i} [shape=box, style=rounded, label={q(label)}];"
              for i, label in enumerate(labels)]
    lines.append(f"  __init -> {initial};")
    lines += [f"  {src} -> {dst} [label={q(label)}];" for src, dst, label in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
