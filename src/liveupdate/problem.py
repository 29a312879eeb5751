"""Problem files: the text format consumed by the command-line tools.

A problem file is a sequence of sections.  A section starts with ``KEY:`` at
the beginning of a line; its value is the remainder plus any following lines
up to the next section.  Sections::

    INPUTS:           space-separated input propositions
    OUTPUTS:          space-separated output propositions
    INITIAL:          the initial specification (LTL)
    UPDATE:           the update specification (LTL)
    TRACE:            recorded execution, ';'-separated letters ('-' = empty)
    INITIAL_MACHINE:  inline machine text, or '@path' relative to the file
    UPDATE_MACHINE:   likewise

Which sections must be present depends on the subcommand; the parser only
enforces internal consistency (declared propositions, machine format).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .formula import Formula
from .machine import MooreMachine, parse_machine
from .parser import parse_formula
from .traces import APTable, FiniteTrace, parse_trace

__all__ = ["ProblemFile", "ProblemFormatError", "load_problem"]


class ProblemFormatError(ValueError):
    pass


_KEYS = ("INPUTS", "OUTPUTS", "INITIAL", "UPDATE", "TRACE", "INITIAL_MACHINE", "UPDATE_MACHINE")


@dataclass
class ProblemFile:
    ap: APTable
    initial: Formula | None
    update: Formula | None
    trace: FiniteTrace | None
    initial_machine: MooreMachine | None
    update_machine: MooreMachine | None

    def require(self, *names: str) -> None:
        missing = [n.upper() for n in names if getattr(self, n) is None]
        if missing:
            raise ProblemFormatError(f"problem file lacks required sections: {', '.join(missing)}")


def _split_sections(text: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0] if not raw.lstrip().startswith("#") else ""
        head = stripped.split(":", 1)[0].strip() if ":" in stripped else None
        if head in _KEYS and not raw.startswith((" ", "\t")):
            current = head
            sections[current] = [stripped.split(":", 1)[1]]
        elif current is not None:
            sections[current].append(raw)
        elif stripped.strip():
            raise ProblemFormatError(f"text before first section: {raw.strip()!r}")
    return {k: "\n".join(v).strip() for k, v in sections.items()}


def load_problem(path: str | Path) -> ProblemFile:
    path = Path(path)
    sections = _split_sections(path.read_text())
    if "INPUTS" not in sections or "OUTPUTS" not in sections:
        raise ProblemFormatError("problem file needs INPUTS: and OUTPUTS: sections")
    ap = APTable(tuple(sections["INPUTS"].split()), tuple(sections["OUTPUTS"].split()))

    def formula(key: str) -> Formula | None:
        if key not in sections:
            return None
        f = parse_formula(" ".join(sections[key].split()), declared=ap.all)
        return f

    def machine(key: str) -> MooreMachine | None:
        if key not in sections:
            return None
        body = sections[key]
        if body.startswith("@"):
            body = (path.parent / body[1:].strip()).read_text()
        m = parse_machine(body)
        if not m.ap.all <= ap.all:
            raise ProblemFormatError(f"{key} machine declares propositions outside the problem AP table")
        return m

    trace = parse_trace(sections["TRACE"]) if "TRACE" in sections else None
    if trace is not None:
        for letter in trace:
            ap.check_letter(letter)
    return ProblemFile(
        ap=ap,
        initial=formula("INITIAL"),
        update=formula("UPDATE"),
        trace=trace,
        initial_machine=machine("INITIAL_MACHINE"),
        update_machine=machine("UPDATE_MACHINE"),
    )
