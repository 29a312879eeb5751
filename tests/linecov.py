"""Run the tier-1 suite in this process under ``sys.settrace`` and list every
executable line of the ``liveupdate`` package that no test runs.

A line is executable when the compiler maps an instruction of the module to
it (``co_lines`` of each code object).  The one line allowed to stay unrun is
``cli.py``'s ``sys.exit(main())``, which only a ``python -m`` run reaches.
The script judges coverage alone: tracing makes the suite several times
slower, so a test with a wall-time bound can fail under it, and the untraced
run gives the suite's verdict.  It exits non-zero when a line is missed.
Run it from the repository root, with the package importable:

    PYTHONPATH=src python tests/linecov.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liveupdate"
ALLOWED = {"cli.py": "sys.exit(main())"}  # file -> the text of its one unrun line


def executable(path: Path) -> set[int]:
    """The lines to which an instruction of the module's code maps."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_suite() -> dict[Path, set[int]]:
    """The lines of each package module that the tier-1 suite runs.  The
    package is imported under the trace, so its module-level lines count."""
    assert "liveupdate" not in sys.modules, "the package was imported before the trace"
    ran: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}

    def line_tracer(hit: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return trace
        return trace

    tracers = {path: line_tracer(hit) for path, hit in ran.items()}
    by_name: dict[str, object] = {}  # co_filename -> its line tracer, None outside the package

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = tracers.get(Path(name).resolve())
        return by_name[name]

    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    print(f"pytest exited {int(code)} under the trace; its verdict is not judged here")
    return ran


def main() -> int:
    ran = traced_suite()
    missed, total, hit = [], 0, 0
    for path in sorted(ran):
        text = path.read_text().splitlines()
        lines = executable(path)
        total, hit = total + len(lines), hit + len(lines & ran[path])
        missed += [f"{path.name}:{n}: {text[n - 1].strip()}" for n in sorted(lines - ran[path])
                   if text[n - 1].strip() != ALLOWED.get(path.name)]
    print(f"{hit} of {total} executable lines of {PACKAGE.name} ran", *missed, sep="\n")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
