"""Static checks over the library's source."""

import builtins
import symtable
from pathlib import Path

import liveupdate

SOURCES = sorted(Path(liveupdate.__file__).parent.glob("*.py"))


def _unbound_globals(path: Path) -> list[str]:
    """Names that a function reads as globals but that the module never binds
    (by assignment, definition or import) and that are not builtins."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins))
    missing = []
    todo = list(top.get_children())
    while todo:
        table = todo.pop()
        todo.extend(table.get_children())
        for sym in table.get_symbols():
            if sym.is_global() and sym.is_referenced() and sym.get_name() not in known:
                missing.append(f"{path.name}:{table.get_lineno()} {table.get_name()}: {sym.get_name()}")
    return missing


def test_no_unbound_global_reads():
    assert any(p.name == "synthesis.py" for p in SOURCES)
    missing = [m for path in SOURCES for m in _unbound_globals(path)]
    assert not missing, "\n".join(missing)


def test_unbound_global_is_reported(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\n\ndef f():\n    try:\n        os.getcwd()\n"
                   "    except MissingError:\n        pass\n")
    assert _unbound_globals(src) == ["mod.py:3 f: MissingError"]
