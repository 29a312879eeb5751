"""Static checks over the library's source, and over the benchmark's view of
the library."""

import ast
import builtins
import importlib
import os
import subprocess
import symtable
import sys
from pathlib import Path

import liveupdate

SOURCES = sorted(Path(liveupdate.__file__).parent.glob("*.py"))
BENCH = Path(__file__).parents[1] / "bench"


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


def _self_references(path: Path) -> list[str]:
    """Functions that refer to their own name: a call, a callback or a same-named
    attribute of any object but ``super()``.  Each is a recursion, one Python
    frame per level of whatever it walks."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "super"):
                name = node.attr
            else:
                continue
            if name == fn.name:
                found.append(f"{path.name}:{node.lineno} {fn.name}")
    return found


def test_no_function_refers_to_itself():
    # formulas are walked with formula.fold, whose stack is a list: no input
    # is nested too deeply for it
    found = [m for path in SOURCES for m in _self_references(path)]
    assert not found, "\n".join(found)


def test_self_reference_is_reported(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class A(Exception):\n    def __init__(self):\n        super().__init__()\n\n"
                   "    def walk(self):\n        return [c.walk() for c in self.kids]\n\n"
                   "def depth(f):\n    return 1 + max(map(depth, f.parts), default=0)\n")
    assert sorted(_self_references(src)) == ["mod.py:6 walk", "mod.py:9 depth"]


def _foreign_imports(path: Path) -> list[str]:
    """Absolute imports of anything but the standard library and liveupdate."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"liveupdate"}]
    return found


def test_runtime_is_stdlib_only():
    found = [m for path in SOURCES for m in _foreign_imports(path)]
    assert not found, "\n".join(found)


def test_foreign_import_is_reported(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path, numpy\nfrom . import sat\nfrom liveupdate.sat import Solver\n\n"
                   "def f():\n    from yaml import load\n")
    assert _foreign_imports(src) == ["mod.py:1 numpy", "mod.py:6 yaml"]


# The benchmark's sources change only with the benchmark, so a library change
# that deletes or renames a name they use must fail here rather than in a run.


def _bench_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of each ``from liveupdate... import name`` in the
    benchmark's sources, those inside functions included."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "liveupdate":
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute, or else a
    submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    imports = _bench_imports()
    assert {"gen.py", "layers.py", "workloads.py"} <= {path for path, _, _ in imports}
    missing = [f"{path}: from {module} import {name}" for path, module, name in imports
               if not _resolves(module, name)]
    assert not missing, "\n".join(missing)


def test_bench_instruments_the_library():
    # the traced run wraps library functions by name
    code = "import workloads, layers, spans; layers.instrument(spans.Tracer())"
    path = os.pathsep.join([str(BENCH), str(Path(liveupdate.__file__).parents[1])])
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
