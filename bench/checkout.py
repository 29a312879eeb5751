"""Process set-up shared by the benchmark's entry points.

The benchmark runs from the root of a source checkout and imports the library
from its ``src`` directory, never from an installed copy.  The SAT search
depends on the string hash seed (``_out_conditions`` iterates sets of
proposition names), so every process that runs the library pins
``PYTHONHASHSEED`` by re-executing itself before anything is imported.  It
also turns off writing bytecode, so that every import compiles the library
from source and no run leaves files that the next one reads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HASH_SEED = "0"
PINNED = {"PYTHONHASHSEED": HASH_SEED, "PYTHONDONTWRITEBYTECODE": "1"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
RESULTS = BENCH_DIR / "results"


def pin_environment() -> None:
    """Re-execute this interpreter with the ``PINNED`` environment unless it
    is already in effect.  ``exec`` replaces the process, so no child is
    left."""
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        env = dict(os.environ, **PINNED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *sys.argv[1:]], env)


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the import path; refuse to run
    without it."""
    if not (SRC / "liveupdate" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
