"""The benchmark's own test: one operation of each workload, with every check.

    python3 -m pytest bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_quick_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(RUN), "--quick"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("quick ")]
    assert len(lines) == 3 and all(": ok (" in line for line in lines), proc.stdout
