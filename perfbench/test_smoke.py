"""The benchmark's own test: every workload at a tiny size, both modes.

    python -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_reports_every_metric_without_failures():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
