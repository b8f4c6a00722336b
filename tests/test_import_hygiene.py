"""Counting paths load neither numpy, the oracle nor ``dataclasses``.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.  Modules that the interpreter had loaded before
tribcount (from ``site``, say) are not held against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "tribcount.oracle", "tribcount._kernels", "dataclasses")

SCRIPT = f"""
import contextlib, io, json, sys
heavy = {HEAVY!r}
preloaded = set(sys.modules)
report = {{}}

def loaded():
    return sorted(m for m in heavy if m in sys.modules and m not in preloaded)

import tribcount
report["import tribcount"] = loaded()
from tribcount import cli
for argv in (["count", "--stat", "B", "--n", str(10**18)],
             ["table", "--from", "1000", "--to", "1010", "--format", "csv"],
             ["kernel", "--m", "12"],
             ["positions", "--kind", "square", "--n", "6000"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[" ".join(argv[:1] + argv[-2:])] = [code, loaded()]
print(json.dumps(report))
"""


def _run(script):
    env = {k: v for k, v in os.environ.items()
           if k not in ("TRIB_ORACLE_CAP", "TRIBCOUNT_BACKEND")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_counting_paths_stay_light():
    report = json.loads(_run(SCRIPT))
    assert report.pop("import tribcount") == []
    assert len(report) == 4
    for command, (code, heavy) in report.items():
        assert code == 0, command
        assert heavy == [], command


def test_oracle_names_still_reachable():
    out = _run("""
import io, contextlib, sys
import tribcount
assert tribcount.scan_repetitions(50).distinct_squares == 20
from tribcount import occurrences
assert occurrences("aa", 40) == [8, 21, 32]
ns = {}
exec("from tribcount import *", ns)
missing = [name for name in tribcount.__all__ if name not in ns]
assert not missing, missing
from tribcount import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(["verify", "--max", "50"])
assert code == 0, buf.getvalue()
print(buf.getvalue(), end="")
print("numpy" in sys.modules)
""")
    assert out.splitlines() == [f"{s}: ok over [1, 50]" for s in "ABCD"] + ["True"]
