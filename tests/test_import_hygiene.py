"""Counting paths load neither the oracle nor ``dataclasses``; no command,
not even one that scans with the oracle, loads numpy or ``dataclasses``; and
a CLI process loads only the counting module its command uses, and no
argparse.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.  Modules that the interpreter had loaded before
tribcount (from ``site``, say) are not held against it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _run(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
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
from tribcount.oracle import occurrences
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
    assert out.splitlines() == [f"{s}: ok over [1, 50]" for s in "ABCD"] + ["False"]


WATCHED = ("argparse", "dataclasses", "numpy", "tribcount.oracle",
           "tribcount.closed_forms", "tribcount.fast_count")

# ``python -m tribcount.cli ARGV`` through runpy, then the watched modules
# loaded at exit
CLI_SCRIPT = f"""
import runpy, sys
try:
    runpy.run_module("tribcount.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *(m for m in {WATCHED!r} if m in sys.modules))
"""

CF, FC = "tribcount.closed_forms", "tribcount.fast_count"
COMMANDS = [
    (["count", "--stat", "A", "--n", "65"], [CF]),
    (["count", "--stat", "C", "--n", str(10**18)], [CF]),
    (["count", "--stat", "B", "--n", str(10**18)], [FC]),
    (["count", "--stat", "D", "--n", "500"], [FC]),
    (["kernel", "--m", "12"], []),
    (["positions", "--kind", "cube", "--n", "6000"], [CF]),
    (["positions", "--kind", "square", "--n", "65"], [CF]),
    (["positions", "--kind", "cube", "--n", "500", "--repeated"], [FC]),
    (["verify", "--max", "50"], ["tribcount.oracle", CF, FC]),
    (["table", "--from", "1", "--to", "9"], [CF, FC]),
    (["count", "--help"], []),
    (["count", "--stat", "X", "--n", "5"], []),
]


@pytest.mark.parametrize("argv,loaded", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_cli_loads_only_its_module(argv, loaded):
    last = _run(CLI_SCRIPT, *argv).splitlines()[-1].split()
    assert last[0] == ("1" if "X" in argv else "0")
    assert sorted(last[1:]) == sorted(loaded)


def test_bare_import_loads_no_counting_module():
    out = _run(f"""
import sys
import tribcount
print(*(m for m in {WATCHED!r} if m in sys.modules))
""")
    assert out.split() == []
