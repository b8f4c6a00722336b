"""Counting paths load neither the oracle nor ``dataclasses``; no command,
not even one that scans with the oracle, loads numpy or ``dataclasses``; and
a CLI process loads only the counting module its command uses, and argparse
only for a line that is not in full form: help, an abbreviated option or a
usage error.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.  Modules that the interpreter had loaded before
tribcount (from ``site``, say) are not held against it.

Every top-level function and class of the package is reachable from what a
user calls: the public names, the console script and what the modules run
at import.  A check that only tests call lives under ``tests/``.
"""

import ast
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


def test_public_names():
    import tribcount
    assert tribcount.__all__ == [
        "ExactDivisionError", "MATERIALIZE_CAP", "N_CAP", "RepetitionSummary",
        "a_indicator", "algorithm_B", "algorithm_D", "b_at", "c_indicator",
        "d_at", "distinct_cubes", "distinct_cubes_at_t", "distinct_squares",
        "distinct_squares_at_t", "kernel_number", "kernel_word", "letter_at",
        "letter_counts", "position_kernel", "position_letter", "prefix",
        "repeated_cubes_at_t", "repeated_squares_at_t", "scan_repetitions",
        "trib_number",
    ]


def test_oracle_names_still_reachable():
    out = _run("""
import io, contextlib, sys
import tribcount
assert tribcount.scan_repetitions(50).distinct_squares == 20
from tribcount.oracle import is_primitive
assert is_primitive("ab") and not is_primitive("abab")
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
           "tribcount.closed_forms", "tribcount.fast_count",
           "tribcount.tiling")

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

# a one-answer B or D process walks the tiling's rows without the pieces
# of fast_count, which imports tiling
CF, FC = "tribcount.closed_forms", "tribcount.fast_count"
TL = "tribcount.tiling"
COMMANDS = [
    (["count", "--stat", "A", "--n", "65"], [CF]),
    (["count", "--stat", "C", "--n", str(10**18)], [CF]),
    (["count", "--stat", "B", "--n", str(10**18)], [TL]),
    (["count", "--stat", "D", "--n", "500"], [TL]),
    (["kernel", "--m", "12"], []),
    (["positions", "--kind", "cube", "--n", "6000"], [CF]),
    (["positions", "--kind", "square", "--n", "65"], [CF]),
    (["positions", "--kind", "cube", "--n", "500", "--repeated"], [TL]),
    (["verify", "--max", "50"], ["tribcount.oracle", CF, FC, TL]),
    (["table", "--from", "1", "--to", "9"], [CF, FC, TL]),
    # lines in full form skip argparse; help, prefixes and errors use it
    (["count", "--stat", "A", "--n=65"], [CF]),
    (["count", "--n", "65", "--stat", "A"], [CF]),
    (["table", "--from", "1", "--to", "9", "--format", "json"],
     [CF, FC, TL]),
    (["verify", "--max", "50", "--exhaustive"],
     ["tribcount.oracle", CF, FC, TL]),
    (["count", "--st", "A", "--n", "65"], ["argparse", CF]),
    (["count", "--help"], ["argparse"]),
    (["count", "--stat", "X", "--n", "5"], ["argparse"]),
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


# what a user reaches besides the public names: the console script
# (``[project.scripts]``) and the module dunders the interpreter calls
ENTRY_POINTS = (("cli", "entry"), ("__init__", "__getattr__"),
                ("__init__", "__dir__"))


def _unreachable():
    """``module.name`` of every top-level function or class of the package
    that no chain of references reaches from ``__all__``, ENTRY_POINTS or
    a module-level statement.  A name resolves to a definition of its own
    module or to the one it was imported from (``from .m import name``);
    ``m.name``, with m imported by ``from . import m``, to m's definition;
    any other attribute name to every definition of that name."""
    import tribcount
    defs, aliases, imported = {}, {}, {}
    roots = []
    for path in sorted((SRC / "tribcount").glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            else:
                roots.append((module, node))
        aliases[module], imported[module] = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[module][a.asname or a.name] = a.name
                    else:
                        imported[module][a.asname or a.name] = (node.module,
                                                               a.name)

    def targets(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield imported[module].get(sub.id, (module, sub.id))
            elif isinstance(sub, ast.Attribute):
                owner = sub.value
                if (isinstance(owner, ast.Name)
                        and owner.id in aliases[module]):
                    yield aliases[module][owner.id], sub.attr
                else:
                    yield from ((m, n) for m, n in defs if n == sub.attr)

    # each public name where it is defined (constants define nothing)
    public = [getattr(tribcount, name) for name in tribcount.__all__]
    todo = [(obj.__module__.rpartition(".")[2], obj.__name__)
            for obj in public if hasattr(obj, "__name__")]
    todo += ENTRY_POINTS
    for module, node in roots:
        todo += targets(module, node)
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += targets(key[0], defs[key])
    return sorted(f"{m}.{n}" for m, n in set(defs) - reached)


def test_every_function_is_reachable():
    unreachable = _unreachable()
    assert not unreachable, ("reached from no public name, entry point or "
                             "module-level statement: "
                             + ", ".join(unreachable))
