"""Command-line surface.

Subcommands: count (one of the four counting functions at one n), table
(CSV/JSON sweep), verify (oracle-vs-formula sweep), positions (repetition
end-position lists), kernel (kernel word metadata).

Exit codes: 0 success, 1 usage or range error, 2 verification failure.

A process loads only what its command uses: ``count --stat A/C`` and
``positions`` import ``closed_forms``, ``count --stat B/D`` and ``positions
--repeated`` import ``tiling``, ``kernel`` none of them, ``table`` and
``verify`` ``closed_forms`` and ``fast_count``, which imports ``tiling``;
only ``verify`` imports the brute-force ``oracle``.  A process that prints
one repeated count, or takes the row cap of ``positions --repeated`` from
one, walks the rows of a fresh ``tiling._build`` one step at a time
(``tiling._walk``) and builds none of ``fast_count``'s pieces, which pay off
only over many calls.  The library counters and the sweeps keep the pieces:
a stat's counting function is looked up among the package's names, which
import its module on first use.  The commands hold no counting rule of
their own: ``positions`` streams ``closed_forms.square_ends`` /
``cube_ends``, or with ``--repeated`` the per-position counts that
``tiling._counts`` copies along the segment rows, and the options are
range-checked by ``core_word._arg``, whose error names the option.

The grammar is the running Python's argparse, built by ``_parser`` from one
table of commands (``_COMMANDS``): its messages, its help wrapped to the
terminal width and its version's rules for ``--``; a usage error exits 1.
A command followed only by its own options in full, with valid values that
do not start with "-" (every line the benchmark runs), is read by ``_fast``
without importing argparse.  Help, abbreviated options, negative values and
usage errors pay ~5 ms more: 2.3 ms to import argparse, 2.6 ms to build the
parser (medians of 20 fresh processes, Python 3.11).
"""

import os
import sys
from itertools import chain, islice, repeat

from . import core_word

ROW_CAP = 10**6  # most rows ``table`` or ``positions`` will print
_CHUNK = 1024  # lines per write of a streamed listing, all held at once


def _chunks(items):
    """Lists of up to _CHUNK consecutive items of ``items``."""
    items = iter(items)
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _write_lines(lines) -> None:
    """Write each string of ``lines`` and a newline, as ``print`` would,
    in joined chunks of _CHUNK lines: streamed, and cheaper than one
    ``print`` per line."""
    for chunk in _chunks(lines):
        sys.stdout.write("\n".join(chunk) + "\n")


# stat letter -> counting function, filled by ``_stat`` on first use from
# the function's name in the package
_STATS = {}
_STAT_NAMES = {"A": "distinct_squares", "B": "algorithm_B",
               "C": "distinct_cubes", "D": "algorithm_D"}


def _stat(name: str):
    """The counting function of stat A, B, C or D, looked up among the
    package's names, which import its module on first use."""
    fn = _STATS.get(name)
    if fn is None:
        fn = getattr(sys.modules[__package__], _STAT_NAMES[name])
        _STATS[name] = fn
    return fn


def cmd_count(opts) -> int:
    n = core_word._arg(opts["n"], 0, core_word.N_CAP, "--n")
    stat = opts["stat"]
    if stat in "AC":
        print(_stat(stat)(n))
    else:  # one repeated count: the walk, without fast_count's pieces
        from . import tiling
        built = tiling._build("square" if stat == "B" else "cube")
        print(tiling._walk(built, n))
    return 0


_COLUMNS = ("n", "A", "B", "C", "D")  # one table row: n and the four counts
# one row as ``json.dumps`` writes the dict of its columns
_JSON_ROW = "{%s}" % ", ".join(f'"{c}": %d' for c in _COLUMNS)


def _rows(lo: int, hi: int):
    a, b, c, d = map(_stat, "ABCD")
    for n in range(lo, hi + 1):
        yield n, a(n), b(n), c(n), d(n)


def cmd_table(opts) -> int:
    lo = core_word._arg(opts["start"], 0, core_word.N_CAP, "--from")
    hi = core_word._arg(opts["end"], lo, core_word.N_CAP, "--to")
    if hi - lo + 1 > ROW_CAP:
        print("error: table range limited to 10^6 rows", file=sys.stderr)
        return 1
    if opts["format"] == "csv":
        print(",".join(_COLUMNS))
        _write_lines(f"{n},{a},{b},{c},{d}" for n, a, b, c, d in _rows(lo, hi))
    else:
        # streamed: the bytes of ``json.dumps`` of the list of row dicts
        sys.stdout.write("[")
        lead = ""
        for chunk in _chunks(_JSON_ROW % row for row in _rows(lo, hi)):
            sys.stdout.write(lead + ", ".join(chunk))
            lead = ", "
        sys.stdout.write("]\n")
    return 0


def cmd_verify(opts) -> int:
    from . import oracle
    exhaustive = opts["exhaustive"]
    max_n = core_word._arg(opts["max"], 1, oracle.EXHAUSTIVE_CAP if exhaustive
                           else oracle.ORACLE_CAP, "--max")
    summary = oracle.scan_repetitions(max_n, exhaustive=exhaustive)
    ok = True
    for name, vec in zip("ABCD", (summary.a, summary.b, summary.c, summary.d)):
        fn = _stat(name)
        acc = 0
        line = f"{name}: ok over [1, {max_n}]"
        for n in range(1, max_n + 1):
            acc += vec[n]
            got = fn(n)
            if got != acc:
                ok = False
                line = f"{name}: FAIL at n={n}: oracle {acc}, formula {got}"
                break
        print(line)
    if exhaustive:
        # the restricted root families must give the same occurrences
        same = oracle.scan_repetitions(max_n) == summary
        print(f"restricted root lengths: {'ok' if same else 'FAIL'}")
        no4 = oracle.assert_no_fourth_powers(max_n)
        print(f"fourth powers absent: {'ok' if no4 else 'FAIL'}")
        word = core_word.prefix(max_n)
        # the last root of the repetition ending at each end of each run
        runs = summary.square_runs + summary.cube_runs
        prim = all(oracle.is_primitive(word[e - L:e])
                   for L, first, last in runs for e in range(first, last + 1))
        print(f"repetition roots primitive: {'ok' if prim else 'FAIL'}")
        ok = ok and same and no4 and prim
    return 0 if ok else 2


def cmd_positions(opts) -> int:
    kind, repeated = opts["kind"], opts["repeated"]
    n = core_word._arg(opts["n"], 0, core_word.N_CAP, "--n")
    if repeated:
        from . import tiling
        built = tiling._build(kind)
        rows = tiling._walk(built, n)
    else:
        rows = _stat("A" if kind == "square" else "C")(n)
    if rows > ROW_CAP:
        print(f"error: {rows} {kind} positions up to n={n} exceed "
              f"the limit of 10^6 rows", file=sys.stderr)
        return 1
    # streamed: each end once, or once per occurrence ending there, read
    # from the counts at 0..n, n + 1 bytes (the row cap bounds n)
    if repeated:
        per = tiling._counts(built.rows, n)
        ends = chain.from_iterable(map(repeat, range(n + 1), per))
    else:
        from . import closed_forms
        ends = (closed_forms.square_ends if kind == "square"
                else closed_forms.cube_ends)(n)
    _write_lines(map(str, ends))
    return 0


def cmd_kernel(opts) -> int:
    m = core_word._arg(opts["m"], 1, core_word._KERNEL_WORD_MAX, "--m")
    word = core_word.kernel_word(m)
    print(f"m={m} word={word} length={core_word.kernel_number(m)} "
          f"first_end={core_word.position_kernel(m, 1)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# command -> (function, help, options); an option is (flag, dest, kind,
# required, help), kind ``int``, a tuple of choices or None for a flag.  An
# omitted flag is False, an omitted optional choice its first choice, and
# any other omitted option None.
_COMMANDS = {
    "count": (cmd_count, "evaluate one counting function", (
        ("--stat", "stat", ("A", "B", "C", "D"), True, None),
        ("--n", "n", int, True, None),
    )),
    "table": (cmd_table, "emit a table of all four counts", (
        ("--from", "start", int, True, None),
        ("--to", "end", int, True, None),
        ("--format", "format", ("csv", "json"), False, None),
    )),
    "verify": (cmd_verify, "compare formulas against the oracle", (
        ("--max", "max", int, True, None),
        ("--exhaustive", "exhaustive", None, False, None),
    )),
    "positions": (cmd_positions, "list repetition end positions", (
        ("--kind", "kind", ("square", "cube"), True, None),
        ("--n", "n", int, True, None),
        ("--repeated", "repeated", None, False,
         "every occurrence, not just first occurrences"),
    )),
    "kernel": (cmd_kernel, "show a kernel word and its first position", (
        ("--m", "m", int, True, None),
    )),
}


def _default(kind, required: bool):
    return (False if kind is None
            else None if kind is int or required else kind[0])


def _fast(argv):
    """(command, options) of a line that is a command and then only its
    own options spelled in full, ``--opt value`` or ``--opt=value``, with
    no value that starts with "-", every value valid and every required
    option given; None for any other line.  On such a line argparse gives
    the same options."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    kinds = {flag: (dest, kind) for flag, dest, kind, _, _ in spec[2]}
    opts = {dest: _default(kind, required)
            for _, dest, kind, required, _ in spec[2]}
    args = iter(argv[1:])
    for arg in args:
        flag, eq, value = arg.partition("=")
        if flag not in kinds:
            return None
        dest, kind = kinds[flag]
        if kind is None:
            if eq:
                return None
            opts[dest] = True
            continue
        if not eq:
            value = next(args, "-")  # none left: argparse's to report
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in kind:
            return None
        opts[dest] = value
    if any(required and opts[dest] is None
           for _, dest, _, required, _ in spec[2]):
        return None
    return argv[0], opts


def _parser():
    """The argparse parser of ``_COMMANDS``: one subcommand each, whose
    usage errors exit 2 and whose help exits 0."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tribcount",
        description="Exact square/cube counts in Tribonacci prefixes")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, about, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=about)
        for flag, dest, kind, required, text in options:
            if kind is None:
                command.add_argument(flag, dest=dest, action="store_true",
                                     help=text)
            else:
                command.add_argument(
                    flag, dest=dest, required=required, help=text,
                    default=_default(kind, required),
                    **({"type": int} if kind is int else {"choices": kind}))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parsed = _fast(argv)
    if parsed is None:
        try:
            opts = vars(_parser().parse_args(argv))
        except SystemExit as exc:
            # argparse has printed help (exit 0) or a usage error (exit 2)
            return 1 if exc.code else 0
        parsed = opts.pop("command"), opts
    command, opts = parsed
    try:
        return _COMMANDS[command][0](opts)
    except (ValueError, core_word.ExactDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  As the Python docs
        # advise, point stdout at devnull so the flush at exit cannot fail
        # again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
