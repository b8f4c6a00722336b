"""Command-line surface.

Subcommands: count (one of the four counting functions at one n), table
(CSV/JSON sweep), verify (oracle-vs-formula sweep), positions (repetition
end-position lists), kernel (kernel word metadata).

Exit codes: 0 success, 1 usage or range error, 2 verification failure.

A process loads only what its command uses: ``count --stat A/C`` and
``positions`` import ``closed_forms``, ``count --stat B/D`` and ``positions
--repeated`` import ``fast_count``, ``kernel`` neither, ``table`` and
``verify`` both; only ``verify`` imports the brute-force ``oracle``.  A
stat's counting function is looked up among the package's names, which
import its module on first use.  The commands hold no counting rule of
their own: ``positions`` streams ``closed_forms.square_ends`` /
``cube_ends``, or with ``--repeated`` the per-position counts that
``fast_count`` copies along its segment rows, and the options are
range-checked by ``core_word._arg``, whose error names the option.  The
arguments are parsed from one table of commands (``_COMMANDS``) rather than
by argparse, whose import alone costs more than evaluating a count.
"""

import os
import sys
from itertools import chain, islice, repeat

from . import core_word

ROW_CAP = 10**6  # most rows ``table`` or ``positions`` will print
_CHUNK = 4096  # lines per write of a streamed listing


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
    print(_stat(opts["stat"])(n))
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
    stat = ("BD" if repeated else "AC")[kind == "cube"]
    rows = _stat(stat)(n)
    if rows > ROW_CAP:
        print(f"error: {rows} {kind} positions up to n={n} exceed "
              f"the limit of 10^6 rows", file=sys.stderr)
        return 1
    # streamed: each end once, or once per occurrence ending there, read
    # from the counts at 0..n, n + 1 bytes (the row cap bounds n)
    if repeated:
        from . import fast_count
        per = (fast_count._square_counts if kind == "square"
               else fast_count._cube_counts)(n)
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
#
# The grammar, and the messages and exit codes of the argparse parser it
# replaces: ``--opt value`` or ``--opt=value``, unique prefixes of an option
# (``--st B``), the last of repeated options wins, ``-h/--help`` on stdout
# with exit 0, and on a usage error a ``usage:`` line and ``tribcount: error:``
# on stderr with exit 1.  Help is not wrapped to the terminal width.

_PROG = "tribcount"
_DESCRIPTION = "Exact square/cube counts in Tribonacci prefixes"
_HELP = ("-h", "--help")
_HELP_SPEC = ("-h/--help", None, None, False, "show this help message and exit")

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


class _UsageError(Exception):
    """A command line that does not parse: (message, the subcommand whose
    usage goes with it, or None for the top level)."""


def _match(arg: str, flags, command):
    """What ``arg`` is among ``flags``: None for a value, otherwise the
    pair (flag, value after ``=`` or None), with flag "" for an unknown
    option.  A ``--`` prefix of more than one flag is an error."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    explicit = value if eq else None
    if name in flags:
        return name, explicit
    if name.startswith("--") and name != "--":
        hits = [f for f in flags if f.startswith(name)]
        if len(hits) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match "
                              f"{', '.join(hits)}", command)
        if hits:
            return hits[0], explicit
    # as in argparse, negative numbers such as "-5" and "-.5" are values
    return None if arg[1:].replace(".", "", 1).isdigit() else ("", None)


def _invocation(flag: str, dest: str, kind) -> str:
    if kind is None:
        return flag
    if kind is int:
        return f"{flag} {dest.upper()}"
    return f"{flag} {{{','.join(kind)}}}"


def _usage(command: str | None = None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: {_PROG} {command} [-h]"]
    for flag, dest, kind, required, _ in _COMMANDS[command][2]:
        words.append(_invocation(flag, dest, kind) if required
                     else f"[{_invocation(flag, dest, kind)}]")
    return " ".join(words)


def _columns(rows, width: int) -> list:
    # argparse's layout: help text from column ``width``
    return [f"{' ' * indent}{name:<{width - indent - 2}}  {text}" if text
            else " " * indent + name for indent, name, text in rows]


def _help(command: str | None = None) -> str:
    help_row = (2, "-h, --help", _HELP_SPEC[4])
    if command is None:
        commands = [(4, name, spec[1]) for name, spec in _COMMANDS.items()]
        choices = (2, f"{{{','.join(_COMMANDS)}}}", None)
        width = min(len(choices[1]) + 4, 24)
        return "\n".join([_usage(), "", _DESCRIPTION, "",
                          "positional arguments:",
                          *_columns([choices] + commands, width), "",
                          "options:", *_columns([help_row], width)])
    rows = [help_row] + [(2, _invocation(flag, dest, kind), text)
                         for flag, dest, kind, _, text in _COMMANDS[command][2]]
    width = min(max(len(name) for _, name, _ in rows) + 4, 24)
    return "\n".join([_usage(command), "", "options:", *_columns(rows, width)])


def _parse(argv):
    """(command, options) from the command line, or None once help has
    been printed; raises ``_UsageError``."""
    command, opts = None, {}
    options = dict.fromkeys(_HELP, _HELP_SPEC)  # flag -> spec, as _COMMANDS
    extras = []  # unknown options and stray values, reported last
    args = iter(argv)
    for arg in args:
        flag, value = _match(arg, options, command) or (None, None)
        if flag is None and command is None:
            if arg not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise _UsageError(f"argument command: invalid choice: {arg!r} "
                                  f"(choose from {choices})", None)
            command = arg
            for spec in _COMMANDS[command][2]:
                _, dest, kind, required, _ = spec
                options[spec[0]] = spec
                opts[dest] = (False if kind is None else
                              None if kind is int or required else kind[0])
            continue
        if not flag:
            extras.append(arg)
            continue
        name, dest, kind, _, _ = options[flag]
        if kind is None:
            if value is not None:
                raise _UsageError(f"argument {name}: ignored explicit "
                                  f"argument {value!r}", command)
            if dest is None:
                print(_help(command))
                return None
            opts[dest] = True
            continue
        if value is None:
            value = next(args, None)
            if value is None or _match(value, options, command) is not None:
                raise _UsageError(f"argument {flag}: expected one argument",
                                  command)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid int value: "
                                  f"{value!r}", command) from None
        elif value not in kind:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, kind))})",
                              command)
        opts[dest] = value
    if command is None:
        raise _UsageError("the following arguments are required: command",
                          None)
    missing = [flag for flag, dest, _, required, _ in _COMMANDS[command][2]
               if required and opts[dest] is None]
    if missing:
        raise _UsageError("the following arguments are required: "
                          + ", ".join(missing), command)
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras), None)
    return command, opts


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        message, command = exc.args
        prog = _PROG if command is None else f"{_PROG} {command}"
        print(_usage(command), file=sys.stderr)
        print(f"{prog}: error: {message}", file=sys.stderr)
        return 1
    if parsed is None:
        return 0
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
