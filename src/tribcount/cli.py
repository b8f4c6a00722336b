"""Command-line surface.

Subcommands: count (one of the four counting functions at one n), table
(CSV/JSON sweep), verify (oracle-vs-formula sweep), positions (repetition
end-position lists), kernel (kernel word metadata).

Exit codes: 0 success, 1 usage or range error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

# Counting commands import only these; ``oracle`` (numpy) is imported by the
# commands that scan, and ``json`` only for JSON output.
from . import closed_forms, core_word, fast_count

ROW_CAP = 10**6  # most rows ``table`` or ``positions`` will print


class OutputRow(core_word.Record):
    __slots__ = ("n", "A", "B", "C", "D")

    def __init__(self, n: int, A: int, B: int, C: int, D: int):
        self.n = n
        self.A = A
        self.B = B
        self.C = C
        self.D = D


class VerifyReport(core_word.Record):
    __slots__ = ("max_n", "exhaustive", "passed", "first_divergence")

    def __init__(self, max_n: int, exhaustive: bool, passed: dict,
                 first_divergence: dict):
        self.max_n = max_n
        self.exhaustive = exhaustive
        self.passed = passed
        self.first_divergence = first_divergence

    @property
    def ok(self) -> bool:
        return all(self.passed.values())


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_STATS = {
    "A": closed_forms.distinct_squares,
    "B": fast_count.algorithm_B,
    "C": closed_forms.distinct_cubes,
    "D": fast_count.algorithm_D,
}


def _row(n: int) -> OutputRow:
    return OutputRow(n, _STATS["A"](n), _STATS["B"](n),
                     _STATS["C"](n), _STATS["D"](n))


def cmd_count(args) -> int:
    print(_STATS[args.stat](args.n))
    return 0


def cmd_table(args) -> int:
    lo, hi = args.start, args.end
    if lo < 0 or lo > hi:
        print("error: need 0 <= --from <= --to", file=sys.stderr)
        return 1
    if hi - lo > ROW_CAP:
        print("error: table range limited to 10^6 rows", file=sys.stderr)
        return 1
    if hi > core_word.N_CAP:
        print(f"error: --to exceeds cap {core_word.N_CAP}", file=sys.stderr)
        return 1
    if args.format == "csv":
        print("n,A,B,C,D")
        for n in range(lo, hi + 1):
            r = _row(n)
            print(f"{r.n},{r.A},{r.B},{r.C},{r.D}")
    else:
        import json
        fields = OutputRow.__slots__
        rows = [{f: getattr(r, f) for f in fields}
                for r in map(_row, range(lo, hi + 1))]
        print(json.dumps(rows))
    return 0


def cmd_verify(args) -> int:
    from . import oracle
    max_n = args.max
    cap = oracle.oracle_cap()
    if args.exhaustive and max_n > oracle.EXHAUSTIVE_CAP:
        print(f"error: exhaustive verification capped at {oracle.EXHAUSTIVE_CAP}",
              file=sys.stderr)
        return 1
    if max_n > cap:
        print(f"error: verification capped at {cap} (set TRIB_ORACLE_CAP to raise)",
              file=sys.stderr)
        return 1
    summary = oracle.scan_repetitions(max_n, exhaustive=args.exhaustive)
    report = VerifyReport(max_n, args.exhaustive, {}, {})
    oracle_cum = {"A": summary.a, "B": summary.b, "C": summary.c, "D": summary.d}
    for name, fn in _STATS.items():
        acc = 0
        report.passed[name] = True
        for n in range(1, max_n + 1):
            acc += oracle_cum[name][n]
            got = fn(n)
            if got != acc:
                report.passed[name] = False
                report.first_divergence[name] = (n, acc, got)
                break
    for name in _STATS:
        if report.passed[name]:
            print(f"{name}: ok over [1, {max_n}]")
        else:
            n, want, got = report.first_divergence[name]
            print(f"{name}: FAIL at n={n}: oracle {want}, formula {got}")
    if args.exhaustive:
        restricted = oracle.scan_repetitions(max_n)
        same = (restricted.b == summary.b and restricted.d == summary.d
                and restricted.a == summary.a and restricted.c == summary.c)
        print(f"restricted root lengths: {'ok' if same else 'FAIL'}")
        no4 = oracle.assert_no_fourth_powers(max_n)
        print(f"fourth powers absent: {'ok' if no4 else 'FAIL'}")
        prim = all(
            oracle.is_primitive(core_word.prefix(max_n)[r.end_pos - r.power * r.root_len:
                                                        r.end_pos - (r.power - 1) * r.root_len])
            for recs in (summary.squares, summary.cubes) for r in recs)
        print(f"repetition roots primitive: {'ok' if prim else 'FAIL'}")
        if not (same and no4 and prim):
            return 2
    return 0 if report.ok else 2


def cmd_positions(args) -> int:
    n = args.n
    cap = core_word.oracle_cap()
    if n <= cap:
        from . import oracle
        summary = oracle.scan_repetitions(n)
        if args.repeated:
            recs = summary.squares if args.kind == "square" else summary.cubes
            ends = [r.end_pos for r in recs]
        else:
            vec = summary.a if args.kind == "square" else summary.c
            ends = [i for i in range(1, n + 1) if vec[i]]
    elif args.repeated:
        print(f"error: repeated positions need n <= oracle cap {cap}",
              file=sys.stderr)
        return 1
    else:
        distinct = (closed_forms.distinct_squares if args.kind == "square"
                    else closed_forms.distinct_cubes)
        rows = distinct(n)
        if rows > ROW_CAP:
            print(f"error: {rows} {args.kind} positions up to n={n} exceed "
                  f"the limit of 10^6 rows", file=sys.stderr)
            return 1
        ends = _indicator_positions(args.kind, n)  # streamed, not held
    for e in ends:
        print(e)
    return 0


def _indicator_positions(kind: str, n: int):
    # stream the new-distinct-end intervals instead of scanning every i
    if kind == "square":
        for e in (8, 10):
            if e <= n:
                yield e
        m = 4
        while True:
            bd = closed_forms.square_boundaries(m)
            if bd.alpha > n:
                return
            yield from range(bd.alpha, min(bd.beta, n) + 1)
            if bd.gamma <= n:
                yield from range(bd.gamma, min(bd.theta, n) + 1)
            m += 1
    else:
        m = 7
        while True:
            bd = closed_forms.cube_boundaries(m)
            if bd.alpha > n:
                return
            yield from range(bd.alpha, min(bd.beta, n) + 1)
            m += 1


def cmd_kernel(args) -> int:
    m = args.m
    if core_word.kernel_number(m) > 10**6:
        print("error: kernel word too long to materialize", file=sys.stderr)
        return 1
    word = core_word.kernel_word(m)
    print(f"m={m} word={word} length={core_word.kernel_number(m)} "
          f"first_end={core_word.position_kernel(m, 1)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tribcount",
                     description="Exact square/cube counts in Tribonacci prefixes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate one counting function")
    p.add_argument("--stat", required=True, choices=sorted(_STATS))
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("table", help="emit a table of all four counts")
    p.add_argument("--from", dest="start", required=True, type=int)
    p.add_argument("--to", dest="end", required=True, type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="compare formulas against the oracle")
    p.add_argument("--max", required=True, type=int)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("positions", help="list repetition end positions")
    p.add_argument("--kind", required=True, choices=("square", "cube"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--repeated", action="store_true",
                   help="every occurrence, not just first occurrences")
    p.set_defaults(fn=cmd_positions)

    p = sub.add_parser("kernel", help="show a kernel word and its first position")
    p.add_argument("--m", required=True, type=int)
    p.set_defaults(fn=cmd_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
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
