"""Seeded op streams for the four workloads, and the checks that confirm each
op's output by a second route.

A workload is an endless sequence of rounds.  Every round holds the same mix
of op kinds in a seeded order, and a run stops only between rounds, so every
run measures the same mix and the medians do not depend on where it stopped.

- ``point``: library calls of the six counters, n log-uniform in
  [10^3, 10^18].  Nearly all time is in the segment descent of
  ``fast_count`` and the closed forms; no CLI, oracle or import.
- ``sweep``: ``table`` windows of consecutive n near 10^6 and 10^15 (the
  first window of a run as JSON) and ``positions`` past the oracle cap,
  which streams indicator intervals and holds its output in memory.
- ``verify``: ``verify --max`` at 1000, 3000 and the oracle cap 5000, the
  exhaustive verify at 600, and ``positions --repeated`` below the cap:
  prefix materialisation, the repetition scan and its post-processing.
- ``cold``: one-answer CLI processes (``count``, ``kernel``, small
  ``positions``), where interpreter start and import are the whole cost.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

N_MAX = 10**18
ORACLE_CAP = 5000  # the CLI's default brute-force ceiling

POINT_FUNCS = ("distinct_squares", "algorithm_B", "distinct_cubes",
               "algorithm_D", "b_at", "d_at")

# cumulative count and its per-position increment, by CLI stat letter
STATS = {
    "A": ("distinct_squares", "a_indicator"),
    "B": ("algorithm_B", "b_at"),
    "C": ("distinct_cubes", "c_indicator"),
    "D": ("algorithm_D", "d_at"),
}
KIND_STAT = {"square": ("A", "B"), "cube": ("C", "D")}  # (distinct, repeated)

EXHAUSTIVE_OK = ["restricted root lengths: ok", "fourth powers absent: ok",
                 "repetition roots primitive: ok"]


@dataclass(frozen=True)
class Sizes:
    point_groups: int      # n values drawn per stat and round in `point`
    table_windows: tuple   # (scale, rows): windows start in [scale, 2 scale)
    positions_n: tuple     # sweep `positions` n range, past the oracle cap
    cold_positions_n: tuple
    repeated_n: tuple      # `positions --repeated` n range, below the cap
    kernel_m: tuple
    startup_probes: int    # repeats of each start-up probe in a trace run


VERIFY_CASES = ((1000, False), (3000, False), (ORACLE_CAP, False), (600, True))

FULL = Sizes(
    point_groups=30,
    table_windows=((10**6, 9000), (10**15, 3500)),
    positions_n=(450_000, 500_000),
    cold_positions_n=(ORACLE_CAP + 1, 20_000),
    repeated_n=(4000, ORACLE_CAP + 1),
    kernel_m=(4, 20),
    startup_probes=5,
)

SMOKE = Sizes(
    point_groups=1,
    table_windows=((10**6, 30), (10**15, 20)),
    positions_n=(ORACLE_CAP + 1, 8000),
    cold_positions_n=(ORACLE_CAP + 1, 6000),
    repeated_n=(500, 1000),
    kernel_m=(4, 10),
    startup_probes=1,
)


def log_uniform(rng, lo_exp=3, hi_exp=18) -> int:
    return min(N_MAX, int(10 ** rng.uniform(lo_exp, hi_exp)))


# ---------------------------------------------------------------------------
# rounds


@dataclass(frozen=True)
class CliOp:
    kind: str        # table, positions, repeated, verify, count, kernel
    argv: tuple      # arguments after `python -m tribcount.cli`
    n: int           # prefix length (or order, for kernel) the op covers
    detail: str = ""  # stat letter, positions kind, or table format
    items: int = 0   # answers per op; 0 means one per output line


def _table(start, rows, fmt):
    end = start + rows - 1
    return CliOp("table", ("table", "--from", str(start), "--to", str(end),
                           "--format", fmt), start, fmt, rows)


def _positions(kind, n, items=0):
    return CliOp("positions", ("positions", "--kind", kind, "--n", str(n)),
                 n, kind, items)


def point_round(rng, sizes, index):
    # Every n comes with n - 1 and, for B and D, the increment at n, so
    # the results check each other: 30 groups per stat make 300 calls.
    ops = []
    for cum, inc in STATS.values():
        for _ in range(sizes.point_groups):
            n = log_uniform(rng)
            ops += [(cum, n), (cum, n - 1)]
            if inc in POINT_FUNCS:
                ops.append((inc, n))
    rng.shuffle(ops)
    return ops


def sweep_round(rng, sizes, index):
    tables = [_table(rng.randrange(scale, 2 * scale), rows, "csv")
              for scale, rows in sizes.table_windows for _ in range(2)]
    if index == 0:
        first = tables[0]
        tables[0] = _table(first.n, first.items, "json")
    ops = tables + [_positions(kind, rng.randrange(*sizes.positions_n))
                    for kind in ("square", "cube")]
    rng.shuffle(ops)
    return ops


def verify_round(rng, sizes, index):
    ops = [CliOp("verify", ("verify", "--max", str(n))
                 + (("--exhaustive",) if ex else ()), n, "exhaustive" if ex else "",
                 n) for n, ex in VERIFY_CASES]
    kind = rng.choice(("square", "cube"))
    n = rng.randrange(*sizes.repeated_n)
    ops.append(CliOp("repeated", ("positions", "--kind", kind, "--n", str(n),
                                  "--repeated"), n, kind, n))
    rng.shuffle(ops)
    return ops


def cold_round(rng, sizes, index):
    ops = [CliOp("count", ("count", "--stat", s, "--n", str(n)), n, s, 1)
           for s in STATS for n in (log_uniform(rng),)]
    m = rng.randint(*sizes.kernel_m)
    ops.append(CliOp("kernel", ("kernel", "--m", str(m)), m, "", 1))
    ops.append(_positions(rng.choice(("square", "cube")),
                          rng.randrange(*sizes.cold_positions_n), items=1))
    rng.shuffle(ops)
    return ops


ROUNDS = {"point": point_round, "sweep": sweep_round,
          "verify": verify_round, "cold": cold_round}
WORKLOADS = tuple(ROUNDS)


def rounds(workload, rng, sizes):
    """Endless seeded rounds of one workload."""
    make = ROUNDS[workload]
    index = 0
    while True:
        yield make(rng, sizes, index)
        index += 1


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a message


def check_point_round(tc, ops, results):
    """Messages for the ops of one ``point`` round whose results break
    cum(n) - cum(n - 1) = increment(n)."""
    got = dict(zip(ops, results))
    bad = {op: f"raised {v!r}" for op, v in got.items() if isinstance(v, Exception)}
    bad.update((op, f"returned {v!r}") for op, v in got.items()
               if op not in bad and type(v) is not int)
    for cum, inc in STATS.values():
        for (name, n), value in got.items():
            prev = (cum, n - 1)
            if name != cum or prev not in got:
                continue
            group = [(name, n), prev] + ([(inc, n)] if (inc, n) in got else [])
            if any(op in bad for op in group):
                continue
            step = got[(inc, n)] if (inc, n) in got else getattr(tc, inc)(n)
            if value - got[prev] != step:
                for op in group:
                    bad[op] = "breaks the increment identity"
    return [f"{name}({n}) {why}" for (name, n), why in bad.items()]


def _check_rows(tc, rows, lo, count):
    if len(rows) != count or [r[0] for r in rows] != list(range(lo, lo + count)):
        return f"table rows do not cover [{lo}, {lo + count - 1}]"
    cums = [getattr(tc, STATS[s][0]) for s in "ABCD"]
    incs = [getattr(tc, STATS[s][1]) for s in "ABCD"]
    for row in (rows[0], rows[-1]):
        if list(row[1:]) != [f(row[0]) for f in cums]:
            return f"table row n={row[0]} differs from the library"
    for prev, row in zip(rows, rows[1:]):
        n = row[0]
        if [b - a for a, b in zip(prev[1:], row[1:])] != [f(n) for f in incs]:
            return f"table rows {n - 1} -> {n} break the increment identity"
    return None


def _ints(text):
    return [int(x) for x in text.split()]


def check_cli(tc, op, out):
    """Check one CLI op's stdout; returns (message or None, items)."""
    lines = out.count("\n")
    items = op.items or lines
    if op.kind == "table":
        if op.detail == "json":
            rows = [(d["n"], d["A"], d["B"], d["C"], d["D"])
                    for d in json.loads(out)]
        else:
            head, *body = out.splitlines()
            if head != "n,A,B,C,D":
                return f"table header {head!r}", items
            rows = [tuple(int(x) for x in line.split(",")) for line in body]
        return _check_rows(tc, rows, op.n, op.items), items
    if op.kind == "positions":
        distinct = KIND_STAT[op.detail][0]
        cum, inc = (getattr(tc, f) for f in STATS[distinct])
        ends = _ints(out)
        if (any(b <= a for a, b in zip(ends, ends[1:]))
                or (ends and not 1 <= ends[0] <= ends[-1] <= op.n)):
            return "positions not strictly increasing within [1, n]", items
        if len(ends) != cum(op.n) or not all(inc(e) == 1 for e in ends):
            return (f"positions --kind {op.detail} --n {op.n} disagree "
                    "with the indicator"), items
        return None, items
    if op.kind == "repeated":
        repeated = KIND_STAT[op.detail][1]
        cum, inc = (getattr(tc, f) for f in STATS[repeated])
        ends = _ints(out)
        per_end = Counter(ends)
        if (sum(per_end.values()) != cum(op.n) or any(e > op.n for e in per_end)
                or any(inc(e) != c for e, c in per_end.items())):
            return f"repeated positions --n {op.n} disagree with the counters", items
        return None, items
    if op.kind == "verify":
        want = [f"{s}: ok over [1, {op.n}]" for s in "ABCD"]
        if op.detail == "exhaustive":
            want += EXHAUSTIVE_OK
        if out.splitlines() != want:
            return f"verify --max {op.n}: {out.strip()!r}", items
        return None, items
    if op.kind == "count":
        cum, inc = (getattr(tc, f) for f in STATS[op.detail])
        v = int(out)
        if v != cum(op.n) or v - cum(op.n - 1) != inc(op.n):
            return f"count --stat {op.detail} --n {op.n} printed {v}", items
        return None, items
    if op.kind == "kernel":
        fields = dict(f.split("=", 1) for f in out.split())
        word, end = fields["word"], int(fields["first_end"])
        text = tc.prefix(end)
        if (int(fields["m"]) != op.n or int(fields["length"]) != len(word)
                or word != tc.kernel_word(op.n) or not text.endswith(word)
                or word in text[:-1]):
            return f"kernel --m {op.n}: {out.strip()!r}", items
        return None, items
    raise ValueError(f"unknown op kind {op.kind!r}")
