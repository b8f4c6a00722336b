"""Brute-force ground truth for repetition counts.

Enumerates every square and cube occurrence in a materialized prefix by
direct block comparison, completely independent of the closed forms and the
segment recursions it is used to validate.  The scan restricts candidate
root lengths to the block-length families known to carry all repetitions;
exhaustive mode drops the restriction (and is what validates it).

``scan_repetitions`` returns its occurrences as columns, not one object per
occurrence: the sorted end position of every square (cube) occurrence and,
in a parallel list, its root length.
"""

from __future__ import annotations

import os

from ._kernels import find_repetitions
from .core_word import Record, kernel_number, kernel_word, prefix, trib_number

ORACLE_CAP_DEFAULT = 5000
EXHAUSTIVE_CAP = 600


def oracle_cap() -> int:
    """Scan ceiling; TRIB_ORACLE_CAP overrides the default of 5000."""
    env = os.environ.get("TRIB_ORACLE_CAP")
    if not env:
        return ORACLE_CAP_DEFAULT
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"TRIB_ORACLE_CAP must be a positive integer, not {env!r}")
    return cap


class RepetitionSummary(Record):
    """Every square and cube of the length-n prefix.

    ``a``/``c`` (index i in 1..n, index 0 unused) are 1 where a square
    (cube) not seen before ends at i, ``b``/``d`` count the square (cube)
    occurrences ending at i.  ``squares`` holds the end position of every
    square occurrence, ascending, and ``square_roots`` its root length in
    the same order (ties on the end by ascending root); ``cubes`` and
    ``cube_roots`` likewise.  All eight are tuples of ints.
    """

    __slots__ = ("n", "distinct_squares", "repeated_squares",
                 "distinct_cubes", "repeated_cubes", "a", "b", "c", "d",
                 "squares", "square_roots", "cubes", "cube_roots")

    def __init__(self, n, distinct_squares, repeated_squares, distinct_cubes,
                 repeated_cubes, a, b, c, d, squares, square_roots, cubes,
                 cube_roots):
        self.n = n
        self.distinct_squares = distinct_squares
        self.repeated_squares = repeated_squares
        self.distinct_cubes = distinct_cubes
        self.repeated_cubes = repeated_cubes
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.squares = squares
        self.square_roots = square_roots
        self.cubes = cubes
        self.cube_roots = cube_roots


def _restricted_roots(n: int, power: int) -> list[int]:
    if power == 2:
        limit = n // 2
        roots = set()
        m = 0
        while trib_number(m) <= limit:
            roots.add(trib_number(m))
            if trib_number(m) + trib_number(m - 1) <= limit:
                roots.add(trib_number(m) + trib_number(m - 1))
            m += 1
        return sorted(roots)
    limit = n // power
    roots = []
    m = 0
    while trib_number(m) <= limit:
        roots.append(trib_number(m))
        m += 1
    return roots


def _collect(word_bytes: bytes, roots, power: int, n: int):
    """Occurrences per end position, first occurrences per end position,
    the number of distinct repetitions, and the end and root columns."""
    ends, root_lens = find_repetitions(word_bytes, roots, power)
    per_pos = [0] * (n + 1)
    new_at = [0] * (n + 1)
    seen = set()
    for e, L in zip(ends, root_lens):
        per_pos[e] += 1
        key = word_bytes[e - power * L:e]
        if key not in seen:
            seen.add(key)
            if new_at[e]:
                raise AssertionError(
                    f"two new distinct repetitions end at {e}")
            new_at[e] = 1
    return per_pos, new_at, len(seen), tuple(ends), tuple(root_lens)


def scan_repetitions(n: int, exhaustive: bool = False) -> RepetitionSummary:
    """Enumerate all squares and cubes in the length-n prefix.

    ``exhaustive`` scans every root length instead of the restricted
    families and is capped at 600.
    """
    if n < 1:
        raise ValueError("scan needs n >= 1")
    cap = EXHAUSTIVE_CAP if exhaustive else oracle_cap()
    if n > cap:
        mode = "exhaustive" if exhaustive else "oracle"
        raise ValueError(f"n={n} exceeds {mode} cap {cap}")
    word_bytes = prefix(n).encode("ascii")
    if exhaustive:
        sq_roots = range(1, n // 2 + 1)
        cu_roots = range(1, n // 3 + 1)
    else:
        sq_roots = _restricted_roots(n, 2)
        cu_roots = _restricted_roots(n, 3)
    b, a, n_dist_sq, sq_ends, sq_lens = _collect(word_bytes, sq_roots, 2, n)
    d, c, n_dist_cu, cu_ends, cu_lens = _collect(word_bytes, cu_roots, 3, n)
    return RepetitionSummary(
        n, n_dist_sq, len(sq_ends), n_dist_cu, len(cu_ends),
        tuple(a), tuple(b), tuple(c), tuple(d),
        sq_ends, sq_lens, cu_ends, cu_lens)


def occurrences(w: str, n: int) -> list[int]:
    """1-based end positions of all occurrences of w in the length-n
    prefix, ascending (overlaps included)."""
    if not w:
        raise ValueError("empty factor")
    if n > oracle_cap():
        raise ValueError(f"n={n} exceeds oracle cap {oracle_cap()}")
    hay = prefix(n)
    out = []
    start = 0
    while True:
        i = hay.find(w, start)
        if i < 0:
            break
        out.append(i + len(w))
        start = i + 1
    return out


def _steps(w: str, n: int) -> list[str]:
    # words between consecutive end positions; the p-th step is the p-th
    # gap followed by one copy of w, so steps compare equal iff gaps do
    ends = occurrences(w, n)
    if len(ends) < 2:
        raise ValueError(f"factor {w!r} occurs fewer than twice in range")
    hay = prefix(n)
    return [hay[ends[i]:ends[i + 1]] for i in range(len(ends) - 1)]


def gap_pattern(w: str, n: int) -> list[int]:
    """Lengths of the gaps between consecutive occurrences of w.  Negative
    when consecutive occurrences overlap."""
    ends = occurrences(w, n)
    if len(ends) < 4:
        raise ValueError(f"factor {w!r} occurs fewer than 4 times in range")
    return [ends[i + 1] - ends[i] - len(w) for i in range(len(ends) - 1)]


def gap_coding(w: str, n: int) -> str:
    """Each gap coded by which of the first, second or fourth gap it equals
    (as a word), written a, b, c respectively."""
    steps = _steps(w, n)
    if len(steps) < 4:
        raise ValueError(f"factor {w!r} has fewer than 4 gaps in range")
    alphabet = {steps[0]: "a", steps[1]: "b", steps[3]: "c"}
    if len(alphabet) != 3:
        raise ValueError(f"gaps 1, 2, 4 of {w!r} are not pairwise distinct")
    out = []
    for s in steps:
        try:
            out.append(alphabet[s])
        except KeyError:
            raise ValueError(f"gap of {w!r} matches none of gaps 1, 2, 4")
    return "".join(out)


def _count_overlapping(hay: str, needle: str) -> int:
    cnt = 0
    start = 0
    while True:
        i = hay.find(needle, start)
        if i < 0:
            return cnt
        cnt += 1
        start = i + 1


def kernel_of(w: str) -> int:
    """Order of the maximal kernel word occurring in the factor w."""
    if not w:
        raise ValueError("empty factor")
    window = min(10**7, max(1000, 64 * len(w)))
    if w not in prefix(window):
        raise ValueError(f"{w[:40]!r}... does not occur in the scanned prefix")
    best = 0
    m = 1
    while kernel_number(m) <= len(w):
        if kernel_word(m) in w:
            best = m
        m += 1
    if best == 0:
        raise ValueError(f"no kernel word inside {w!r}")
    if _count_overlapping(w, kernel_word(best)) != 1:
        raise AssertionError(
            f"maximal kernel word of order {best} occurs more than once")
    return best


def is_primitive(w: str) -> bool:
    """True iff w is not a whole-number power of a shorter word."""
    if not w:
        raise ValueError("empty word")
    return (w + w).find(w, 1, 2 * len(w) - 1) == -1


def assert_no_fourth_powers(n: int) -> bool:
    """Exhaustively confirm the length-n prefix contains no fourth power."""
    if n < 1 or n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive check capped at {EXHAUSTIVE_CAP}")
    if n < 4:
        return True
    ends, _ = find_repetitions(prefix(n).encode("ascii"), range(1, n // 4 + 1), 4)
    return not ends
