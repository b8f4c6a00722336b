"""Brute-force ground truth for repetition counts.

Enumerates every square and cube occurrence in a materialized prefix by
direct block comparison, completely independent of the closed forms and the
segment recursions it is used to validate.  The scan restricts candidate
root lengths to the block-length families known to carry all repetitions;
exhaustive mode drops the restriction (and is what validates it).

``scan_repetitions`` returns its occurrences as columns, not one object per
occurrence: the sorted end position of every square (cube) occurrence and,
in a parallel list, its root length.  An occurrence is the first of its
factor iff it is longer than the longest suffix of the prefix ending there
that also ends earlier, which one suffix automaton of the prefix gives at
every position in linear memory (``_longest_previous``).
"""

from __future__ import annotations

from array import array

from ._kernels import find_repetitions
from .core_word import (
    Record,
    _arg,
    kernel_number,
    kernel_word,
    prefix,
    trib_number,
)

# Longest prefix the oracle scans.  Its memory is linear in n, so the
# caller's own n bounds the cost: ``verify --max 100000`` takes about 1 s at
# 62 MB peak RSS (2-vCPU Xeon VM, Python 3.11).
ORACLE_CAP = 100_000
# Longest prefix scanned over every root length, whose time grows
# quadratically: ``verify --max 10000 --exhaustive`` takes 0.6-0.9 s at 20 MB.
EXHAUSTIVE_CAP = 10_000


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


def _longest_previous(word: bytes) -> array:
    """lp[e] for e in 1..len(word) (lp[0] is 0): the length of the longest
    suffix of word[:e] that also ends at some position before e.  ``word``
    is over abc.

    Builds the suffix automaton of ``word`` online (Blumer et al., TCS
    1985): once letter e has joined, the state of the whole prefix links to
    the state of its longest suffix that ends earlier too, so lp[e] is that
    state's length.  Transitions (one column per letter of abc), links and
    lengths are flat ``array('i')`` columns over at most 2 * len(word) states.
    """
    size = 2 * len(word) + 1
    trans = [array("i", [-1]) * size for _ in range(3)]
    link = array("i", [-1]) * size
    length = array("i", bytes(4 * size))
    lp = array("i", bytes(4 * (len(word) + 1)))
    last, states = 0, 1
    for e, letter in enumerate(word, 1):
        to = trans[letter - 97]
        cur = states
        states += 1
        length[cur] = length[last] + 1
        p = last
        while p >= 0 and to[p] < 0:
            to[p] = cur
            p = link[p]
        if p < 0:
            link[cur] = 0
        else:
            q = to[p]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                # split q: the clone keeps q's transitions at p's length + 1
                clone = states
                states += 1
                length[clone] = length[p] + 1
                for col in trans:
                    col[clone] = col[q]
                link[clone] = link[q]
                while p >= 0 and to[p] == q:
                    to[p] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
        lp[e] = length[link[cur]]
    return lp


def _collect(word_bytes: bytes, roots, power: int, n: int, lp):
    """Occurrences per end position, first occurrences per end position,
    the number of distinct repetitions, and the end and root columns.
    ``lp`` is ``_longest_previous(word_bytes)``."""
    ends, root_lens = find_repetitions(word_bytes, roots, power)
    per_pos = [0] * (n + 1)
    new_at = [0] * (n + 1)
    for e, L in zip(ends, root_lens):
        per_pos[e] += 1
        if power * L > lp[e]:
            if new_at[e]:
                raise AssertionError(
                    f"two new distinct repetitions end at {e}")
            new_at[e] = 1
    return per_pos, new_at, sum(new_at), tuple(ends), tuple(root_lens)


def scan_repetitions(n: int, exhaustive: bool = False) -> RepetitionSummary:
    """Enumerate all squares and cubes in the length-n prefix.

    ``exhaustive`` scans every root length instead of the restricted
    families and is capped at ``EXHAUSTIVE_CAP``; otherwise n is capped at
    ``ORACLE_CAP``.
    """
    if exhaustive:
        n = _arg(n, 1, EXHAUSTIVE_CAP, "exhaustive scan length")
    else:
        n = _arg(n, 1, ORACLE_CAP, "oracle scan length")
    word_bytes = prefix(n).encode("ascii")
    if exhaustive:
        sq_roots = range(1, n // 2 + 1)
        cu_roots = range(1, n // 3 + 1)
    else:
        sq_roots = _restricted_roots(n, 2)
        cu_roots = _restricted_roots(n, 3)
    lp = _longest_previous(word_bytes)
    b, a, n_dist_sq, sq_ends, sq_lens = _collect(word_bytes, sq_roots, 2, n, lp)
    d, c, n_dist_cu, cu_ends, cu_lens = _collect(word_bytes, cu_roots, 3, n, lp)
    return RepetitionSummary(
        n, n_dist_sq, len(sq_ends), n_dist_cu, len(cu_ends),
        tuple(a), tuple(b), tuple(c), tuple(d),
        sq_ends, sq_lens, cu_ends, cu_lens)


def _starts(hay: str, needle: str) -> list[int]:
    """0-based start of every occurrence of needle in hay, ascending
    (overlaps included)."""
    out = []
    i = hay.find(needle)
    while i >= 0:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def occurrences(w: str, n: int) -> list[int]:
    """1-based end positions of all occurrences of w in the length-n
    prefix, ascending (overlaps included)."""
    if not w:
        raise ValueError("empty factor")
    hay = prefix(_arg(n, 0, ORACLE_CAP, "oracle scan length"))
    return [i + len(w) for i in _starts(hay, w)]


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
    if len(_starts(w, kernel_word(best))) != 1:
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
    n = _arg(n, 1, EXHAUSTIVE_CAP, "exhaustive scan length")
    if n < 4:
        return True
    ends, _ = find_repetitions(prefix(n).encode("ascii"), range(1, n // 4 + 1), 4)
    return not ends
