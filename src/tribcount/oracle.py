"""Brute-force ground truth for repetition counts.

Enumerates every square and cube occurrence in a materialized prefix by
direct block comparison, completely independent of the closed forms and the
segment recursions it is used to validate.  The scan restricts candidate
root lengths to the block-length families known to carry all repetitions;
exhaustive mode drops the restriction (and is what validates it).

``scan_repetitions`` keeps the occurrences as the scan finds them: runs
(root length, first end, last end) of consecutive ends, not one object per
occurrence.  An occurrence is the first of its factor iff it is longer than
the longest suffix of the prefix ending there that also ends earlier, which
one suffix automaton of the prefix gives at every position in linear memory
(``_longest_previous``).  ``is_primitive`` and ``assert_no_fourth_powers``
are the further checks of ``verify --exhaustive``.  The paper's own route,
the gap sequences between the occurrences of each distinct square, is not
shipped: no command reads it, and the tests keep it as a check
(``tests/paper_checks.py``).
"""

from array import array
from collections import namedtuple
from itertools import accumulate, chain, repeat

from ._kernels import find_repetitions
from .core_word import _arg, prefix, trib_number

# Longest prefix the oracle scans.  Its memory is linear in n, so the
# caller's own n bounds the cost: ``verify --max 100000`` takes about 0.8 s
# at 35 MB peak RSS (2-vCPU Xeon VM, Python 3.11).
ORACLE_CAP = 100_000
# Longest prefix scanned over every root length, whose time grows
# quadratically: ``verify --max 10000 --exhaustive`` takes 0.6-0.9 s at 18 MB.
EXHAUSTIVE_CAP = 10_000


RepetitionSummary = namedtuple("RepetitionSummary", (
    "n distinct_squares repeated_squares distinct_cubes repeated_cubes "
    "a b c d squares square_runs cubes cube_runs"))
RepetitionSummary.__doc__ = """Every square and cube of the length-n prefix.

``a``/``c`` (index i in 1..n, index 0 unused) are 1 where a square (cube)
not seen before ends at i, ``b``/``d`` count the square (cube) occurrences
ending at i, and ``squares``/``cubes`` list each end once per occurrence,
ascending.  ``square_runs``/``cube_runs`` are ``find_repetitions``'s runs.
"""


def _roots(n: int, power: int, exhaustive: bool):
    """Root lengths to scan: every one, or the block lengths t_m and, for
    squares, the sums t_m + t_(m-1)."""
    limit = n // power
    if exhaustive:
        return range(1, limit + 1)
    roots = set()
    m = 0
    while trib_number(m) <= limit:
        roots.add(trib_number(m))
        if power == 2 and trib_number(m) + trib_number(m - 1) <= limit:
            roots.add(trib_number(m) + trib_number(m - 1))
        m += 1
    return sorted(roots)


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


def _collect(word_bytes: bytes, roots, power: int, lp):
    """The runs of power-fold repetitions with root lengths among
    ``roots``, the occurrences ending at each position, and 1 where a new
    one ends.  ``lp`` is ``_longest_previous(word_bytes)``."""
    n = len(word_bytes)
    runs = tuple(find_repetitions(word_bytes, roots, power))
    steps = [0] * (n + 2)  # the occurrence counts as a difference array
    new_at = [0] * (n + 1)
    for L, first, last in runs:
        steps[first] += 1
        steps[last + 1] -= 1
        for e in range(first, last + 1):
            if power * L > lp[e]:
                if new_at[e]:
                    raise AssertionError(
                        f"two new distinct repetitions end at {e}")
                new_at[e] = 1
    steps.pop()
    return runs, tuple(accumulate(steps)), tuple(new_at)


def _expand(counts) -> tuple:
    """Each position i repeated counts[i] times, ascending."""
    return tuple(chain.from_iterable(map(repeat, range(len(counts)), counts)))


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
    lp = _longest_previous(word_bytes)
    square_runs, b, a = _collect(word_bytes, _roots(n, 2, exhaustive), 2, lp)
    cube_runs, d, c = _collect(word_bytes, _roots(n, 3, exhaustive), 3, lp)
    squares, cubes = _expand(b), _expand(d)
    return RepetitionSummary(n, sum(a), len(squares), sum(c), len(cubes), a,
                             b, c, d, squares, square_runs, cubes, cube_runs)


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
    return not find_repetitions(prefix(n).encode("ascii"),
                                range(1, n // 4 + 1), 4)
