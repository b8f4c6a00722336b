"""Brute-force ground truth for repetition counts.

Enumerates every square and cube occurrence in a materialized prefix by
direct block comparison, completely independent of the closed forms and the
segment recursions it is used to validate.  The scan restricts candidate
root lengths to the paper's root families: every square root has length
t_m or t_m + t_(m-1), every cube root length t_m.  ``_roots`` states them
once, read off the block table, and the spot check of b and d far past
the scan (``tests/spot_oracle.py``) reads them there too.  Exhaustive mode
drops the restriction, and is what validates it.

``scan_repetitions`` makes one XOR pass (``find_repetitions``), over the
square root lengths, and keeps the occurrences as it finds them: runs (root
length, first end, last end) of consecutive ends, not one object per
occurrence.  A square run of root length L is one factor of period L (a
run in the sense of Kolpakov and Kucherov, FOCS 1999), and it holds cubes
of that root iff it is at least 3L letters long, fourth powers iff 4L, so
the cube runs are read off the square runs (``_power_runs``).  An
occurrence is the first of its factor iff it is longer than the longest
suffix of the prefix ending there that also ends earlier, which one suffix
automaton of the prefix gives at every position in linear memory
(``_longest_previous``).

``verify --exhaustive`` reads three claims of the paper off its one
exhaustive scan (``_claims``): every square and cube root length lies in
the restricted families, so the restricted scan finds the same runs; no
square run is long enough to hold a fourth power; and every root is
primitive (``is_primitive``), tested once per run, as the roots of one run
are rotations of one another.

The paper's own route, the gap sequences between the occurrences of each
distinct square, is not shipped: no command reads it, and the tests keep
it as a check (``tests/paper_checks.py``).
"""

from array import array
from collections import namedtuple
from itertools import accumulate, chain, islice, repeat

from ._kernels import find_repetitions
from .core_word import _OFF, _T, _arg, prefix

# Longest prefix the oracle scans.  Its memory is linear in n, so the
# caller's own n bounds the cost: ``verify --max 100000`` takes about 0.4 s
# at 35 MB peak RSS (2-vCPU Xeon VM, Python 3.11).
ORACLE_CAP = 100_000
# Longest prefix scanned over every root length, whose time grows
# quadratically: ``verify --max 10000 --exhaustive`` takes about 0.23 s at
# 16.6 MB peak RSS (2-vCPU Xeon VM, Python 3.11).
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
    """Root lengths to scan: every one, or the paper's root families read
    off the block table, the block lengths t_m and, for squares, the sums
    t_m + t_(m-1), each at most n // power."""
    if exhaustive:
        return range(1, n // power + 1)
    pairs = zip(_T[_OFF:], _T[_OFF - 1:])  # t_m and t_(m-1), m >= 0
    families = [(t, t + s) if power == 2 else (t,) for t, s in pairs]
    return sorted({L for family in families for L in family if power * L <= n})


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


def _power_runs(square_runs, power: int, roots) -> tuple:
    """The runs of power-fold repetitions with root lengths among ``roots``
    (a set or range), read off ``find_repetitions``'s square runs: a square
    run (L, first, last) is one factor of period L, last - first + 2L
    letters long, so it holds a power-fold repetition ending at each of
    first + (power - 2) * L through last."""
    skip = power - 2
    return tuple((L, first + skip * L, last) for L, first, last in square_runs
                 if last - first >= skip * L and L in roots)


def _collect(runs, power: int, lp):
    """The power-fold repetitions of ``runs`` ending at each position, and
    1 where a new one ends.  ``lp`` is ``_longest_previous`` of the word."""
    steps = [0] * (len(lp) + 1)  # the occurrence counts as differences
    new_at = [0] * len(lp)
    for L, first, last in runs:
        steps[first] += 1
        steps[last + 1] -= 1
        for e in range(first, last + 1):
            if power * L > lp[e]:
                if new_at[e]:
                    raise AssertionError(
                        f"two new distinct repetitions end at {e}")
                new_at[e] = 1
    return tuple(islice(accumulate(steps), len(lp))), tuple(new_at)


def _expand(counts) -> tuple:
    """Each position i repeated counts[i] times, ascending."""
    return tuple(chain.from_iterable(map(repeat, range(len(counts)), counts)))


def scan_repetitions(n: int, exhaustive: bool = False) -> RepetitionSummary:
    """Enumerate all squares and cubes in the length-n prefix.

    ``exhaustive`` scans every root length instead of the restricted
    families and is capped at ``EXHAUSTIVE_CAP``; otherwise n is capped at
    ``ORACLE_CAP``.
    """
    n = _arg(n, 1, EXHAUSTIVE_CAP if exhaustive else ORACLE_CAP,
             "exhaustive scan length" if exhaustive else "oracle scan length")
    word = prefix(n).encode("ascii")
    lp = _longest_previous(word)
    # one XOR pass, over the square roots: the cubes are read off its runs
    square_runs = tuple(find_repetitions(word, _roots(n, 2, exhaustive), 2))
    cube_runs = _power_runs(square_runs, 3, set(_roots(n, 3, exhaustive)))
    b, a = _collect(square_runs, 2, lp)
    d, c = _collect(cube_runs, 3, lp)
    squares, cubes = _expand(b), _expand(d)
    return RepetitionSummary(n, sum(a), len(squares), sum(c), len(cubes), a,
                             b, c, d, squares, square_runs, cubes, cube_runs)


def is_primitive(w: str) -> bool:
    """True iff w is not a whole-number power of a shorter word."""
    if not w:
        raise ValueError("empty word")
    return (w + w).find(w, 1, 2 * len(w) - 1) == -1


def _claims(s: RepetitionSummary) -> dict:
    """The paper's claims read off the exhaustive scan ``s``, each keyed by
    its line in ``verify --exhaustive``: every square and cube root length
    lies in the restricted families (so the restricted scan finds the same
    runs), no run holds a fourth power, and every root is primitive.  The
    roots of one run are rotations of one another, and every cube run lies
    in a square run, so primitivity is tested once per square run."""
    word = prefix(s.n)
    return {
        "restricted root lengths": all(
            {L for L, _, _ in runs} <= set(_roots(s.n, power, False))
            for power, runs in ((2, s.square_runs), (3, s.cube_runs))),
        "fourth powers absent": not _power_runs(s.square_runs, 4, range(s.n)),
        "repetition roots primitive": all(
            is_primitive(word[f - L:f]) for L, f, _ in s.square_runs),
    }
