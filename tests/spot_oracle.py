"""A spot check of the repeated counts b(n) and d(n) at any n up to 10^18,
by Karp-Rabin fingerprints of factors of the word (Karp & Rabin, IBM J.
Res. Dev. 1987).

A word w_1 ... w_L has the fingerprint sum of w_i * BASE^(L - i) modulo the
Mersenne prime P = 2^127 - 1, with the letters as their byte values, so
that the word uv prints as print(u) * BASE^|v| + print(v).  The block T_m
is T_(m-1) T_(m-2) T_(m-3), with T_0 = a, T_1 = ab and T_2 = abac, so its
fingerprint follows from the three blocks below it (``_PRINTS``).  The
prefix of length n is its greedy blocks one after another
(``core_word._blocks``), so its fingerprint folds theirs (``_prefix``), and
a factor's is the difference of two prefix fingerprints.  A repetition of
p parts with root length L ends at n iff the p factors of length L that end
at n, n - L, ... share one fingerprint (``_repetitions``).

``b(n)`` counts the root lengths in ``oracle._roots(n, 2, False)``, the
paper's square root families t_m and t_m + t_(m-1) read off the block
table, for which a square ends at n, and ``d(n)`` the cube roots t_m of
``oracle._roots(n, 3, False)``.  They read the block table and those
families and nothing else of the package: no row, interval, piece, floor
or closed form.  ``mismatches`` and ``edges`` compare them with the
library's counters, and ``python tests/spot_oracle.py`` (with ``src`` on
the path) does so at every edge of both tilings, the piece starts of
``fast_count`` included, exiting 1 on a mismatch.

BASE is drawn from ``random.Random(SEED)`` with SEED = 2016.  Two
different words of length L share a fingerprint for at most L of the P
bases, so a comparison errs with probability at most L/P, below 2^-67 for
L <= 10^18.  Agreement is evidence, not proof.
"""

import random
import sys
from bisect import bisect_left
from functools import lru_cache

from tribcount import oracle
from tribcount.core_word import _OFF, _T, _blocks

P = 2**127 - 1
SEED = 2016
BASE = random.Random(SEED).randrange(2, P - 1)


def _horner(word: str) -> int:
    h = 0
    for letter in word:
        h = (h * BASE + ord(letter)) % P
    return h


def _block_prints():
    """The fingerprint of T_m and BASE^(t_m) modulo P, each indexed by the
    order m >= 0, up to the top of the block table."""
    prints = [_horner(w) for w in ("a", "ab", "abac")]
    shifts = [pow(BASE, len(w), P) for w in ("a", "ab", "abac")]
    while len(prints) < len(_T) - _OFF:
        # T_m = T_(m-1) T_(m-2) T_(m-3)
        h = (prints[-1] * shifts[-2] + prints[-2]) % P
        prints.append((h * shifts[-3] + prints[-3]) % P)
        shifts.append(shifts[-1] * shifts[-2] * shifts[-3] % P)
    return prints, shifts


_PRINTS, _SHIFTS = _block_prints()


@lru_cache(maxsize=1 << 14)
def _prefix(n: int) -> int:
    """The fingerprint of the length-n prefix, folded over its greedy
    blocks; cached, as the parts of the root lengths at one n share ends."""
    h = 0
    for m in _blocks(n):
        h = (h * _SHIFTS[m] + _PRINTS[m]) % P
    return h


def _repetitions(n: int, roots, power: int) -> list:
    """The root lengths L among ``roots``, power * L <= n, for which a
    repetition of ``power`` parts with root length L ends at n."""
    found = []
    for L in roots:
        if power * L > n:
            continue
        shift = pow(BASE, L, P)
        ends = [_prefix(n - k * L) for k in range(power + 1)]
        if len({(ends[k] - ends[k + 1] * shift) % P
                for k in range(power)}) == 1:
            found.append(L)
    return found


def b(n: int) -> int:
    """The number of square occurrences ending at n."""
    return len(_repetitions(n, oracle._roots(n, 2, False), 2))


def d(n: int) -> int:
    """The number of cube occurrences ending at n."""
    return len(_repetitions(n, oracle._roots(n, 3, False), 3))


# ---------------------------------------------------------------------------
# the comparison with the library's counters


def mismatches(ns) -> list:
    """One line per n in ``ns`` and stat b or d where the spot check and
    ``b_at`` / ``d_at`` differ, naming n, the stat and the segment."""
    from tribcount import fast_count as fc
    from tribcount import tiling
    out = []
    for n in ns:
        for stat, spot, at, kind in (("b", b, fc.b_at, "square"),
                                     ("d", d, fc.d_at, "cube")):
            want, got = at(n), spot(n)
            if want != got:
                built = tiling._build(kind)  # the rows ``at`` descends
                s = bisect_left(built.rows, (n + 1,)) - 1  # last lo <= n
                where = built.label(s) if s >= 0 else "below the tiling"
                out.append(f"{stat}({n}): spot check {got}, {at.__name__} "
                           f"{want}, in {where}")
    return out


def edges() -> list:
    """Every first-occurrence interval end, segment bound and piece start
    of both tilings, and the positions one either side of it, in [1,
    N_CAP]."""
    from tribcount import fast_count as fc
    from tribcount.core_word import _CUBE_FIRSTS, _SQUARE_FIRSTS, N_CAP
    segs = (fc._SQUARES or fc._square_segments(),
            fc._CUBES or fc._cube_segments())
    ends = set()
    for table in (_SQUARE_FIRSTS, _CUBE_FIRSTS, *(seg.rows for seg in segs)):
        for x in table:
            ends.update(x[:2])
    for seg in segs:
        ends.update(seg.jumps[0])  # every piece start, then the top hi + 1
    return sorted(n + e for n in ends for e in (-1, 0, 1)
                  if 1 <= n + e <= N_CAP)


if __name__ == "__main__":
    ns = edges()
    bad = mismatches(ns)
    for line in bad:
        print(line)
    print(f"spot check of b and d at {len(ns)} edges of both tilings: "
          f"{len(bad)} mismatches")
    sys.exit(1 if bad else 0)
