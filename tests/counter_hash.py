"""One sha256 over the answers of every counter at a fixed set of n.

``python tests/counter_hash.py`` (with ``src`` on the path) evaluates
``algorithm_B``, ``algorithm_D``, ``b_at``, ``d_at``, ``distinct_squares``,
``distinct_cubes``, ``a_indicator`` and ``c_indicator`` at each n of
``positions()``, in ascending order, and prints the sha256 of the lines
"n B D b d A C a c", one per n, and the number of n.  A change to the
tables that keeps every answer keeps the digest, which CI pins.

The n are every n up to 10^5, 10^5 uniform and 10^5 log-uniform n drawn
from ``random.Random(SEED)``, every row bound, cut, increment end and
piece start of both tables, and one either side of each, and N_CAP - 1 and
N_CAP.  Rows and pieces move when the tables are laid out anew, so the set
of edges is taken from the tables of the tree that runs the script; it
stays the same while the segment geometry and the square and cube
first-occurrence intervals do.
"""

import hashlib
import random

SEED = 31


def edges() -> set:
    """Every row bound, cut and increment end and every piece start of the
    square and the cube tables."""
    from tribcount import fast_count as fc
    out = set()
    for kind in ("square", "cube"):
        seg = fc._tables(kind)
        for lo, hi, cut1, cut2, _, _, inc_lo, inc_hi in seg.rows:
            out.update((lo, hi, cut1, cut2, inc_lo, inc_hi))
        out.update(seg.jumps[0])  # every piece start, then the top hi + 1
    return out


def positions() -> list:
    """The n the digest covers, ascending, each in [1, N_CAP]."""
    from tribcount.core_word import N_CAP
    rng = random.Random(SEED)
    ns = set(range(1, 10**5 + 1))
    ns.update(rng.randint(1, N_CAP) for _ in range(10**5))
    ns.update(int(10 ** rng.uniform(0, 18)) for _ in range(10**5))
    ns.update(x + e for x in edges() for e in (-1, 0, 1))
    ns.update((N_CAP - 1, N_CAP))
    return sorted(n for n in ns if 1 <= n <= N_CAP)


def digest(ns) -> str:
    import tribcount as tc
    counters = (tc.algorithm_B, tc.algorithm_D, tc.b_at, tc.d_at,
                tc.distinct_squares, tc.distinct_cubes, tc.a_indicator,
                tc.c_indicator)
    h = hashlib.sha256()
    for n in ns:
        line = " ".join(map(str, (n, *(f(n) for f in counters))))
        h.update(f"{line}\n".encode("ascii"))
    return h.hexdigest()


if __name__ == "__main__":
    ns = positions()
    print(f"{digest(ns)} {len(ns)}")
