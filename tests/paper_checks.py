"""The paper's gap-sequence and kernel-word route, kept as test checks.

The paper finds every distinct square, then counts the occurrences of each
by the gaps between them.  The package counts by the copy recursion
instead, so these functions are used only to check it: the gap sequences
and their coding (``occurrences``, ``gap_pattern``, ``gap_coding``), the
maximal kernel word inside a factor (``kernel_of``), the square blocks
around the p-th occurrence of a kernel word (``square_case_block``), the
repeated counts b and d from those occurrences (``kernel_route``), the
same from a scan and the kernel words alone, without the rows
(``kernel_orders``, ``kernel_pairing``), and their running sums B and D
in closed form (``kernel_closed``), Glen's route to the distinct-square
count at block lengths (``glen_distinct_squares_at_t``) and the letter
counts of a block (``block_letter_counts``), taken from the substitution
itself.  They read
the package's tables and its one argument check, ``core_word._arg``.
"""

from bisect import bisect_right
from functools import lru_cache

from tribcount import fast_count, tiling
from tribcount.core_word import (
    _OFF,
    _T,
    MATERIALIZE_CAP,
    MAX_ORDER,
    N_CAP,
    _arg,
    exact_div,
    kernel_number,
    kernel_word,
    position_kernel,
    prefix,
    trib_number as _t,
)
from tribcount.oracle import ORACLE_CAP


def block_letter_counts(m: int) -> tuple[int, int, int]:
    """(a, b, c) letter counts of the m-th block: T_{-2} is empty, T_{-1}
    is c, and each later block is the image of the one before under
    a -> ab, b -> ac, c -> a, which takes the counts (x, y, z) to
    (x + y + z, x, y)."""
    m = _arg(m, -2, MAX_ORDER, "block order")
    if m == -2:
        return (0, 0, 0)
    x, y, z = 0, 0, 1
    for _ in range(m + 1):
        x, y, z = x + y + z, x, y
    return (x, y, z)


# ---------------------------------------------------------------------------
# gap sequences and kernel words of factors


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
    window = min(MATERIALIZE_CAP, max(1000, 64 * len(w)))
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


# ---------------------------------------------------------------------------
# square-tree sample points


def square_case_block(j: int, m: int, p: int) -> range:
    """End positions of the squares of kind j whose maximal kernel word has
    order m, around the p-th occurrence of that kernel word.  These are the
    positions the unit increments of segment (j, m) sit at, shifted to
    occurrence p; a block that ends past N_CAP raises ValueError."""
    j = _arg(j, 1, 3, "square segment kind")
    m = _arg(m, 4, MAX_ORDER, "kernel order")
    shift = position_kernel(m, p) - position_kernel(m, 1)
    rows = fast_count._tables("square").rows
    inc_lo, inc_hi = rows[3 * (m - 4) + 3 - j][6:8]
    if inc_hi + shift > N_CAP:
        raise ValueError(f"square block ({j}, {m}) at kernel occurrence {p} "
                         f"exceeds cap")
    return range(inc_lo + shift, inc_hi + 1 + shift)


# ---------------------------------------------------------------------------
# the repeated counts from kernel occurrences


def _unit_blocks(kind: str) -> list:
    """(inc_lo, inc_hi, m) of every row of the "square" or "cube" tables
    that holds unit increments, in tiling order: its block and the order m
    of its segment (j, m)."""
    rows = fast_count._tables(kind).rows
    return [(*row[6:8], 4 + s // 3) for s, row in enumerate(rows)
            if row[6] <= row[7]]


def kernel_route(kind: str, n: int, order_shift: int = 0) -> list[int]:
    """b(i) (``kind`` "square") or d(i) ("cube") for i in 0..n, by the
    paper's route: the squares (cubes) not seen before that end in the
    unit-increment block of segment (j, m) recur at every occurrence of
    the kernel word K_m, so b(i) (d(i)) counts the pairs (e, p), e in such
    a block and p >= 1, with e + pos(m, p) - pos(m, 1) = i, where pos(m, p)
    = position_kernel(m, p).  ``order_shift`` pairs each block with the
    kernel order m + order_shift instead, to show that the pairing is
    specific."""
    n = _arg(n, 0, ORACLE_CAP, "oracle scan length")
    counts = [0] * (n + 1)
    for inc_lo, inc_hi, m in _unit_blocks(kind):
        if inc_lo > n:
            break  # the blocks ascend with the rows
        first = position_kernel(m + order_shift, 1)
        p, shift = 1, 0
        while inc_lo + shift <= n:
            for i in range(inc_lo + shift, min(inc_hi + shift, n) + 1):
                counts[i] += 1
            p += 1
            shift = position_kernel(m + order_shift, p) - first
    return counts


@lru_cache(maxsize=None)
def _kernel_sums(m: int) -> tuple:
    """g_k, the sum of L_m(q) over q < t_k, at every block order k >= 0
    with t_(k+m) in the block table (see ``kernel_closed``).  The block
    T_k is T_(k-1) T_(k-2) T_(k-3), and L_m(t_k) = t_(k+m), so g_k =
    g_(k-1) + t_(k-2) t_(k-1+m) + g_(k-2) + t_(k-3) (t_(k-1+m) + t_(k-2+m))
    + g_(k-3), from g_(-2) = g_(-1) = g_0 = 0."""
    def t(i):
        return _T[i + _OFF]
    g = [0, 0, 0]  # g_(-2), g_(-1), g_0
    for k in range(1, len(_T) - _OFF - m):
        g.append(g[-1] + t(k - 2) * t(k - 1 + m) + g[-2]
                 + t(k - 3) * (t(k - 1 + m) + t(k - 2 + m)) + g[-3])
    return tuple(g[2:])


def _kernel_f(m: int, x: int) -> int:
    """F_m(x), the sum of x - D_p + 1 over the p >= 1 with D_p = L_m(p - 1)
    <= x, and 0 for x < 0.  The largest q with L_m(q) <= x is found
    greedily: a prefix of the word is blocks T_k of descending order, and
    the block T_k adds t_k to q and t_(k+m) to L_m(q)."""
    if x < 0:
        return 0
    g = _kernel_sums(m)
    q = length = below = 0  # q, L_m(q), and the sum of L_m over [0, q)
    for k in range(bisect_right(_T, x) - 1 - _OFF - m, -1, -1):
        if length + _T[k + m + _OFF] <= x:
            below += _T[k + _OFF] * length + g[k]
            q += _T[k + _OFF]
            length += _T[k + m + _OFF]
    # p - 1 runs over 0..q
    return (q + 1) * (x + 1) - below - length


def kernel_closed(kind: str, n: int, order_shift: int = 0) -> int:
    """B(n) (``kind`` "square") or D(n) ("cube") in closed form, by the
    route of ``kernel_route`` summed over the positions up to n, for n up
    to N_CAP.  The p-th occurrence of K_m ends D_p = L_m(p - 1) past the
    first, where L_m(q) is the length of the image under m substitutions
    of the word's first q letters: each letter codes one gap between
    occurrences of K_m, a as t_m, b as t_(m-1) + t_(m-2) and c as
    t_(m-1).  So a row with unit increments [inc_lo, inc_hi] of order m
    adds F_m(n - inc_lo) - F_m(n - inc_hi - 1) (``_kernel_f``).  It reads
    the block table, the unit increments and the orders of the rows, and
    nothing else of the package; ``order_shift`` pairs each block with
    the kernel order m + order_shift instead, as in ``kernel_route``."""
    n = _arg(n, 0, N_CAP, "prefix length")
    total = 0
    for inc_lo, inc_hi, m in _unit_blocks(kind):
        if inc_lo > n:
            break  # the blocks ascend with the rows
        total += (_kernel_f(m + order_shift, n - inc_lo)
                  - _kernel_f(m + order_shift, n - inc_hi - 1))
    return total


def kernel_mismatches(ns, order_shift: int = 0) -> list:
    """One line per n in ``ns`` and stat B or D where ``kernel_closed``
    and ``algorithm_B`` / ``algorithm_D`` differ, naming n, the stat and
    the row of the segment that holds n."""
    out = []
    for n in ns:
        for stat, kind, count in (("B", "square", fast_count.algorithm_B),
                                  ("D", "cube", fast_count.algorithm_D)):
            want, got = count(n), kernel_closed(kind, n, order_shift)
            if want != got:
                built = tiling._build(kind)  # the rows ``count`` descends
                s = bisect_right(built.rows, (n + 1,)) - 1  # last lo <= n
                where = built.label(s) if s >= 0 else "below the tiling"
                out.append(f"{stat}({n}): kernel route {got}, "
                           f"{count.__name__} {want}, in {where}")
    return out


# ---------------------------------------------------------------------------
# the kernel pairing read off a scan, without the rows


@lru_cache(maxsize=None)
def _kernel_ends(n: int) -> dict:
    """m -> the end position of every occurrence of the kernel word K_m
    in the length-n prefix, ascending, for every m with k_m <= n."""
    ends, m = {}, 1
    while kernel_number(m) <= n:
        ends[m] = occurrences(kernel_word(m), n)
        m += 1
    return ends


def kernel_orders(summary, power: int) -> dict:
    """e -> (L, m) at each position e where a new square (``power`` 2) or
    cube (3) ends in the scan ``summary``: the root length L of that
    repetition, which is the longest one ending at e (a longer one holds
    the new one as a suffix, so it is new too, and only one new one ends
    at e), and the order m of the maximal kernel word inside it.  That is
    ``kernel_of`` of the factor, found from the end positions of the
    kernel words instead of a search of each factor: the largest m for
    which an occurrence of K_m lies inside the factor, which must hold
    only one occurrence of it."""
    runs, new = ((summary.square_runs, summary.a) if power == 2
                 else (summary.cube_runs, summary.c))
    longest = [0] * (summary.n + 1)
    for L, first, last in sorted(runs):  # a longer root overwrites
        longest[first:last + 1] = [L] * (last - first + 1)
    ends = _kernel_ends(summary.n)
    out = {}
    for e, is_new in enumerate(new):
        if not is_new:
            continue
        start = e - power * longest[e]  # the factor is word[start:e]
        for m in reversed(ends):  # the orders, descending
            k, q = kernel_number(m), ends[m]
            i = bisect_right(q, e)  # the occurrences that end by e
            if i and q[i - 1] - k >= start:
                if i > 1 and q[i - 2] - k >= start:
                    raise AssertionError(
                        f"maximal kernel word of order {m} occurs more "
                        f"than once in the repetition ending at {e}")
                out[e] = longest[e], m
                break
        else:
            raise ValueError(f"no kernel word inside the repetition at {e}")
    return out


def kernel_pairing(orders: dict, n: int, order_shift: int = 0) -> list:
    """b(i) or d(i) for i in 0..n by the paper's route, from ``orders``,
    the ``kernel_orders`` of a scan of the length-n prefix, and the kernel
    words alone: the new square (cube) that ends at e, whose maximal kernel
    word is K_m, recurs at every occurrence of K_m, so b(i) (d(i)) counts
    the pairs (e, p) with e + D_p = i, where D_p is the distance from the
    first occurrence of K_m to the p-th.  ``order_shift`` pairs each end
    with the kernel order m + order_shift instead."""
    ends = _kernel_ends(n)
    counts = [0] * (n + 1)
    for e, (_, m) in orders.items():
        q = ends[m + order_shift]
        for end in q:
            if e + end - q[0] > n:
                break
            counts[e + end - q[0]] += 1
    return counts


# ---------------------------------------------------------------------------
# Glen's distinct-square count at block lengths


def _glen_d(i: int) -> int:
    # cumulative block-length sums: d_i = t_0 + ... + t_{i-1}, with the
    # empty sum at 0 and formally -1 below that
    if i <= -1:
        return -1
    if i == 0:
        return 0
    return exact_div(_t(i + 1) + _t(i - 1) - 3, 2)


def glen_distinct_squares_at_t(m: int) -> int:
    """Glen's cumulative-sum expression for the same count; independent
    route used as a cross-check of ``distinct_squares_at_t``."""
    h = _arg(m, 3, MAX_ORDER, "block order") - 1
    total = sum(_glen_d(i) + 1 for i in range(0, h - 1))
    return total + _glen_d(h - 4) + _glen_d(h - 5) + 1


if __name__ == "__main__":
    # ``python tests/paper_checks.py``, with ``src`` on the path: the
    # kernel route to B and D at every edge of both tilings that the spot
    # check of b and d reads, exiting 1 on a mismatch
    import sys
    import spot_oracle

    ns = spot_oracle.edges()
    bad = kernel_mismatches(ns)
    for line in bad:
        print(line)
    print(f"kernel route to B and D at {len(ns)} edges of both tilings: "
          f"{len(bad)} mismatches")
    sys.exit(1 if bad else 0)
