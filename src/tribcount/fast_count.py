"""Fast repeated-square and repeated-cube counting at arbitrary positions.

Positions from 8 on are tiled by square segments (three per order) and from
52 on by cube segments (one per order).  Per-position counts obey a
self-similar recursion: a segment is a copy of three lower-order segments
shifted by the previous block length, plus a block of unit increments.
Each tiling is held as flat tables, one tuple per segment field, and both
single-point and cumulative queries walk down the copy recursion in a loop
of O(order) steps.

The tables are built on first use and published only once they pass the
self-check: the closed-form segment sums of the low orders against direct
summation of materialized segments, and the tiling, chaining and copy
identities at every order.  A mismatch reports the offending segment and
aborts.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from .core_word import (
    _K,
    _OFF,
    _T,
    N_CAP,
    Record,
    _as_int,
    exact_div,
    kernel_number as _k,
    position_kernel,
    trib_number as _t,
)


# ---------------------------------------------------------------------------
# segment records (views on the tables)


class SquareGamma(Record):
    """One square segment: inclusive position bounds plus the cuts where
    the child segment changes and the threshold of the unit-increment
    block (its first position for j in {1, 2}, one past its last for
    j = 3, where the increments sit at the head)."""
    __slots__ = ("j", "m", "lo", "hi", "cut1", "cut2", "eta")

    def __init__(self, j: int, m: int, lo: int, hi: int, cut1: int,
                 cut2: int, eta: int):
        self.j = j
        self.m = m
        self.lo = lo
        self.hi = hi
        self.cut1 = cut1
        self.cut2 = cut2
        self.eta = eta


class CubeGamma(Record):
    """One cube segment: bounds, child cuts, and the unit-increment block
    [eta1, eta2) which ends exactly at the first child cut."""
    __slots__ = ("m", "lo", "hi", "cut1", "cut2", "eta1", "eta2")

    def __init__(self, m: int, lo: int, hi: int, cut1: int, cut2: int,
                 eta1: int, eta2: int):
        self.m = m
        self.lo = lo
        self.hi = hi
        self.cut1 = cut1
        self.cut2 = cut2
        self.eta1 = eta1
        self.eta2 = eta2


# ---------------------------------------------------------------------------
# materialized segment vectors (base data and test/validation route)

_B_EXPLICIT = {
    (3, 4): (1,),
    (2, 4): (0, 1),
    (1, 4): (0, 0, 0, 1),
    (3, 5): (1, 1),
    (2, 5): (0, 0, 1, 1),
    (3, 6): (1, 1, 1, 1),
}

_D_EXPLICIT = {
    7: (0,) * 6 + (1,) + (0,) * 37,
    8: (0,) * 11 + (1, 1) + (0,) * 30 + (1,) + (0,) * 37,
    9: ((0,) * 20 + (1,) * 4 + (0,) * 6 + (1,) + (0,) * 48 + (1, 1)
        + (0,) * 30 + (1,) + (0,) * 37),
}


@lru_cache(maxsize=None)
def square_segment_vector(j: int, m: int) -> tuple[int, ...]:
    """Per-position square-end counts across one segment, materialized by
    the copy-and-increment recursion.  Grows like t_m; for tests and the
    closed-form self-check, not the fast path."""
    if (j, m) in _B_EXPLICIT:
        return _B_EXPLICIT[(j, m)]
    if m - j < 4:
        raise ValueError(f"segment ({j}, {m}) has no recursive expansion")
    cm = m - j
    body = (square_segment_vector(3, cm) + square_segment_vector(2, cm)
            + square_segment_vector(1, cm))
    if j == 3:  # unit increments at the head
        ones = _t(m - 4) - _k(m - 3) + 1
        return tuple(x + 1 for x in body[:ones]) + body[ones:]
    cut = len(body) - _k(m) + 1  # k_m - 1 unit increments at the tail
    return body[:cut] + tuple(x + 1 for x in body[cut:])


@lru_cache(maxsize=None)
def cube_segment_vector(m: int) -> tuple[int, ...]:
    """Per-position cube-end counts across one segment (see
    ``square_segment_vector``)."""
    if m in _D_EXPLICIT:
        return _D_EXPLICIT[m]
    if m < 10:
        raise ValueError(f"cube segment {m} has no recursive expansion")
    body = (cube_segment_vector(m - 3) + cube_segment_vector(m - 2)
            + cube_segment_vector(m - 1))
    a = exact_div(-_t(m - 2) + 5 * _t(m - 4) + 1, 2)
    b = a + exact_div(_t(m - 2) - 3 * _t(m - 4) - 1, 2)
    return body[:a] + tuple(x + 1 for x in body[a:b]) + body[b:]


def _base_tables(start, vectors):
    """Per-position counts and their prefix sums up to the end of the given
    consecutive segments, the first of which starts at ``start`` (nothing
    ends before it)."""
    per = [0] * start
    for vec in vectors:
        per.extend(vec)
    return tuple(per), tuple(accumulate(per))


SQUARE_START = 8  # first position of the square tiling
CUBE_START = 52   # first position of the cube tiling

# the square segments of orders 4-6 and the cube segments of orders 7-9
_B_SMALL, _B_CUM = _base_tables(SQUARE_START, [
    square_segment_vector(j, m) for m in (4, 5, 6) for j in (3, 2, 1)])
_D_SMALL, _D_CUM = _base_tables(CUBE_START, [
    cube_segment_vector(m) for m in (7, 8, 9)])

# last positions of the explicit tables: 51 and 325
BASE_B_MAX = len(_B_SMALL) - 1
BASE_D_MAX = len(_D_SMALL) - 1


# ---------------------------------------------------------------------------
# segment tables, built and self-checked on first use


class _Segments:
    """One tiling as flat tables, one tuple per field, indexed by segment
    number in tiling order: square segment (j, m) is 3(m - 4) + 3 - j,
    cube segment m is m - 7.

    Segment s covers [lo, hi] and carries its unit increments at
    [inc_lo, inc_hi] (empty when inc_hi < inc_lo).  Shifted down by
    ``shift``, the previous block length, a position n of the segment lands
    in child segment ``first + (n >= cut1) + (n >= cut2)``; ``first`` is -1
    where the copy recursion has no children.  ``sums`` and ``cums`` are the
    closed-form segment total and the cumulative count at hi.  ``delta`` is
    the count over [lo - shift, lo), which the copy leaves out, so that the
    cumulative count at n is the one at n - shift plus ``delta`` plus the
    unit increments at or before n.  ``base`` and ``base_cum`` are the
    explicit per-position table and its prefix sums, where descents stop."""

    __slots__ = ("lo", "hi", "cut1", "cut2", "first", "shift", "inc_lo",
                 "inc_hi", "sums", "cums", "delta", "base", "base_cum",
                 "label")

    def __init__(self, rows, base, base_cum, label):
        (self.lo, self.hi, self.cut1, self.cut2, self.first, self.shift,
         self.inc_lo, self.inc_hi, self.sums, self.cums) = zip(*rows)
        pre = [c - s for c, s in zip(self.cums, self.sums)]
        self.delta = tuple(pre[s] - pre[c] if c >= 0 else 0
                           for s, c in enumerate(self.first))
        self.base = base
        self.base_cum = base_cum
        self.label = label


def _square_label(s: int) -> str:
    return f"square segment (j={3 - s % 3}, m={4 + s // 3})"


def _cube_label(s: int) -> str:
    return f"cube segment m={7 + s}"


def _square_rows(m: int) -> list:
    """Table rows of square segments (3, m), (2, m) and (1, m), by direct
    arithmetic on the block lengths; a row is lo, hi, cut1, cut2, first,
    shift, inc_lo, inc_hi, sum, cum."""
    o = m + _OFF  # t_i is _T[i + _OFF]
    t0, t1, t2 = _T[o], _T[o - 1], _T[o - 2]
    # per kind: j, lo, hi, eta - lo, and the numerators over 44 of the
    # segment total and of the cumulative count at hi
    kinds = (
        (3, exact_div(t0 + t2 - 1, 2), exact_div(-t0 + 4 * t1 + t2 - 3, 2),
         _T[o - 4] - _K[m - 3] + 1,
         (2 * m * (-19 * t0 + 29 * t1 + 13 * t2)
          + (237 * t0 - 358 * t1 - 157 * t2) + 33),
         (m * (-25 * t0 + 48 * t1 + 31 * t2)
          + (173 * t0 - 294 * t1 - 213 * t2) + 11 * (m + 11))),
        (2, exact_div(-t0 + 4 * t1 + t2 - 1, 2),
         exact_div(t0 + 2 * t1 - t2 - 3, 2), _T[o - 3] - _K[m] + 1,
         (2 * m * (10 * t0 - 6 * t1 - 19 * t2)
          + (-189 * t0 + 156 * t1 + 331 * t2) - 11),
         (m * (-5 * t0 + 36 * t1 - 7 * t2)
          + 2 * (-8 * t0 - 69 * t1 + 59 * t2) + 11 * (m + 10))),
        (1, exact_div(t0 + 2 * t1 - t2 - 1, 2),
         exact_div(t0 + 2 * t1 + t2 - 3, 2), t2 - _K[m] + 1,
         (2 * m * (4 * t0 - 9 * t1 + 10 * t2)
          + (19 * t0 + 36 * t1 - 169 * t2) - 11),
         (m * (3 * t0 + 18 * t1 + 13 * t2)
          + (3 * t0 - 102 * t1 - 51 * t2) + 11 * (m + 9))),
    )
    rows = []
    for j, lo, hi, eta_off, total, cum in kinds:
        eta = lo + eta_off
        cm = m - j  # order of the three child segments
        # child cuts exist once the copy recursion does (child order >= 4)
        if cm >= 4:
            cut1 = lo + _T[cm - 4 + _OFF]
            cut2 = cut1 + _T[cm - 3 + _OFF]
            ok = (cut1 < eta <= cut2) if j == 2 else (cut2 < eta <= hi)
            if not ok:
                raise AssertionError(
                    f"threshold ordering broken in ({j}, {m})")
            first = 3 * (cm - 4)
        else:
            cut1 = cut2 = lo
            first = -1
        # the unit increments are the head [lo, eta) for j = 3, else [eta, hi]
        inc_lo, inc_hi = (lo, eta - 1) if j == 3 else (eta, hi)
        rows.append((lo, hi, cut1, cut2, first, t1, inc_lo, inc_hi,
                     exact_div(total, 44), exact_div(cum, 44)))
    return rows


def _cube_row(m: int) -> tuple:
    """Table row of cube segment m (see ``_square_rows``)."""
    o = m + _OFF
    t0, t1, t2, t3, t4 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3], _T[o - 4]
    lo = exact_div(t0 + t2 - 1, 2)
    hi = exact_div(_T[o + 1] + t1 - 3, 2)
    cut1 = lo + t4
    cut2 = cut1 + t3
    eta1 = lo + exact_div(-t2 + 5 * t4 + 1, 2)
    eta2 = eta1 + exact_div(t2 - 3 * t4 - 1, 2)
    if not (lo < eta1 < eta2 == cut1 < cut2 <= hi + 1):
        raise AssertionError(f"threshold ordering broken in cube segment {m}")
    total = exact_div(2 * m * (7 * t0 - 13 * t1 + t2)
                      + (-41 * t0 + 74 * t1 - 7 * t2) + 11, 44)
    cum = exact_div(m * (9 * t0 - 12 * t1 - 5 * t2)
                    + 12 * (-2 * t0 + 2 * t1 + t2) + 11 * m, 44)
    first = m - 10 if m >= 10 else -1  # children m-3, m-2, m-1 from order 10
    return lo, hi, cut1, cut2, first, t1, eta1, eta2 - 1, total, cum


def _phi(m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (2 * m * (-5 * t0 + 14 * t1 + 4 * t2)
           + (67 * t0 - 166 * t1 + 5 * t2) + 11)
    return exact_div(num, 44)


def _check_direct(seg: _Segments, vectors) -> None:
    """Closed-form sums and cumulative counts of the first segments against
    direct summation of their materialized vectors."""
    running = 0
    for s, vec in enumerate(vectors):
        direct = sum(vec)
        if seg.sums[s] != direct:
            raise RuntimeError(
                f"segment sum formula disagrees with direct summation "
                f"at {seg.label(s)}: {seg.sums[s]} != {direct}")
        running += direct
        if seg.cums[s] != running:
            raise RuntimeError(
                f"cumulative formula disagrees at {seg.label(s)}: "
                f"{seg.cums[s]} != {running}")


def _check_segments(seg: _Segments, start: int) -> None:
    """Raise RuntimeError, naming the segment, unless the tables tile the
    positions from ``start`` on without gap or overlap, the base table ends
    on a segment boundary, each cumulative count is the previous one plus
    the segment total, and every segment past the base table is the shifted
    copy of its three children that the descents walk."""
    lo, hi = seg.lo, seg.hi
    top = len(seg.base) - 1
    if top not in hi:
        raise RuntimeError(f"the base table ends at {top}, inside a segment")
    prev_hi, prev_cum = start - 1, seg.base_cum[start - 1]
    for s, (l, h, c1, c2, c, d, total, cum) in enumerate(zip(
            lo, hi, seg.cut1, seg.cut2, seg.first, seg.shift, seg.sums,
            seg.cums)):
        if l != prev_hi + 1:
            raise RuntimeError(
                f"tiling broken at {seg.label(s)}: it starts at {l}, "
                f"not {prev_hi + 1}")
        if cum != prev_cum + total:
            raise RuntimeError(
                f"cumulative chaining broken at {seg.label(s)}: "
                f"{cum} != {prev_cum} + {total}")
        if h > top and (c < 0 or (lo[c], lo[c + 1], lo[c + 2], hi[c + 2])
                        != (l - d, c1 - d, c2 - d, h - d)):
            raise RuntimeError(
                f"child segments do not line up with the cuts of "
                f"{seg.label(s)}")
        prev_hi, prev_cum = h, cum


_SQUARES = None  # the square tables, once built and checked
_CUBES = None    # the cube tables, once built and checked


def _square_segments() -> _Segments:
    """Build the square tables for every order up to the one that reaches
    N_CAP, and publish them once the self-check passes.  Callers reach the
    tables as ``_SQUARES or _square_segments()``."""
    global _SQUARES
    rows, m = [], 3
    while not rows or rows[-1][1] < N_CAP:
        m += 1
        rows += _square_rows(m)
    seg = _Segments(rows, _B_SMALL, _B_CUM, _square_label)
    _check_direct(seg, [square_segment_vector(j, m)
                        for m in range(4, 11) for j in (3, 2, 1)])
    for m in range(4, 11):
        if _phi(m) != sum(seg.sums[3 * (m - 4):3 * (m - 3)]):
            raise RuntimeError(f"segment total formula disagrees at m={m}")
    _check_segments(seg, SQUARE_START)
    _SQUARES = seg
    return seg


def _cube_segments() -> _Segments:
    """The cube counterpart of ``_square_segments``."""
    global _CUBES
    rows, m = [], 6
    while not rows or rows[-1][1] < N_CAP:
        m += 1
        rows.append(_cube_row(m))
    seg = _Segments(rows, _D_SMALL, _D_CUM, _cube_label)
    _check_direct(seg, [cube_segment_vector(m) for m in range(7, 12)])
    _check_segments(seg, CUBE_START)
    _CUBES = seg
    return seg


# ---------------------------------------------------------------------------
# views on the tables


def _square_entry(j: int, m: int) -> tuple[_Segments, int]:
    """The square tables and the index of segment (j, m) in them."""
    if j not in (1, 2, 3):
        raise ValueError("square segments come in kinds 1, 2, 3")
    if m < 4:
        raise ValueError("square segments start at order 4")
    seg = _SQUARES or _square_segments()
    s = 3 * (m - 4) + 3 - j
    if s >= len(seg.lo):
        raise ValueError(f"square segments stop at order "
                         f"{3 + len(seg.lo) // 3}, which reaches {N_CAP}")
    return seg, s


def _cube_entry(m: int) -> tuple[_Segments, int]:
    """The cube tables and the index of segment m in them."""
    if m < 7:
        raise ValueError("cube segments start at order 7")
    seg = _CUBES or _cube_segments()
    s = m - 7
    if s >= len(seg.lo):
        raise ValueError(f"cube segments stop at order "
                         f"{6 + len(seg.lo)}, which reaches {N_CAP}")
    return seg, s


def square_gamma(j: int, m: int) -> SquareGamma:
    """Bounds, child cuts and increment threshold of square segment (j, m)."""
    seg, s = _square_entry(j, m)
    eta = seg.inc_hi[s] + 1 if j == 3 else seg.inc_lo[s]
    return SquareGamma(j, m, seg.lo[s], seg.hi[s], seg.cut1[s], seg.cut2[s],
                       eta)


def cube_gamma(m: int) -> CubeGamma:
    """Bounds, child cuts and unit-increment block of cube segment m."""
    seg, s = _cube_entry(m)
    return CubeGamma(m, seg.lo[s], seg.hi[s], seg.cut1[s], seg.cut2[s],
                     seg.inc_lo[s], seg.inc_hi[s] + 1)


def sum_b_gamma(j: int, m: int) -> int:
    """Total square-end count over one square segment."""
    seg, s = _square_entry(j, m)
    return seg.sums[s]


def phi(m: int) -> int:
    """Total square-end count over the three order-m segments combined."""
    # range-checks m as the other views do, and builds the tables that
    # _phi is checked with
    _square_entry(1, m)
    return _phi(m)


def b_cum_at_gamma_max(j: int, m: int) -> int:
    """Cumulative repeated-square count at the right endpoint of a square
    segment."""
    seg, s = _square_entry(j, m)
    return seg.cums[s]


def sum_d_gamma(m: int) -> int:
    """Total cube-end count over one cube segment."""
    seg, s = _cube_entry(m)
    return seg.sums[s]


def d_cum_at_gamma_max(m: int) -> int:
    """Cumulative repeated-cube count at the right endpoint of a cube
    segment."""
    seg, s = _cube_entry(m)
    return seg.cums[s]


# ---------------------------------------------------------------------------
# descents


def _point(seg: _Segments, n: int) -> int:
    """Count ending exactly at n, for n past the base table: the unit
    increments met on the way down the copy recursion plus the base entry
    reached."""
    lo, hi, cut1, cut2, first, shift = (seg.lo, seg.hi, seg.cut1, seg.cut2,
                                        seg.first, seg.shift)
    inc_lo, inc_hi, base = seg.inc_lo, seg.inc_hi, seg.base
    top = len(base) - 1
    s = bisect_right(lo, n) - 1
    extra = 0
    while n > top:
        assert lo[s] <= n <= hi[s], (seg.label(s), n)
        if inc_lo[s] <= n <= inc_hi[s]:
            extra += 1
        c = first[s]
        if n >= cut1[s]:
            c += 2 if n >= cut2[s] else 1
        n -= shift[s]
        s = c
    return base[n] + extra


def _cumulative(seg: _Segments, n: int) -> int:
    """Count ending at or before n, for n past the base table (see
    ``_Segments.delta``)."""
    lo, hi, cut1, cut2, first, shift = (seg.lo, seg.hi, seg.cut1, seg.cut2,
                                        seg.first, seg.shift)
    inc_lo, inc_hi, delta, base_cum = (seg.inc_lo, seg.inc_hi, seg.delta,
                                       seg.base_cum)
    top = len(base_cum) - 1
    s = bisect_right(lo, n) - 1
    total = 0
    while n > top:
        assert lo[s] <= n <= hi[s], (seg.label(s), n)
        a = inc_lo[s]
        if n >= a:
            b = inc_hi[s]
            total += (n if n < b else b) - a + 1
        total += delta[s]
        c = first[s]
        if n >= cut1[s]:
            c += 2 if n >= cut2[s] else 1
        n -= shift[s]
        s = c
    return total + base_cum[n]


# ---------------------------------------------------------------------------
# single-point counts


def b_at(n: int) -> int:
    """Number of square occurrences ending exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1 or n > N_CAP:
        raise ValueError(f"position {n} outside [1, {N_CAP}]")
    if n <= BASE_B_MAX:
        return _B_SMALL[n]
    return _point(_SQUARES or _square_segments(), n)


def d_at(n: int) -> int:
    """Number of cube occurrences ending exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1 or n > N_CAP:
        raise ValueError(f"position {n} outside [1, {N_CAP}]")
    if n <= BASE_D_MAX:
        return _D_SMALL[n]
    return _point(_CUBES or _cube_segments(), n)


# ---------------------------------------------------------------------------
# cumulative counts


def algorithm_B(n: int) -> int:
    """Number of repeated squares in the length-n prefix, O(log n)."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= BASE_B_MAX:
        return _B_CUM[n]
    return _cumulative(_SQUARES or _square_segments(), n)


def algorithm_D(n: int) -> int:
    """Number of repeated cubes in the length-n prefix, O(log n)."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= BASE_D_MAX:
        return _D_CUM[n]
    return _cumulative(_CUBES or _cube_segments(), n)


# ---------------------------------------------------------------------------
# square-tree sample points


def square_case_block(j: int, m: int, p: int) -> range:
    """End positions of the squares of kind j whose maximal kernel word has
    order m, around the p-th occurrence of that kernel word.  These are the
    positions the unit increments of segment (j, m) sit at, shifted to
    occurrence p."""
    if j not in (1, 2, 3):
        raise ValueError("square cases come in kinds 1, 2, 3")
    if m < 4:
        raise ValueError("square cases start at order 4")
    pos = position_kernel(m, p)
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    if j == 1:
        start = pos + exact_div(-t0 + 4 * t1 - t2 + 1, 2)
        size = _k(m) - 1
    elif j == 2:
        start = pos + exact_div(-t0 + 4 * t1 - 3 * t2 + 1, 2)
        size = _k(m) - 1
    else:
        start = pos
        size = _t(m - 4) - _k(m - 3) + 1
    return range(start, start + size)
