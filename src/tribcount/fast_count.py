"""Fast repeated-square and repeated-cube counting at arbitrary positions.

Positions from 8 on are tiled by square segments (three per order) and from
52 on by cube segments (one per order).  Per-position counts obey a
self-similar recursion: a segment is a copy of three lower-order segments
shifted by the previous block length, plus a block of unit increments.
Single-point queries descend that recursion in O(order) time; cumulative
queries combine closed-form segment sums with a partial-sum recursion of the
same depth.

Every closed-form segment sum is checked once, lazily, against direct
summation of materialized low-order segments before the fast path uses it;
a mismatch reports the offending segment and aborts.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .core_word import (
    N_CAP,
    Record,
    _as_int,
    exact_div,
    kernel_number as _k,
    position_kernel,
    trib_number as _t,
)

BASE_B_MAX = 51   # largest position covered by the explicit square table
BASE_D_MAX = 325  # largest position covered by the explicit cube table


# ---------------------------------------------------------------------------
# segments


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


@lru_cache(maxsize=None)
def square_gamma(j: int, m: int) -> SquareGamma:
    if j not in (1, 2, 3):
        raise ValueError("square segments come in kinds 1, 2, 3")
    if m < 4:
        raise ValueError("square segments start at order 4")
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    if j == 1:
        lo = exact_div(t0 + 2 * t1 - t2 - 1, 2)
        hi = exact_div(t0 + 2 * t1 + t2 - 3, 2)
        eta = lo + t2 - _k(m) + 1
    elif j == 2:
        lo = exact_div(-t0 + 4 * t1 + t2 - 1, 2)
        hi = exact_div(t0 + 2 * t1 - t2 - 3, 2)
        eta = lo + _t(m - 3) - _k(m) + 1
    else:
        lo = exact_div(t0 + t2 - 1, 2)
        hi = exact_div(-t0 + 4 * t1 + t2 - 3, 2)
        eta = lo + _t(m - 4) - _k(m - 3) + 1
    # child cuts exist once the copy recursion does (child order >= 4)
    if m - j >= 4:
        cut1 = lo + _t(m - j - 4)
        cut2 = cut1 + _t(m - j - 3)
        ok = (cut1 < eta <= cut2) if j == 2 else (cut2 < eta <= hi)
        if not ok:
            raise AssertionError(f"threshold ordering broken in ({j}, {m})")
    else:
        cut1 = cut2 = lo
    return SquareGamma(j, m, lo, hi, cut1, cut2, eta)


@lru_cache(maxsize=None)
def cube_gamma(m: int) -> CubeGamma:
    if m < 7:
        raise ValueError("cube segments start at order 7")
    lo = exact_div(_t(m) + _t(m - 2) - 1, 2)
    hi = exact_div(_t(m + 1) + _t(m - 1) - 3, 2)
    cut1 = lo + _t(m - 4)
    cut2 = cut1 + _t(m - 3)
    eta1 = lo + exact_div(-_t(m - 2) + 5 * _t(m - 4) + 1, 2)
    eta2 = eta1 + exact_div(_t(m - 2) - 3 * _t(m - 4) - 1, 2)
    if not (lo < eta1 < eta2 == cut1 < cut2 <= hi + 1):
        raise AssertionError(f"threshold ordering broken in cube segment {m}")
    return CubeGamma(m, lo, hi, cut1, cut2, eta1, eta2)


def _build_locators():
    sq, cu = [], []
    m = 4
    while True:
        try:
            lo = exact_div(_t(m) + _t(m - 2) - 1, 2)
        except ValueError:
            break
        if lo > 4 * N_CAP:
            break
        sq.append(lo)
        if m >= 7:
            cu.append(lo)
        m += 1
    return sq, cu


_SQ_LO, _CU_LO = _build_locators()


def _locate_square(n: int) -> tuple[int, int]:
    """(j, m) of the square segment containing position n >= 8."""
    m = 4 + bisect_right(_SQ_LO, n) - 1
    g2 = square_gamma(2, m)
    if n < g2.lo:
        return 3, m
    if n <= g2.hi:
        return 2, m
    return 1, m


def _locate_cube(n: int) -> int:
    """Order m of the cube segment containing position n >= 52."""
    return 7 + bisect_right(_CU_LO, n) - 1


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
    if j == 3:
        ones = _t(m - 4) - _k(m - 3) + 1
        inc = (1,) * ones + (0,) * (len(body) - ones)
    else:
        ones = _k(m) - 1
        inc = (0,) * (len(body) - ones) + (1,) * ones
    return tuple(x + y for x, y in zip(body, inc))


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
    zeros = exact_div(-_t(m - 2) + 5 * _t(m - 4) + 1, 2)
    ones = exact_div(_t(m - 2) - 3 * _t(m - 4) - 1, 2)
    inc = (0,) * zeros + (1,) * ones + (0,) * (len(body) - zeros - ones)
    return tuple(x + y for x, y in zip(body, inc))


def _build_base_tables():
    b = [0] * (BASE_B_MAX + 1)
    for m in (4, 5, 6):
        for j in (3, 2, 1):
            g = square_gamma(j, m)
            for i, v in enumerate(square_segment_vector(j, m)):
                b[g.lo + i] = v
    d = [0] * (BASE_D_MAX + 1)
    for m in (7, 8, 9):
        g = cube_gamma(m)
        for i, v in enumerate(cube_segment_vector(m)):
            d[g.lo + i] = v
    bc = [0] * (BASE_B_MAX + 1)
    dc = [0] * (BASE_D_MAX + 1)
    for i in range(1, BASE_B_MAX + 1):
        bc[i] = bc[i - 1] + b[i]
    for i in range(1, BASE_D_MAX + 1):
        dc[i] = dc[i - 1] + d[i]
    return tuple(b), tuple(bc), tuple(d), tuple(dc)


_B_SMALL, _B_CUM, _D_SMALL, _D_CUM = _build_base_tables()


# ---------------------------------------------------------------------------
# closed-form segment sums, self-checked before first fast-path use


@lru_cache(maxsize=None)
def _sum_b(j: int, m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    if j == 1:
        num = (2 * m * (4 * t0 - 9 * t1 + 10 * t2)
               + (19 * t0 + 36 * t1 - 169 * t2) - 11)
    elif j == 2:
        num = (2 * m * (10 * t0 - 6 * t1 - 19 * t2)
               + (-189 * t0 + 156 * t1 + 331 * t2) - 11)
    else:
        num = (2 * m * (-19 * t0 + 29 * t1 + 13 * t2)
               + (237 * t0 - 358 * t1 - 157 * t2) + 33)
    return exact_div(num, 44)


@lru_cache(maxsize=None)
def _phi(m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (2 * m * (-5 * t0 + 14 * t1 + 4 * t2)
           + (67 * t0 - 166 * t1 + 5 * t2) + 11)
    return exact_div(num, 44)


@lru_cache(maxsize=None)
def _cum_b_max(j: int, m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    if j == 3:
        num = (m * (-25 * t0 + 48 * t1 + 31 * t2)
               + (173 * t0 - 294 * t1 - 213 * t2) + 11 * (m + 11))
    elif j == 2:
        num = (m * (-5 * t0 + 36 * t1 - 7 * t2)
               + 2 * (-8 * t0 - 69 * t1 + 59 * t2) + 11 * (m + 10))
    else:
        num = (m * (3 * t0 + 18 * t1 + 13 * t2)
               + (3 * t0 - 102 * t1 - 51 * t2) + 11 * (m + 9))
    return exact_div(num, 44)


@lru_cache(maxsize=None)
def _sum_d(m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (2 * m * (7 * t0 - 13 * t1 + t2)
           + (-41 * t0 + 74 * t1 - 7 * t2) + 11)
    return exact_div(num, 44)


@lru_cache(maxsize=None)
def _cum_d_max(m: int) -> int:
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (m * (9 * t0 - 12 * t1 - 5 * t2)
           + 12 * (-2 * t0 + 2 * t1 + t2) + 11 * m)
    return exact_div(num, 44)


_validated = False


def _ensure_validated():
    global _validated
    if _validated:
        return
    running = 0
    for m in range(4, 11):
        for j in (3, 2, 1):
            vec = square_segment_vector(j, m)
            direct = sum(vec)
            if _sum_b(j, m) != direct:
                raise RuntimeError(
                    f"segment sum formula disagrees with direct summation "
                    f"at square segment (j={j}, m={m}): "
                    f"{_sum_b(j, m)} != {direct}")
            running += direct
            if _cum_b_max(j, m) != running:
                raise RuntimeError(
                    f"cumulative formula disagrees at square segment "
                    f"(j={j}, m={m}): {_cum_b_max(j, m)} != {running}")
        if _phi(m) != sum(_sum_b(j, m) for j in (1, 2, 3)):
            raise RuntimeError(f"segment total formula disagrees at m={m}")
    running = 0
    for m in range(7, 12):
        direct = sum(cube_segment_vector(m))
        if _sum_d(m) != direct:
            raise RuntimeError(
                f"segment sum formula disagrees with direct summation "
                f"at cube segment m={m}: {_sum_d(m)} != {direct}")
        running += direct
        if _cum_d_max(m) != running:
            raise RuntimeError(
                f"cumulative formula disagrees at cube segment m={m}: "
                f"{_cum_d_max(m)} != {running}")
    _validated = True


def sum_b_gamma(j: int, m: int) -> int:
    """Total square-end count over one square segment."""
    if j not in (1, 2, 3):
        raise ValueError("square segments come in kinds 1, 2, 3")
    if m < 4:
        raise ValueError("square segments start at order 4")
    _ensure_validated()
    return _sum_b(j, m)


def phi(m: int) -> int:
    """Total square-end count over the three order-m segments combined."""
    if m < 4:
        raise ValueError("square segments start at order 4")
    _ensure_validated()
    return _phi(m)


def b_cum_at_gamma_max(j: int, m: int) -> int:
    """Cumulative repeated-square count at the right endpoint of a square
    segment."""
    if j not in (1, 2, 3):
        raise ValueError("square segments come in kinds 1, 2, 3")
    if m < 4:
        raise ValueError("square segments start at order 4")
    _ensure_validated()
    return _cum_b_max(j, m)


def sum_d_gamma(m: int) -> int:
    """Total cube-end count over one cube segment."""
    if m < 7:
        raise ValueError("cube segments start at order 7")
    _ensure_validated()
    return _sum_d(m)


def d_cum_at_gamma_max(m: int) -> int:
    """Cumulative repeated-cube count at the right endpoint of a cube
    segment."""
    if m < 7:
        raise ValueError("cube segments start at order 7")
    _ensure_validated()
    return _cum_d_max(m)


# ---------------------------------------------------------------------------
# single-point counts


def b_at(n: int) -> int:
    """Number of square occurrences ending exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1 or n > N_CAP:
        raise ValueError(f"position {n} outside [1, {N_CAP}]")
    extra = 0
    while n > BASE_B_MAX:
        j, m = _locate_square(n)
        g = square_gamma(j, m)
        if j == 3:
            extra += 1 if n < g.eta else 0
        else:
            extra += 1 if n >= g.eta else 0
        n -= _t(m - 1)
    return _B_SMALL[n] + extra


def d_at(n: int) -> int:
    """Number of cube occurrences ending exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1 or n > N_CAP:
        raise ValueError(f"position {n} outside [1, {N_CAP}]")
    extra = 0
    while n > BASE_D_MAX:
        m = _locate_cube(n)
        g = cube_gamma(m)
        if g.eta1 <= n < g.eta2:
            extra += 1
        n -= _t(m - 1)
    return _D_SMALL[n] + extra


# ---------------------------------------------------------------------------
# cumulative counts


def _sum_square_from_seg_min(j: int, m: int, n: int) -> int:
    """Sum of per-position square counts from the segment's first position
    through n, with n inside segment (j, m)."""
    g = square_gamma(j, m)
    assert g.lo <= n <= g.hi, (j, m, n)
    if g.hi <= BASE_B_MAX:
        return _B_CUM[n] - _B_CUM[g.lo - 1]
    cm = m - j
    shifted = n - _t(m - 1)
    if j == 3:
        inc = min(n, g.eta - 1) - g.lo + 1
    else:
        inc = max(0, n - g.eta + 1)
    if n < g.cut1:
        part = _sum_square_from_seg_min(3, cm, shifted)
    elif n < g.cut2:
        part = _sum_square_from_seg_min(2, cm, shifted) + _sum_b(3, cm)
    else:
        part = (_sum_square_from_seg_min(1, cm, shifted)
                + _sum_b(3, cm) + _sum_b(2, cm))
    return part + inc


def _sum_cube_from_seg_min(m: int, n: int) -> int:
    """Cube counterpart of ``_sum_square_from_seg_min``."""
    g = cube_gamma(m)
    assert g.lo <= n <= g.hi, (m, n)
    if g.hi <= BASE_D_MAX:
        return _D_CUM[n] - _D_CUM[g.lo - 1]
    shifted = n - _t(m - 1)
    inc = max(0, min(n, g.eta2 - 1) - g.eta1 + 1)
    if n < g.cut1:
        part = _sum_cube_from_seg_min(m - 3, shifted)
    elif n < g.cut2:
        part = _sum_cube_from_seg_min(m - 2, shifted) + _sum_d(m - 3)
    else:
        part = (_sum_cube_from_seg_min(m - 1, shifted)
                + _sum_d(m - 3) + _sum_d(m - 2))
    return part + inc


def algorithm_B(n: int) -> int:
    """Number of repeated squares in the length-n prefix, O(log n)."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= BASE_B_MAX:
        return _B_CUM[n]
    _ensure_validated()
    j, m = _locate_square(n)
    if j == 3:
        prev = (1, m - 1)
    elif j == 2:
        prev = (3, m)
    else:
        prev = (2, m)
    return _cum_b_max(*prev) + _sum_square_from_seg_min(j, m, n)


def algorithm_D(n: int) -> int:
    """Number of repeated cubes in the length-n prefix, O(log n)."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= BASE_D_MAX:
        return _D_CUM[n]
    _ensure_validated()
    m = _locate_cube(n)
    return _cum_d_max(m - 1) + _sum_cube_from_seg_min(m, n)


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
