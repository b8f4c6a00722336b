"""Closed-form counting of distinct squares and cubes in prefixes.

``distinct_squares``/``distinct_cubes`` evaluate piecewise formulas keyed on
which boundary interval the prefix length falls in; the indicator functions
tell whether a new distinct repetition ends at a given position, and
``square_ends``/``cube_ends`` stream the positions where they are 1.  The
breakpoints of every order are tabulated, and checked, on first use, so an
evaluation is one ``bisect`` for the order, a few comparisons and one
closed form read off the block lengths.  The ``*_at_t`` variants are the
specialized values at prefix lengths equal to block lengths, including the
repeated-square/cube counts there.

All arithmetic is exact: fractional coefficients are cleared to a common
denominator and divided once with a remainder check.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

from .core_word import (
    _K,
    _OFF,
    _T,
    MAX_ORDER,
    N_CAP,
    _arg,
    exact_div,
    trib_number as _t,
)


_SQUARE_TABLE = None  # (ends, bounds), once built


def _square_table():
    """Build, on first use, the per-order table of the distinct-square
    count for every order m >= 4 up to the one holding N_CAP: ``ends``, the
    right ends 2 t_m of the prefix-length ranges [2 t_{m-1}, 2 t_m), for
    ``bisect``, and ``bounds``, the breakpoints (beta, gamma, theta) of the
    count on each range.  Every order's breakpoints are checked for
    ordering.  Callers reach the table as
    ``_SQUARE_TABLE or _square_table()``."""
    global _SQUARE_TABLE
    ends, bounds, m = [], [], 3
    while not ends or ends[-1] <= N_CAP:  # every order up to the cap
        m += 1
        o = m + _OFF  # t_i is _T[i + _OFF]
        t0, t1, t2, t3 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3]
        beta = t0 + 2 * t3 - 1
        gamma = 2 * t0 - t1
        theta = exact_div(3 * t0 + t2 - 3, 2)
        if not 2 * t1 < beta < gamma < theta < 2 * t0:
            raise AssertionError(f"square boundary ordering broken at m={m}")
        ends.append(2 * t0)
        bounds.append((beta, gamma, theta))
    _SQUARE_TABLE = tuple(ends), tuple(bounds)
    return _SQUARE_TABLE


# the positions below 14 = 2 t_3, where order 4 starts, at which a new
# square ends
_FIRST_SQUARE_ENDS = (8, 10)


def distinct_squares(n: int) -> int:
    """Number of distinct squares in the length-n prefix."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    if n < 14:
        return bisect_right(_FIRST_SQUARE_ENDS, n)
    ends, bounds = _SQUARE_TABLE or _square_table()
    i = bisect_right(ends, n)
    beta, gamma, theta = bounds[i]
    m = 4 + i
    o = m + _OFF
    t1, t2, t3 = _T[o - 1], _T[o - 2], _T[o - 3]
    if n < beta:
        return n - exact_div(_T[o] + t3 + m + 3, 2)
    if n < gamma:
        return exact_div(t1 + t2 + 4 * t3 - m - 5, 2)
    if n < theta:
        return n - exact_div(t1 + 3 * t2 + m + 3, 2)
    return exact_div(2 * t1 + t2 + 3 * t3 - m - 6, 2)


def a_indicator(n: int) -> int:
    """1 iff a square not seen before ends exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    if n < 14:
        return 1 if n in _FIRST_SQUARE_ENDS else 0
    # n >= alpha = 2 t_{m-1} holds on the whole range of order m
    ends, bounds = _SQUARE_TABLE or _square_table()
    beta, gamma, theta = bounds[bisect_right(ends, n)]
    return 1 if n <= beta or gamma <= n <= theta else 0


def square_ends(n: int):
    """The positions e <= n with ``a_indicator(e) == 1``, ascending, streamed
    from the breakpoints: [alpha, beta] and [gamma, theta] of each order."""
    n = _arg(n, 0, N_CAP, "prefix length")
    ends, bounds = _SQUARE_TABLE or _square_table()
    # order 4 + i covers [alpha, 2 t_{4+i}) with alpha = 2 t_{3+i}, the end
    # of the order below (14 for order 4); the orders above n's start past n
    orders = zip((14,) + ends, bounds[:bisect_right(ends, n) + 1])
    return chain((e for e in _FIRST_SQUARE_ENDS if e <= n),
                 chain.from_iterable(
                     range(start, min(stop, n) + 1)
                     for alpha, (beta, gamma, theta) in orders
                     for start, stop in ((alpha, beta), (gamma, theta))))


def distinct_squares_at_t(m: int) -> int:
    """Distinct squares in the prefix of length t_m."""
    m = _arg(m, 0, MAX_ORDER, "block order")
    if m <= 2:
        return 0
    return exact_div(2 * _t(m - 2) + _t(m - 3) + 3 * _t(m - 4) - m - 5, 2)


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


_CUBE_TABLE = None  # (ends, betas), once built


def _cube_table():
    """The cube counterpart of ``_square_table``, for orders m >= 7: the
    ranges are [t_{m-1} + 2 t_{m-4}, t_m + 2 t_{m-3}) and the breakpoint
    beta of each is the last position at which a new cube of the order
    ends.  Every order's breakpoints are checked for ordering, and beta
    against t_{m-1} + k_{m+1} - 2."""
    global _CUBE_TABLE
    ends, betas, m = [], [], 6
    while not ends or ends[-1] <= N_CAP:
        m += 1
        o = m + _OFF
        t0, t1, t2, t3, t4 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3], _T[o - 4]
        beta = exact_div(3 * t1 - t3 - 3, 2)
        if not t1 + 2 * t4 <= beta < t0 + 2 * t3:
            raise AssertionError(f"cube boundary ordering broken at m={m}")
        if beta != t1 + _K[m + 1] - 2:
            raise AssertionError(f"last new cube misplaced at m={m}")
        ends.append(t0 + 2 * t3)
        betas.append(beta)
    _CUBE_TABLE = tuple(ends), tuple(betas)
    return _CUBE_TABLE


def distinct_cubes(n: int) -> int:
    """Number of distinct cubes in the length-n prefix."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    if n <= 57:
        return 0
    ends, betas = _CUBE_TABLE or _cube_table()
    i = bisect_right(ends, n)
    m = 7 + i
    o = m + _OFF
    if n <= betas[i]:
        t1, t2, t3 = _T[o - 1], _T[o - 2], _T[o - 3]
        return n - exact_div(4 * t1 - t2 - 3 * t3 + m - 6, 2)
    return exact_div(_T[o - 5] + _T[o - 6] - m + 3, 2)


def c_indicator(n: int) -> int:
    """1 iff a cube not seen before ends exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    if n <= 57:
        return 0
    ends, betas = _CUBE_TABLE or _cube_table()
    return 1 if n <= betas[bisect_right(ends, n)] else 0


def cube_ends(n: int):
    """The positions e <= n with ``c_indicator(e) == 1``, ascending, streamed
    from the breakpoints: [alpha, beta] of each order."""
    n = _arg(n, 0, N_CAP, "prefix length")
    ends, betas = _CUBE_TABLE or _cube_table()
    # order 7 + i covers [alpha, t_{7+i} + 2 t_{4+i}) with alpha the end of
    # the order below (58 for order 7); the orders above n's start past n
    orders = zip((58,) + ends, betas[:bisect_right(ends, n) + 1])
    return chain.from_iterable(range(alpha, min(beta, n) + 1)
                               for alpha, beta in orders)


def distinct_cubes_at_t(m: int) -> int:
    """Distinct cubes in the prefix of length t_m."""
    m = _arg(m, 0, MAX_ORDER, "block order")
    if m <= 6:
        return 0
    return exact_div(_t(m - 5) + _t(m - 6) - m + 3, 2)


def repeated_squares_at_t(m: int) -> int:
    """Repeated-square count (all occurrences) at prefix length t_m."""
    m = _arg(m, 3, MAX_ORDER, "block order")
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (2 * m * (9 * t0 - t1 - 5 * t2)
           + (-81 * t0 + 26 * t1 + 13 * t2)
           + 44 * m + 11)
    return exact_div(num, 44)


def repeated_cubes_at_t(m: int) -> int:
    """Repeated-cube count at prefix length t_m, with the residue-class
    correction terms."""
    m = _arg(m, 3, MAX_ORDER, "block order")
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    if m % 3 == 0:
        corr = -33
    elif m % 3 == 1:
        corr = 11
    else:
        corr = 55
    num = (6 * m * (-6 * t0 + 8 * t1 + 7 * t2)
           + 3 * (-23 * t0 + 34 * t1 - 5 * t2)
           + 22 * m + corr)
    return exact_div(num, 132)
