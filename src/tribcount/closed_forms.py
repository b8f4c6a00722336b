"""Closed-form counting of distinct squares and cubes in prefixes.

``distinct_squares``/``distinct_cubes`` evaluate piecewise formulas keyed on
which boundary interval the prefix length falls in; the indicator functions
tell whether a new distinct repetition ends at a given position.  The
``*_at_t`` variants are the specialized values at prefix lengths equal to
block lengths, including the repeated-square/cube counts there.

All arithmetic is exact: fractional coefficients are cleared to a common
denominator and divided once with a remainder check.
"""

from __future__ import annotations

from .core_word import (
    N_CAP,
    Record,
    _as_int,
    exact_div,
    kernel_number,
    trib_number as _t,
)


class SquareBoundaries(Record):
    """Breakpoints of the distinct-square count between consecutive
    doubled block lengths."""
    __slots__ = ("m", "alpha", "beta", "gamma", "theta")

    def __init__(self, m: int, alpha: int, beta: int, gamma: int, theta: int):
        self.m = m
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.theta = theta


def square_boundaries(m: int) -> SquareBoundaries:
    if m < 4:
        raise ValueError("square boundaries need order >= 4")
    alpha = 2 * _t(m - 1)
    beta = _t(m) + 2 * _t(m - 3) - 1
    gamma = 2 * _t(m) - _t(m - 1)
    theta = exact_div(3 * _t(m) + _t(m - 2) - 3, 2)
    if not alpha < beta < gamma < theta < 2 * _t(m):
        raise AssertionError(f"square boundary ordering broken at m={m}")
    return SquareBoundaries(m, alpha, beta, gamma, theta)


class CubeBoundaries(Record):
    """First and last position at which a new distinct cube of the m-th
    generation ends."""
    __slots__ = ("m", "alpha", "beta")

    def __init__(self, m: int, alpha: int, beta: int):
        self.m = m
        self.alpha = alpha
        self.beta = beta


def cube_boundaries(m: int) -> CubeBoundaries:
    if m < 7:
        raise ValueError("cube boundaries need order >= 7")
    alpha = _t(m - 1) + 2 * _t(m - 4)
    beta = exact_div(3 * _t(m - 1) - _t(m - 3) - 3, 2)
    if not alpha <= beta < _t(m) + 2 * _t(m - 3):
        raise AssertionError(f"cube boundary ordering broken at m={m}")
    return CubeBoundaries(m, alpha, beta)


def _square_order(n: int) -> int:
    """The m with 2*t_{m-1} <= n < 2*t_m, for n >= 14 (then m >= 4)."""
    m = 4
    while 2 * _t(m) <= n:
        m += 1
    return m


def distinct_squares(n: int) -> int:
    """Number of distinct squares in the length-n prefix."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= 7:
        return 0
    if n <= 9:
        return 1
    if n <= 13:
        return 2
    m = _square_order(n)
    bd = square_boundaries(m)
    if n < bd.beta:
        return n - exact_div(_t(m) + _t(m - 3) + m + 3, 2)
    if n < bd.gamma:
        return exact_div(_t(m - 1) + _t(m - 2) + 4 * _t(m - 3) - m - 5, 2)
    if n < bd.theta:
        return n - exact_div(_t(m - 1) + 3 * _t(m - 2) + m + 3, 2)
    return exact_div(2 * _t(m - 1) + _t(m - 2) + 3 * _t(m - 3) - m - 6, 2)


def a_indicator(n: int) -> int:
    """1 iff a square not seen before ends exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1:
        raise ValueError("positions start at 1")
    if n < 14:
        return 1 if n in (8, 10) else 0
    m = _square_order(n)
    bd = square_boundaries(m)
    if bd.alpha <= n <= bd.beta or bd.gamma <= n <= bd.theta:
        return 1
    return 0


def distinct_squares_at_t(m: int) -> int:
    """Distinct squares in the prefix of length t_m."""
    if m < 0:
        raise ValueError("block order must be >= 0")
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
    if m < 3:
        raise ValueError("defined for order >= 3")
    h = m - 1
    total = sum(_glen_d(i) + 1 for i in range(0, h - 1))
    return total + _glen_d(h - 4) + _glen_d(h - 5) + 1


def _cube_order(n: int) -> int:
    """The m with t_{m-1} + 2 t_{m-4} <= n < t_m + 2 t_{m-3}, n >= 58."""
    m = 7
    while _t(m) + 2 * _t(m - 3) <= n:
        m += 1
    return m


def distinct_cubes(n: int) -> int:
    """Number of distinct cubes in the length-n prefix."""
    n = n if type(n) is int else _as_int(n)
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    if n <= 57:
        return 0
    m = _cube_order(n)
    if n <= exact_div(3 * _t(m - 1) - _t(m - 3) - 3, 2):
        return n - exact_div(4 * _t(m - 1) - _t(m - 2) - 3 * _t(m - 3) + m - 6, 2)
    return exact_div(_t(m - 5) + _t(m - 6) - m + 3, 2)


def c_indicator(n: int) -> int:
    """1 iff a cube not seen before ends exactly at position n."""
    n = n if type(n) is int else _as_int(n)
    if n < 1:
        raise ValueError("positions start at 1")
    if n <= 57:
        return 0
    m = _cube_order(n)
    return 1 if n <= _t(m - 1) + kernel_number(m + 1) - 2 else 0


def distinct_cubes_at_t(m: int) -> int:
    """Distinct cubes in the prefix of length t_m."""
    if m < 0:
        raise ValueError("block order must be >= 0")
    if m <= 6:
        return 0
    return exact_div(_t(m - 5) + _t(m - 6) - m + 3, 2)


def repeated_squares_at_t(m: int) -> int:
    """Repeated-square count (all occurrences) at prefix length t_m."""
    if m < 3:
        raise ValueError("defined for order >= 3")
    t0, t1, t2 = _t(m), _t(m - 1), _t(m - 2)
    num = (2 * m * (9 * t0 - t1 - 5 * t2)
           + (-81 * t0 + 26 * t1 + 13 * t2)
           + 44 * m + 11)
    return exact_div(num, 44)


def repeated_cubes_at_t(m: int) -> int:
    """Repeated-cube count at prefix length t_m, with the residue-class
    correction terms."""
    if m < 3:
        raise ValueError("defined for order >= 3")
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
