"""Closed-form counting of distinct squares and cubes in prefixes.

``distinct_squares``/``distinct_cubes`` evaluate piecewise formulas keyed on
which boundary interval the prefix length falls in; the indicator functions
tell whether a new distinct repetition ends at a given position, and
``square_ends``/``cube_ends`` stream the positions where they are 1.  The
breakpoints of every order and those positions are ``core_word``'s tables.
The formulas are evaluated once per order at import, into a tuple of the
order's breakpoints and constants, so an evaluation is one ``bisect`` into
those tuples, a few comparisons and at most one subtraction.  The
``*_at_t`` variants are the specialized values at prefix lengths equal to
block lengths, including the repeated-square/cube counts there.

All arithmetic is exact: fractional coefficients are cleared to a common
denominator and divided once with a remainder check.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain

from .core_word import (
    _CUBE_FIRSTS,
    _CUBE_RANGE_ENDS,
    _OFF,
    _SQUARE_BOUNDS,
    _SQUARE_FIRSTS,
    _SQUARE_RANGE_ENDS,
    _T,
    MAX_ORDER,
    N_CAP,
    _arg,
    exact_div,
    trib_number as _t,
)


def _square_constants():
    """Per order m of ``_SQUARE_BOUNDS``, its breakpoints (beta, gamma,
    theta) and the constants c1..c4 of the count on [alpha, beta),
    [beta, gamma), [gamma, theta) and [theta, 2 t_m): n - c1, c2, n - c3
    and c4."""
    constants = []
    for m, (beta, gamma, theta) in enumerate(_SQUARE_BOUNDS, 4):
        o = m + _OFF  # t_i is _T[i + _OFF]
        t0, t1, t2, t3 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3]
        constants.append((beta, gamma, theta,
                          exact_div(t0 + t3 + m + 3, 2),
                          exact_div(t1 + t2 + 4 * t3 - m - 5, 2),
                          exact_div(t1 + 3 * t2 + m + 3, 2),
                          exact_div(2 * t1 + t2 + 3 * t3 - m - 6, 2)))
    return tuple(constants)


_SQUARE_CONSTANTS = _square_constants()


def distinct_squares(n: int) -> int:
    """Number of distinct squares in the length-n prefix."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    if n < 14:  # the intervals below order 4 are single positions
        return bisect_left(_SQUARE_FIRSTS, (n + 1,))
    beta, gamma, theta, c1, c2, c3, c4 = _SQUARE_CONSTANTS[
        bisect_right(_SQUARE_RANGE_ENDS, n)]
    if n < beta:
        return n - c1
    if n < gamma:
        return c2
    if n < theta:
        return n - c3
    return c4


def a_indicator(n: int) -> int:
    """1 iff a square not seen before ends exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    # the last interval starting at or before n, else one starting past n
    x, y = _SQUARE_FIRSTS[bisect_left(_SQUARE_FIRSTS, (n + 1,)) - 1]
    return 1 if x <= n <= y else 0


def square_ends(n: int):
    """The positions e <= n with ``a_indicator(e) == 1``, ascending, streamed
    from the intervals at which a new square ends; those that start past n
    stream nothing."""
    n = _arg(n, 0, N_CAP, "prefix length")
    return chain.from_iterable(range(x, min(y, n) + 1)
                               for x, y in _SQUARE_FIRSTS)


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


def _cube_constants():
    """Per order m of ``_CUBE_FIRSTS``, its beta and the constants c1, c2
    of the count on [alpha, beta] and (beta, t_m + 2 t_{m-3}): n - c1 and
    c2."""
    constants = []
    for m, (_, beta) in enumerate(_CUBE_FIRSTS, 7):
        o = m + _OFF
        t1, t2, t3 = _T[o - 1], _T[o - 2], _T[o - 3]
        constants.append((beta,
                          exact_div(4 * t1 - t2 - 3 * t3 + m - 6, 2),
                          exact_div(_T[o - 5] + _T[o - 6] - m + 3, 2)))
    return tuple(constants)


_CUBE_CONSTANTS = _cube_constants()


def distinct_cubes(n: int) -> int:
    """Number of distinct cubes in the length-n prefix."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    if n <= 57:
        return 0
    beta, c1, c2 = _CUBE_CONSTANTS[bisect_right(_CUBE_RANGE_ENDS, n)]
    return n - c1 if n <= beta else c2


def c_indicator(n: int) -> int:
    """1 iff a cube not seen before ends exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    x, y = _CUBE_FIRSTS[bisect_left(_CUBE_FIRSTS, (n + 1,)) - 1]
    return 1 if x <= n <= y else 0  # see ``a_indicator``


def cube_ends(n: int):
    """The positions e <= n with ``c_indicator(e) == 1``, ascending, streamed
    from the intervals at which a new cube ends (see ``square_ends``)."""
    n = _arg(n, 0, N_CAP, "prefix length")
    return chain.from_iterable(range(x, min(y, n) + 1)
                               for x, y in _CUBE_FIRSTS)


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
