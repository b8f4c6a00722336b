"""Counting of distinct squares and cubes in prefixes.

``distinct_squares``/``distinct_cubes`` are running sums over the intervals
at which a square or cube not seen before ends, ``core_word``'s tables.  At
import each table becomes three int columns, the interval starts, the
interval ends and the running count at each end, so a count is one
``bisect`` over the starts, two reads and at most one subtraction.  The
indicator functions, whether a new repetition ends at a given position,
read the same columns, and ``square_ends``/``cube_ends`` stream the
positions where they are 1.  The ``*_at_t`` variants are closed forms at
prefix lengths equal to block lengths, including the repeated-square/cube
counts there; they read no interval table.  Glen's cumulative-sum route
to ``distinct_squares_at_t`` is a test check (``tests/paper_checks.py``).

All arithmetic is exact: fractional coefficients are cleared to a common
denominator and divided once with a remainder check.
"""

from bisect import bisect_right
from itertools import accumulate, chain

from .core_word import (
    _CUBE_FIRSTS,
    _SQUARE_FIRSTS,
    MAX_ORDER,
    N_CAP,
    _arg,
    exact_div,
    trib_number as _t,
)


def _running(firsts):
    """Three int columns of the intervals ``firsts`` at which a new square
    or cube ends, led by an empty interval (0, -1) so that every n >= 0 has
    one starting at or before it: the starts, for ``bisect``, the ends, and
    the count of positions in the intervals up to each end."""
    firsts = ((0, -1),) + firsts
    return (tuple(x for x, _ in firsts), tuple(y for _, y in firsts),
            tuple(accumulate(y - x + 1 for x, y in firsts)))


_SQUARE_STARTS, _SQUARE_ENDS, _SQUARE_COUNTS = _running(_SQUARE_FIRSTS)
_CUBE_STARTS, _CUBE_ENDS, _CUBE_COUNTS = _running(_CUBE_FIRSTS)


def distinct_squares(n: int) -> int:
    """Number of distinct squares in the length-n prefix: the number of
    positions e <= n at which a new square ends, summed over the
    intervals."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    # the last interval starting at or before n, less its positions past n
    i = bisect_right(_SQUARE_STARTS, n) - 1
    over = _SQUARE_ENDS[i] - n
    return _SQUARE_COUNTS[i] - over if over > 0 else _SQUARE_COUNTS[i]


def a_indicator(n: int) -> int:
    """1 iff a square not seen before ends exactly at position n."""
    n = _arg(n, 1, N_CAP, "position")
    # the last interval starting at or before n holds n, or none does
    return 1 if n <= _SQUARE_ENDS[bisect_right(_SQUARE_STARTS, n) - 1] else 0


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


def distinct_cubes(n: int) -> int:
    """Number of distinct cubes in the length-n prefix (see
    ``distinct_squares``)."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    i = bisect_right(_CUBE_STARTS, n) - 1
    over = _CUBE_ENDS[i] - n
    return _CUBE_COUNTS[i] - over if over > 0 else _CUBE_COUNTS[i]


def c_indicator(n: int) -> int:
    """1 iff a cube not seen before ends exactly at position n."""
    n = _arg(n, 1, N_CAP, "position")
    # see ``a_indicator``
    return 1 if n <= _CUBE_ENDS[bisect_right(_CUBE_STARTS, n) - 1] else 0


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
