from bisect import bisect_right

import pytest

from tribcount import closed_forms as cf
from tribcount import core_word as cw
from tribcount import fast_count as fc
from tribcount import oracle
from tribcount.core_word import N_CAP, exact_div, trib_number as t

from invariant_checks import square_bounds
from paper_checks import glen_distinct_squares_at_t


def test_distinct_squares_small():
    for n in range(0, 8):
        assert cf.distinct_squares(n) == 0
    assert cf.distinct_squares(8) == 1
    assert cf.distinct_squares(9) == 1
    for n in range(10, 14):
        assert cf.distinct_squares(n) == 2


def test_distinct_squares_values():
    assert cf.distinct_squares(65) == 29
    assert cf.distinct_squares(24) == 7
    assert cf.distinct_squares(14) == 3


def test_distinct_squares_range():
    with pytest.raises(ValueError):
        cf.distinct_squares(-1)
    with pytest.raises(ValueError):
        cf.distinct_squares(10**18 + 1)


def test_a_indicator_values():
    assert cf.a_indicator(8) == 1
    assert cf.a_indicator(9) == 0
    assert cf.a_indicator(10) == 1
    assert [n for n in range(1, 14) if cf.a_indicator(n)] == [8, 10]


def test_a_indicator_partial_sums():
    acc = 0
    for n in range(1, 3001):
        acc += cf.a_indicator(n)
        assert acc == cf.distinct_squares(n)


def test_distinct_squares_increments():
    prev = cf.distinct_squares(1)
    for n in range(2, 3001):
        cur = cf.distinct_squares(n)
        step = cur - prev
        assert step in (0, 1)
        assert step == cf.a_indicator(n)
        prev = cur


# the breakpoints of order m are read from the intervals the counters sum:
# alpha = 2 t_{m-1} for squares and t_{m-1} + 2 t_{m-4} for cubes, the
# others at index m - 4 (``square_bounds``) or m - 7 (``_CUBE_FIRSTS``).
# The tests run over every order of the tables, leaving out the evaluation
# points past N_CAP.


def _steps_hold(count, steps):
    """count(y) - count(x) == step for every (x, y, step) with y <= N_CAP
    (and x < y)."""
    for x, y, step in steps:
        if y <= N_CAP:
            assert count(y) - count(x) == step, (x, y)


def test_square_boundary_ordering():
    assert len(square_bounds()) == 68 - 4 + 1
    for m, (beta, gamma, theta) in enumerate(square_bounds(), 4):
        assert 2 * t(m - 1) < beta < gamma < theta < 2 * t(m)


def test_square_piecewise_continuity():
    for m, (beta, gamma, theta) in enumerate(square_bounds(), 4):
        alpha, nxt = 2 * t(m - 1), 2 * t(m)
        _steps_hold(cf.distinct_squares, [
            (alpha, beta, beta - alpha), (beta, gamma - 1, 0),
            (beta, gamma, 1), (gamma, theta, theta - gamma),
            (theta, nxt - 1, 0), (theta, nxt, 1)])


def test_distinct_squares_at_t():
    assert cf.distinct_squares_at_t(0) == 0
    assert cf.distinct_squares_at_t(2) == 0
    assert cf.distinct_squares_at_t(5) == 7
    assert cf.distinct_squares_at_t(5) == cf.distinct_squares(24)


def test_glen_equivalence():
    # every block length up to N_CAP: t_67 is the last
    for m in range(3, 68):
        assert glen_distinct_squares_at_t(m) == cf.distinct_squares_at_t(m)
        assert cf.distinct_squares_at_t(m) == cf.distinct_squares(t(m))


def test_distinct_cubes_small():
    for n in range(0, 58):
        assert cf.distinct_cubes(n) == 0
    assert cf.distinct_cubes(58) == 1


def test_distinct_cubes_values():
    assert cf.distinct_cubes(365) == 11
    assert cf.distinct_cubes(504) == 15


def test_c_indicator_values():
    assert cf.c_indicator(58) == 1
    assert cf.c_indicator(59) == 0
    assert cw._CUBE_FIRSTS[7 - 7] == (58, 58)


def test_c_indicator_partial_sums():
    acc = 0
    for n in range(1, 701):
        acc += cf.c_indicator(n)
        assert acc == cf.distinct_cubes(n)


def test_cube_boundary_ordering():
    assert len(cw._CUBE_FIRSTS) == 68 - 7 + 1
    for m, (alpha, beta) in enumerate(cw._CUBE_FIRSTS, 7):
        assert alpha == t(m - 1) + 2 * t(m - 4)
        assert alpha <= beta < t(m) + 2 * t(m - 3)


def test_cube_breakpoint_at_the_end_of_its_range(monkeypatch):
    # with t_7 = 32 in place of 81, beta = (3 t_6 - t_4 - 3) / 2 = 58 meets
    # the end t_7 + 2 t_4 = 58 of its range.  It also equals the range's
    # start t_6 + 2 t_3 and t_6 + k_8 - 2, so only ``beta < end`` rejects it
    table = list(cw._T)
    table[7 + cw._OFF] = 32
    monkeypatch.setattr(cw, "_T", tuple(table))
    with pytest.raises(AssertionError,
                       match=r"cube boundary ordering broken at m=7$"):
        cw._cube_breakpoints()


def test_cube_piecewise_continuity():
    for m, (_, beta) in enumerate(cw._CUBE_FIRSTS, 7):
        alpha, nxt = t(m - 1) + 2 * t(m - 4), t(m) + 2 * t(m - 3)
        _steps_hold(cf.distinct_cubes, [
            (alpha, beta, beta - alpha), (beta, nxt - 1, 0), (beta, nxt, 1)])


def _squares_by_formula(m, n):
    """The distinct-square count at n in the range of order m, evaluated
    from the block lengths by the paper's piecewise formula."""
    beta, gamma, theta = square_bounds()[m - 4]
    t0, t1, t2, t3 = t(m), t(m - 1), t(m - 2), t(m - 3)
    if n < beta:
        return n - exact_div(t0 + t3 + m + 3, 2)
    if n < gamma:
        return exact_div(t1 + t2 + 4 * t3 - m - 5, 2)
    if n < theta:
        return n - exact_div(t1 + 3 * t2 + m + 3, 2)
    return exact_div(2 * t1 + t2 + 3 * t3 - m - 6, 2)


def _cubes_by_formula(m, n):
    """The distinct-cube count at n in the range of order m (see
    ``_squares_by_formula``)."""
    t1, t2, t3 = t(m - 1), t(m - 2), t(m - 3)
    if n <= cw._CUBE_FIRSTS[m - 7][1]:
        return n - exact_div(4 * t1 - t2 - 3 * t3 + m - 6, 2)
    return exact_div(t(m - 5) + t(m - 6) - m + 3, 2)


def test_running_counts_equal_the_formulas_to_the_cap():
    # the running sums over the intervals against the paper's piecewise
    # formulas, at every breakpoint +-1 of every order up to N_CAP, beyond
    # the oracle's reach; a point past a range is taken by the next order
    orders = 0
    for m, (beta, gamma, theta) in enumerate(square_bounds(), 4):
        alpha, nxt = 2 * t(m - 1), 2 * t(m)
        orders += alpha <= N_CAP
        for point in (alpha, beta, gamma, theta, nxt):
            for n in (point - 1, point, point + 1):
                order = m - (n < alpha) + (n >= nxt)
                if 14 <= n <= N_CAP:
                    assert (cf.distinct_squares(n)
                            == _squares_by_formula(order, n)), n
    assert orders == 67 - 4 + 1
    orders = 0
    for m, (alpha, beta) in enumerate(cw._CUBE_FIRSTS, 7):
        end = t(m) + 2 * t(m - 3)  # the next order's range starts here
        orders += alpha <= N_CAP
        for point in (alpha, beta, end):
            for n in (point - 1, point, point + 1):
                order = m - (n < alpha) + (n >= end)
                if 58 <= n <= N_CAP:
                    assert (cf.distinct_cubes(n)
                            == _cubes_by_formula(order, n)), n
    assert orders == 68 - 7 + 1


def test_distinct_cubes_at_t():
    assert cf.distinct_cubes_at_t(6) == 0
    assert cf.distinct_cubes_at_t(7) == 1
    assert cf.distinct_cubes_at_t(7) == cf.distinct_cubes(81)
    assert cf.distinct_cubes_at_t(10) == cf.distinct_cubes(504)


def test_repeated_squares_at_t():
    assert cf.repeated_squares_at_t(5) == 9
    m = 3
    while t(m) <= N_CAP:  # every block length the counters take
        assert cf.repeated_squares_at_t(m) == fc.algorithm_B(t(m)), m
        m += 1


def test_repeated_cubes_at_t():
    assert cf.repeated_cubes_at_t(8) == 4
    m = 3
    while t(m) <= N_CAP:  # every block length the counters take
        assert cf.repeated_cubes_at_t(m) == fc.algorithm_D(t(m)), m
        m += 1


def test_all_divisions_exact_to_60():
    # any inexact division raises, so evaluating is the assertion
    for m in range(3, 61):
        cf.distinct_squares_at_t(m)
        glen_distinct_squares_at_t(m)
        cf.repeated_squares_at_t(m)
        cf.repeated_cubes_at_t(m)
    # and the breakpoint tables of every order up to the cap
    assert len(square_bounds()) >= 61 - 4
    assert len(cw._CUBE_FIRSTS) >= 61 - 7
    for m in range(7, 61):
        cf.distinct_cubes_at_t(m)


def test_oracle_agreement(scan3000):
    acc_a = acc_c = 0
    for n in range(1, 3001):
        acc_a += scan3000.a[n]
        acc_c += scan3000.c[n]
        assert cf.distinct_squares(n) == acc_a
        assert cf.distinct_cubes(n) == acc_c


def test_ends_match_oracle(scan_cap):
    top = oracle.ORACLE_CAP
    a = [e for e in range(1, top + 1) if scan_cap.a[e]]
    c = [e for e in range(1, top + 1) if scan_cap.c[e]]
    # around the breakpoints of every order that starts below 10^5
    points = {0, 7, 8, 13, 14, 57, 58}
    for m, (beta, gamma, theta) in enumerate(square_bounds(), 4):
        if (alpha := 2 * t(m - 1)) > top:
            break
        points |= {alpha - 1, alpha, beta, beta + 1,
                   gamma - 1, gamma, theta, theta + 1}
    for m, (_, beta) in enumerate(cw._CUBE_FIRSTS, 7):
        if (alpha := t(m - 1) + 2 * t(m - 4)) > top:
            break
        points |= {alpha - 1, alpha, beta, beta + 1}
    for n in sorted(p for p in points if p <= top):
        assert list(cf.square_ends(n)) == a[:bisect_right(a, n)], n
        assert list(cf.cube_ends(n)) == c[:bisect_right(c, n)], n
