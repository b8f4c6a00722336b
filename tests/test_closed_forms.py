from bisect import bisect_right

import pytest

from tribcount import closed_forms as cf
from tribcount import fast_count as fc
from tribcount import oracle
from tribcount.core_word import trib_number as t


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


def test_square_boundary_ordering():
    for m in range(4, 41):
        bd = cf.square_boundaries(m)
        nxt = cf.square_boundaries(m + 1)
        assert bd.alpha < bd.beta < bd.gamma < bd.theta < nxt.alpha


def test_square_piecewise_continuity():
    for m in range(4, 41):
        bd = cf.square_boundaries(m)
        nxt = cf.square_boundaries(m + 1)
        A = cf.distinct_squares
        assert A(bd.beta) == A(bd.alpha) + bd.beta - bd.alpha
        assert A(bd.gamma - 1) == A(bd.beta)
        assert A(bd.gamma) == A(bd.beta) + 1
        assert A(bd.theta) == A(bd.gamma) + bd.theta - bd.gamma
        assert A(nxt.alpha - 1) == A(bd.theta)
        assert A(nxt.alpha) == A(bd.theta) + 1


def test_distinct_squares_at_t():
    assert cf.distinct_squares_at_t(0) == 0
    assert cf.distinct_squares_at_t(2) == 0
    assert cf.distinct_squares_at_t(5) == 7
    assert cf.distinct_squares_at_t(5) == cf.distinct_squares(24)


def test_glen_equivalence():
    for m in range(3, 31):
        assert cf.glen_distinct_squares_at_t(m) == cf.distinct_squares_at_t(m)
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
    assert cf.cube_boundaries(7).beta == 58


def test_c_indicator_partial_sums():
    acc = 0
    for n in range(1, 701):
        acc += cf.c_indicator(n)
        assert acc == cf.distinct_cubes(n)


def test_cube_boundary_ordering():
    for m in range(7, 41):
        bd = cf.cube_boundaries(m)
        nxt = cf.cube_boundaries(m + 1)
        assert bd.alpha <= bd.beta < nxt.alpha


def test_cube_piecewise_continuity():
    for m in range(7, 41):
        bd = cf.cube_boundaries(m)
        nxt = cf.cube_boundaries(m + 1)
        C = cf.distinct_cubes
        assert C(bd.beta) == C(bd.alpha) + bd.beta - bd.alpha
        assert C(nxt.alpha - 1) == C(bd.beta)
        assert C(nxt.alpha) == C(bd.beta) + 1


def test_distinct_cubes_at_t():
    assert cf.distinct_cubes_at_t(6) == 0
    assert cf.distinct_cubes_at_t(7) == 1
    assert cf.distinct_cubes_at_t(7) == cf.distinct_cubes(81)
    assert cf.distinct_cubes_at_t(10) == cf.distinct_cubes(504)


def test_repeated_squares_at_t():
    assert cf.repeated_squares_at_t(5) == 9
    for m in range(3, 26):
        assert cf.repeated_squares_at_t(m) == fc.algorithm_B(t(m))


def test_repeated_cubes_at_t():
    assert cf.repeated_cubes_at_t(8) == 4
    for m in range(3, 26):
        assert cf.repeated_cubes_at_t(m) == fc.algorithm_D(t(m))


def test_all_divisions_exact_to_60():
    # any inexact division raises, so evaluating is the assertion
    for m in range(3, 61):
        cf.distinct_squares_at_t(m)
        cf.glen_distinct_squares_at_t(m)
        cf.repeated_squares_at_t(m)
        cf.repeated_cubes_at_t(m)
    for m in range(4, 61):
        cf.square_boundaries(m)
    for m in range(7, 61):
        cf.cube_boundaries(m)
        cf.distinct_cubes_at_t(m)


def test_oracle_agreement(scan3000):
    acc_a = acc_c = 0
    for n in range(1, 3001):
        acc_a += scan3000.a[n]
        acc_c += scan3000.c[n]
        assert cf.distinct_squares(n) == acc_a
        assert cf.distinct_cubes(n) == acc_c


def test_ends_match_oracle():
    top = 100_000
    scan = oracle.scan_repetitions(top)
    a = [e for e in range(1, top + 1) if scan.a[e]]
    c = [e for e in range(1, top + 1) if scan.c[e]]
    # around the breakpoints of every order that starts below 10^5
    points = {0, 7, 8, 13, 14, 57, 58}
    m = 4
    while (bd := cf.square_boundaries(m)).alpha <= top:
        points |= {bd.alpha - 1, bd.alpha, bd.beta, bd.beta + 1,
                   bd.gamma - 1, bd.gamma, bd.theta, bd.theta + 1}
        m += 1
    m = 7
    while (bd := cf.cube_boundaries(m)).alpha <= top:
        points |= {bd.alpha - 1, bd.alpha, bd.beta, bd.beta + 1}
        m += 1
    for n in sorted(p for p in points if p <= top):
        assert list(cf.square_ends(n)) == a[:bisect_right(a, n)], n
        assert list(cf.cube_ends(n)) == c[:bisect_right(c, n)], n
