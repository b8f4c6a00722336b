"""Identities that tie the counters to each other across the whole range
[1, 10^18]: each cumulative count against its per-position increment, the
repeated counts at block lengths and at every segment's ends against their
closed forms, and a dense sweep of running sums at small n."""

from hypothesis import given, settings, strategies as st

from tribcount import closed_forms as cf
from tribcount import fast_count as fc
from tribcount.core_word import N_CAP, trib_number as t

from invariant_checks import check_closed_forms, square_index

# cumulative count and its per-position increment
PAIRS = [(cf.distinct_squares, cf.a_indicator),
         (fc.algorithm_B, fc.b_at),
         (cf.distinct_cubes, cf.c_indicator),
         (fc.algorithm_D, fc.d_at)]


SQUARES = fc._square_segments()
CUBES = fc._cube_segments()
# every order up to the one whose segments reach N_CAP, where the tables stop
SQUARE_ORDERS = range(4, 4 + len(SQUARES.rows) // 3)
CUBE_ORDERS = range(7, 7 + len(CUBES.rows))


def _check_increments(n):
    for cum, inc in PAIRS:
        assert cum(n) - cum(n - 1) == inc(n), (cum.__name__, n)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.integers(min_value=1, max_value=N_CAP))
def test_increments_over_full_range(n):
    _check_increments(n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([(j, m) for m in SQUARE_ORDERS for j in (3, 2, 1)]),
       st.sampled_from(CUBE_ORDERS), st.integers(min_value=-2, max_value=2))
def test_increments_at_segment_breakpoints(square, cube, offset):
    # the places where a descent changes child or starts counting unit
    # increments, and their neighbours
    square_row = SQUARES.rows[square_index(*square)]
    cube_row = CUBES.rows[cube - 7]
    for lo, hi, cut1, cut2, _, _, inc_lo, inc_hi in (square_row, cube_row):
        for point in (lo, cut1, cut2, inc_lo, inc_hi + 1, hi):
            n = point + offset
            if 1 <= n <= N_CAP:
                _check_increments(n)


def test_repeated_counts_at_block_lengths():
    m = 3
    while t(m) <= N_CAP:
        assert fc.algorithm_B(t(m)) == cf.repeated_squares_at_t(m), m
        assert fc.algorithm_D(t(m)) == cf.repeated_cubes_at_t(m), m
        m += 1
    assert m > 60


def test_cumulative_counts_at_every_segment_end():
    # the closed forms of every segment, past N_CAP too, against the totals
    # and cumulative counts the tables derive from the floor and the copy
    check_closed_forms(SQUARES, "square")
    check_closed_forms(CUBES, "cube")


def test_dense_running_sums():
    # every n up to ten times the oracle sweep: each cumulative count equals
    # the running sum of its increments
    totals = [0, 0, 0, 0]
    for n in range(1, 30_001):
        for i, (cum, inc) in enumerate(PAIRS):
            totals[i] += inc(n)
            assert cum(n) == totals[i], (cum.__name__, n)
