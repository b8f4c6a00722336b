"""Identities that tie the counters to each other across the whole range
[1, 10^18]: each cumulative count against its per-position increment, the
repeated counts at block lengths and segment ends against their closed
forms, and a dense sweep of running sums at small n."""

from hypothesis import given, settings, strategies as st

from tribcount import closed_forms as cf
from tribcount import fast_count as fc
from tribcount.core_word import N_CAP, trib_number as t

# cumulative count and its per-position increment
PAIRS = [(cf.distinct_squares, cf.a_indicator),
         (fc.algorithm_B, fc.b_at),
         (cf.distinct_cubes, cf.c_indicator),
         (fc.algorithm_D, fc.d_at)]


def _last_order(gamma, first):
    """The order whose segment reaches N_CAP, where the tables stop."""
    m = first
    while gamma(m).hi < N_CAP:
        m += 1
    return m


SQUARE_ORDERS = range(4, _last_order(lambda m: fc.square_gamma(1, m), 4) + 1)
CUBE_ORDERS = range(7, _last_order(fc.cube_gamma, 7) + 1)


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
    g = fc.square_gamma(*square)
    c = fc.cube_gamma(cube)
    for point in (g.lo, g.cut1, g.cut2, g.eta, g.hi,
                  c.lo, c.cut1, c.cut2, c.eta1, c.eta2, c.hi):
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
    for m in SQUARE_ORDERS:
        for j in (3, 2, 1):
            hi = fc.square_gamma(j, m).hi
            if hi <= N_CAP:
                assert fc.algorithm_B(hi) == fc.b_cum_at_gamma_max(j, m), (j, m)
    for m in CUBE_ORDERS:
        hi = fc.cube_gamma(m).hi
        if hi <= N_CAP:
            assert fc.algorithm_D(hi) == fc.d_cum_at_gamma_max(m), m


def test_dense_running_sums():
    # every n up to ten times the oracle sweep: each cumulative count equals
    # the running sum of its increments
    totals = [0, 0, 0, 0]
    for n in range(1, 30_001):
        for i, (cum, inc) in enumerate(PAIRS):
            totals[i] += inc(n)
            assert cum(n) == totals[i], (cum.__name__, n)
