"""Argument types and ranges at the public boundary: every public integer
argument takes any integer (numpy integers included) through
``operator.index``, rejects bool and non-integral numbers with TypeError
and values outside its range with ValueError naming the value, and the
results hold plain ints."""

import re

import numpy as np
import pytest

from tribcount import closed_forms as cf
from tribcount import core_word as cw
from tribcount import fast_count as fc
from tribcount import oracle
from tribcount.core_word import Record

COUNTERS = [cf.distinct_squares, cf.distinct_cubes, fc.algorithm_B,
            fc.algorithm_D, fc.b_at, fc.d_at, cf.a_indicator, cf.c_indicator]
PUBLIC = COUNTERS + [cw.letter_at]
# streams of positions, checked when called, not at their first item
ENDS = [cf.square_ends, cf.cube_ends]


@pytest.mark.parametrize("fn", PUBLIC + ENDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [10.5, 5.0, 60.0, True, False, "10", None],
                         ids=repr)
def test_rejects_non_integers(fn, bad):
    with pytest.raises(TypeError):
        fn(bad)


@pytest.mark.parametrize("fn", PUBLIC, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [1, 8, 1000, 123_456_789, 4 * 10**17, 10**18])
def test_numpy_integers_match_int(fn, n):
    want = fn(n)
    for np_n in (np.int64(n), np.uint64(n)):
        got = fn(np_n)
        assert got == want
        assert type(got) is type(want)
    assert type(want) is (str if fn is cw.letter_at else int)



POSITIONAL = [fc.b_at, fc.d_at, cf.a_indicator, cf.c_indicator, cw.letter_at]


@pytest.mark.parametrize("fn", POSITIONAL, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [0, -1, 10**18 + 1, 10**19, 10**40])
def test_positions_outside_range(fn, n):
    message = rf"position {n} outside \[1, {10**18}\]"
    with pytest.raises(ValueError, match=message):
        fn(n)


@pytest.mark.parametrize("fn", COUNTERS[:4] + ENDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [-1, 10**18 + 1, 10**40])
def test_prefix_lengths_outside_range(fn, n):
    message = rf"prefix length {n} outside \[0, {10**18}\]"
    with pytest.raises(ValueError, match=message):
        fn(n)


# the position helpers: (function, good arguments); each integer argument in
# turn is replaced by a bad value or a numpy integer
HELPERS = [(cw.letter_counts, (10,)), (cw.position_letter, ("a", 2)),
           (cw.position_letter, ("c", 7)), (cw.position_kernel, (4, 2)),
           (cw.position_kernel, (9, 5))]


def _name(x):
    return getattr(x, "__name__", repr(x))


def _variants(args, value):
    return [args[:i] + (value,) + args[i + 1:]
            for i, a in enumerate(args) if type(a) is int]


@pytest.mark.parametrize("fn,args", HELPERS, ids=_name)
@pytest.mark.parametrize("bad", [10.5, 2.5, 4.0, True, "3", None], ids=repr)
def test_position_helpers_reject_non_integers(fn, args, bad):
    for call in _variants(args, bad):
        with pytest.raises(TypeError):
            fn(*call)


@pytest.mark.parametrize("fn,args", HELPERS, ids=_name)
def test_position_helpers_take_numpy_integers(fn, args):
    want = fn(*args)
    for i, a in enumerate(args):
        if type(a) is not int:
            continue
        for np_a in (np.int64(a), np.uint64(a)):
            got = fn(*args[:i], np_a, *args[i + 1:])
            assert got == want
            assert all(type(x) is int for x in (got if type(got) is tuple else (got,)))


# every other public function with an integer argument: block, kernel,
# segment and scan orders and lengths, with good arguments
ORDERS = [
    (cw.trib_number, (5,)), (cw.block_letter_counts, (5,)),
    (cw.last_letter, (5,)), (cw.kernel_number, (5,)), (cw.kernel_word, (7,)),
    (cw.prefix, (13,)), (cw.position_kernel, (6, 3)),
    (cf.square_boundaries, (10,)), (cf.cube_boundaries, (10,)),
    (cf.distinct_squares_at_t, (10,)), (cf.distinct_cubes_at_t, (10,)),
    (cf.glen_distinct_squares_at_t, (10,)),
    (cf.repeated_squares_at_t, (10,)), (cf.repeated_cubes_at_t, (10,)),
    (fc.square_gamma, (2, 10)), (fc.cube_gamma, (10,)),
    (fc.sum_b_gamma, (2, 10)), (fc.phi, (10,)),
    (fc.b_cum_at_gamma_max, (2, 10)), (fc.sum_d_gamma, (10,)),
    (fc.d_cum_at_gamma_max, (10,)), (fc.square_case_block, (2, 10, 3)),
    (fc.square_segment_vector, (2, 8)), (fc.cube_segment_vector, (10,)),
    (oracle.scan_repetitions, (100,)), (oracle.occurrences, ("aba", 100)),
    (oracle.assert_no_fourth_powers, (100,)),
]


def _plain(value) -> bool:
    """True iff every number inside ``value`` is a plain int."""
    if isinstance(value, Record):
        return _plain(value._values())
    if isinstance(value, range):
        return _plain((value.start, value.stop, value.step))
    if isinstance(value, (tuple, list)):
        return all(_plain(x) for x in value)
    return type(value) in (int, str, bool)


@pytest.mark.parametrize("fn,args", ORDERS, ids=_name)
@pytest.mark.parametrize("bad", [True, False, 5.0, "5"], ids=repr)
def test_orders_reject_non_integers(fn, args, bad):
    for call in _variants(args, bad):
        with pytest.raises(TypeError):
            fn(*call)


@pytest.mark.parametrize("fn,args", ORDERS, ids=_name)
def test_orders_take_numpy_integers(fn, args):
    want = fn(*args)
    assert _plain(want)
    for np_type in (np.int64, np.uint64):
        for i, a in enumerate(args):
            if type(a) is int:
                got = fn(*args[:i], np_type(a), *args[i + 1:])
                assert got == want and _plain(got)


@pytest.mark.parametrize("fn,args", ORDERS, ids=_name)
@pytest.mark.parametrize("value", [-3, 10**40])
def test_orders_outside_range_name_the_value(fn, args, value):
    for call in _variants(args, value):
        with pytest.raises(ValueError, match=rf"(^| ){value} outside \["):
            fn(*call)


# just past the top of each range
@pytest.mark.parametrize("fn,args,message", [
    (cw.trib_number, (76,), "76 outside [-2, 75]"),
    (cw.kernel_word, (30,), "30 outside [1, 29]"),
    (cf.distinct_cubes_at_t, (10**6,), "1000000 outside [0, 75]"),
    (cf.square_boundaries, (68,), "68 outside [4, 67]"),
    (cf.cube_boundaries, (69,), "69 outside [7, 68]"),
    (fc.phi, (69,), "69 outside [4, 68]"),
    (fc.square_gamma, (4, 10), "kind 4 outside [1, 3]"),
    (oracle.scan_repetitions, (oracle.ORACLE_CAP + 1,),
     f"{oracle.ORACLE_CAP + 1} outside [1, {oracle.ORACLE_CAP}]"),
    (oracle.assert_no_fourth_powers, (oracle.EXHAUSTIVE_CAP + 1,),
     f"{oracle.EXHAUSTIVE_CAP + 1} outside [1, {oracle.EXHAUSTIVE_CAP}]"),
], ids=_name)
def test_order_ranges(fn, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*args)


def test_segment_vectors_stop_at_the_materialization_cap():
    # segment (1, m) is the longest of its order
    top = fc._SQUARE_VECTOR_MAX
    size = [g.hi - g.lo + 1 for g in (fc.square_gamma(1, top),
                                      fc.square_gamma(1, top + 1))]
    assert size[0] <= cw.MATERIALIZE_CAP < size[1]
    top = fc._CUBE_VECTOR_MAX
    size = [g.hi - g.lo + 1 for g in (fc.cube_gamma(top),
                                      fc.cube_gamma(top + 1))]
    assert size[0] <= cw.MATERIALIZE_CAP < size[1]
    with pytest.raises(ValueError, match=r"order 29 outside \[4, 28\]"):
        fc.square_segment_vector(1, 29)
    with pytest.raises(ValueError, match=r"order 28 outside \[7, 27\]"):
        fc.cube_segment_vector(28)
