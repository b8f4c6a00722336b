"""Argument types and ranges at the public boundary: every public integer
argument takes any integer (numpy integers included) through
``operator.index``, rejects bool and non-integral numbers with TypeError
and values outside its range with ValueError naming the value, and the
results hold plain ints."""

import re

import invariant_checks
import numpy as np
import paper_checks as pc
import pytest

from tribcount import closed_forms as cf
from tribcount import core_word as cw
from tribcount import fast_count as fc
from tribcount import oracle

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


@pytest.mark.parametrize("fn", ENDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [1000, 10**6])
def test_end_streams_take_numpy_integers(fn, n):
    want = list(fn(n))
    for np_n in (np.int64(n), np.uint64(n)):
        got = list(fn(np_n))
        assert got == want
        assert all(type(e) is int for e in got)


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
# segment and scan orders and lengths, with good arguments; the paper checks
# in tests/paper_checks.py and the power-4 reference scan in
# tests/invariant_checks.py keep the same argument checks
ORDERS = [
    (cw.trib_number, (5,)), (pc.block_letter_counts, (5,)),
    (cw.last_letter, (5,)), (cw.kernel_number, (5,)), (cw.kernel_word, (7,)),
    (cw.prefix, (13,)), (cw.position_kernel, (6, 3)),
    (cf.distinct_squares_at_t, (10,)), (cf.distinct_cubes_at_t, (10,)),
    (pc.glen_distinct_squares_at_t, (10,)),
    (cf.repeated_squares_at_t, (10,)), (cf.repeated_cubes_at_t, (10,)),
    (pc.square_case_block, (2, 10, 3)),
    (oracle.scan_repetitions, (100,)), (pc.occurrences, ("aba", 100)),
    (pc.gap_pattern, ("a", 100)), (pc.gap_coding, ("a", 100)),
    (invariant_checks.assert_no_fourth_powers, (100,)),
    (pc.kernel_route, ("cube", 100)),
]


def _plain(value) -> bool:
    """True iff every number inside ``value`` is a plain int."""
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
    (pc.square_case_block, (4, 10, 3), "kind 4 outside [1, 3]"),
    (oracle.scan_repetitions, (oracle.ORACLE_CAP + 1,),
     f"{oracle.ORACLE_CAP + 1} outside [1, {oracle.ORACLE_CAP}]"),
    (invariant_checks.assert_no_fourth_powers, (oracle.EXHAUSTIVE_CAP + 1,),
     f"{oracle.EXHAUSTIVE_CAP + 1} outside [1, {oracle.EXHAUSTIVE_CAP}]"),
], ids=_name)
def test_order_ranges(fn, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*args)


def exhaustive_scan(n):
    return oracle.scan_repetitions(n, exhaustive=True)


# every ranged argument of ORDERS and HELPERS: (function, good arguments,
# index of the argument, its name in messages, lowest, highest)
RANGES = [
    (cw.trib_number, (5,), 0, "block order", -2, 75),
    (pc.block_letter_counts, (5,), 0, "block order", -2, 75),
    (cw.last_letter, (5,), 0, "block order", -1, 75),
    (cw.kernel_number, (5,), 0, "kernel order", 0, 75),
    (cw.kernel_word, (7,), 0, "kernel order", 1, 29),
    (cw.prefix, (13,), 0, "prefix length", 0, cw.MATERIALIZE_CAP),
    (cw.position_kernel, (6, 3), 0, "kernel order", 1, 75),
    (cw.position_kernel, (6, 3), 1, "occurrence index", 1, cw.N_CAP),
    (cw.letter_counts, (10,), 0, "prefix length", 0, cw.N_CAP),
    (cw.position_letter, ("a", 2), 1, "occurrence index", 1, cw.N_CAP),
    (cf.distinct_squares_at_t, (10,), 0, "block order", 0, 75),
    (cf.distinct_cubes_at_t, (10,), 0, "block order", 0, 75),
    (pc.glen_distinct_squares_at_t, (10,), 0, "block order", 3, 75),
    (cf.repeated_squares_at_t, (10,), 0, "block order", 3, 75),
    (cf.repeated_cubes_at_t, (10,), 0, "block order", 3, 75),
    (pc.square_case_block, (2, 10, 3), 0, "square segment kind", 1, 3),
    (pc.square_case_block, (2, 10, 3), 1, "kernel order", 4, 75),
    (pc.square_case_block, (2, 10, 3), 2, "occurrence index", 1, cw.N_CAP),
    (oracle.scan_repetitions, (100,), 0, "oracle scan length",
     1, oracle.ORACLE_CAP),
    (pc.occurrences, ("aba", 100), 1, "oracle scan length",
     0, oracle.ORACLE_CAP),
    (pc.gap_pattern, ("a", 100), 1, "oracle scan length",
     0, oracle.ORACLE_CAP),
    (pc.gap_coding, ("a", 100), 1, "oracle scan length",
     0, oracle.ORACLE_CAP),
    (exhaustive_scan, (100,), 0, "exhaustive scan length",
     1, oracle.EXHAUSTIVE_CAP),
    (invariant_checks.assert_no_fourth_powers, (100,), 0,
     "exhaustive scan length", 1, oracle.EXHAUSTIVE_CAP),
    (pc.kernel_route, ("square", 100), 1, "oracle scan length",
     0, oracle.ORACLE_CAP),
]
RANGE_IDS = [f"{fn.__name__}-{i}" for fn, _, i, *_ in RANGES]


def _at(args, i, value):
    return args[:i] + (value,) + args[i + 1:]


@pytest.mark.parametrize("fn,args,i,what,lo,hi", RANGES, ids=RANGE_IDS)
@pytest.mark.parametrize("end", ["below", "above"])
def test_range_ends_are_rejected(fn, args, i, what, lo, hi, end):
    value = lo - 1 if end == "below" else hi + 1
    message = f"{what} {value} outside [{lo}, {hi}]"
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*_at(args, i, value))


@pytest.mark.parametrize("fn,args,i,what,lo,hi", RANGES, ids=RANGE_IDS)
@pytest.mark.parametrize("end", ["lowest", "highest"])
def test_range_ends_pass_the_range_check(fn, args, i, what, lo, hi, end):
    value = lo if end == "lowest" else hi
    try:
        got = fn(*_at(args, i, value))
    except ValueError as exc:
        # a later check may still refuse the value: a position past N_CAP,
        # a factor with too few occurrences
        assert " outside [" not in str(exc)
    else:
        assert _plain(got)
