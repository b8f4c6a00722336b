"""Argument types at the public counters: every counter takes any integer
(numpy integers included) through ``operator.index``, rejects bool and
non-integral numbers with TypeError, and returns a plain int."""

import numpy as np
import pytest

from tribcount import closed_forms as cf
from tribcount import core_word as cw
from tribcount import fast_count as fc

COUNTERS = [cf.distinct_squares, cf.distinct_cubes, fc.algorithm_B,
            fc.algorithm_D, fc.b_at, fc.d_at, cf.a_indicator, cf.c_indicator]
PUBLIC = COUNTERS + [cw.letter_at]


@pytest.mark.parametrize("fn", PUBLIC, ids=lambda f: f.__name__)
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


@pytest.mark.parametrize("fn", COUNTERS[:4], ids=lambda f: f.__name__)
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


def _variants(args, value):
    return [args[:i] + (value,) + args[i + 1:]
            for i, a in enumerate(args) if type(a) is int]


@pytest.mark.parametrize("fn,args", HELPERS, ids=lambda x: getattr(x, "__name__", repr(x)))
@pytest.mark.parametrize("bad", [10.5, 2.5, 4.0, True, "3", None], ids=repr)
def test_position_helpers_reject_non_integers(fn, args, bad):
    for call in _variants(args, bad):
        with pytest.raises(TypeError):
            fn(*call)


@pytest.mark.parametrize("fn,args", HELPERS, ids=lambda x: getattr(x, "__name__", repr(x)))
def test_position_helpers_take_numpy_integers(fn, args):
    want = fn(*args)
    for i, a in enumerate(args):
        if type(a) is not int:
            continue
        for np_a in (np.int64(a), np.uint64(a)):
            got = fn(*args[:i], np_a, *args[i + 1:])
            assert got == want
            assert all(type(x) is int for x in (got if type(got) is tuple else (got,)))
