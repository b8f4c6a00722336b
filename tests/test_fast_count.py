import copy
import functools
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tribcount import core_word as cw
from tribcount import fast_count as fc
from tribcount import tiling as tl
from tribcount.core_word import (N_CAP, exact_div, kernel_number as k, prefix,
                                 trib_number as t)

import invariant_checks
import spot_oracle
from invariant_checks import (check_closed_forms, phi, segment_closed_forms,
                              square_bounds, square_index)
from paper_checks import kernel_mismatches, square_case_block

SQUARE_SUMS, SQUARE_CUMS = segment_closed_forms("square")
CUBE_SUMS, CUBE_CUMS = segment_closed_forms("cube")


@functools.lru_cache(maxsize=None)
def _built(tiling):
    """A checked ``tiling._build`` of "square" or "cube"."""
    return tl._build(tiling)


@functools.lru_cache(maxsize=None)
def _floor(tiling):
    """The floor of the library's tables for "square" or "cube", which
    they keep only as prefix sums: its counts, copied along the rows, and
    their prefix sums."""
    counts = bytes(tl._counts(_built(tiling).rows, FLOOR_TOP))
    return counts, tuple(accumulate(counts))


def _kind(seg):
    """The tiling, "square" or "cube", whose segments ``seg`` holds."""
    return "square" if seg.label is tl._square_label else "cube"


def test_base_square_table_matches_enumeration():
    base = _built("square").base
    assert list(base[1:52]) == invariant_checks.B_SMALL_1_51


def test_base_cube_table():
    base = _built("cube").base
    nonzero = {i: v for i, v in enumerate(base[:326]) if v}
    assert nonzero == {58: 1, 107: 1, 108: 1, 139: 1, 197: 1, 198: 1,
                       199: 1, 200: 1, 207: 1, 256: 1, 257: 1, 288: 1}


@pytest.mark.parametrize("call", ["b_at(1)", "d_at(51)", "algorithm_B(0)",
                                  "algorithm_D(7)"])
def test_first_call_below_the_tilings(call):
    # in a fresh process, before either table exists: positions below a
    # tiling's start lie before its first segment and read the floor.  The
    # first call publishes no table and keeps one build; the second
    # publishes the tables of that tiling
    script = ("from tribcount import fast_count as fc\n"
              "assert fc._SQUARES is None and fc._CUBES is None\n"
              f"print(fc.{call})\n"
              "assert fc._SQUARES is None and fc._CUBES is None\n"
              "assert len(fc._KEPT) == 1\n"
              f"assert fc.{call} == 0\n"
              "assert (fc._SQUARES or fc._CUBES) is not None\n"
              "assert not fc._KEPT")
    env = dict(os.environ, PYTHONPATH=str(Path(fc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


# the first and second call of a counter, for each n in a fresh copy of
# the module: the first builds no piece and answers by the walk, and the
# second builds the tables from the build the first one kept, checks every
# piece and publishes them; both answers agree
FIRST_CALLS = """\
import importlib, sys
from tribcount import fast_count as fc
name, kind = sys.argv[1:]
for n in (10**3, 266078, 10**18):
    fc = importlib.reload(fc)
    built, checked = [], []
    pieces, check = fc._segment_pieces, fc._check_pieces
    fc._segment_pieces = lambda *args: built.append(args[1]) or pieces(*args)
    fc._check_pieces = lambda *args: checked.append(args[1]) or check(*args)
    first = getattr(fc, name)(n)
    assert (built, checked, fc._SQUARES, fc._CUBES) == ([], [], None, None)
    kept = fc._KEPT[kind]
    assert getattr(fc, name)(n) == first, n
    seg = fc._SQUARES or fc._CUBES
    above = [s for s, row in enumerate(kept.rows) if row[1] > 266078]
    assert seg.rows is kept.rows and not fc._KEPT
    assert built == checked == above == [
        s for s, entry in enumerate(seg.pieces) if entry]
    print(first)
"""


@pytest.mark.parametrize("name, kind", [
    ("algorithm_B", "square"), ("b_at", "square"), ("algorithm_D", "cube"),
    ("d_at", "cube")])
def test_first_call_walks_and_the_second_publishes(name, kind):
    env = dict(os.environ, PYTHONPATH=str(Path(fc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS, name, kind],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == [
        str(getattr(fc, name)(n)) for n in (10**3, 266078, 10**18)]


def test_segment_tiling():
    invariant_checks.check_segment_tiling(40)


def test_segment_thresholds_construct():
    # ordering violations raise inside the row builders
    for m in range(4, 41):
        tl._square_rows(m)
    for m in range(7, 41):
        tl._cube_rows(m)


def test_square_segment_explicit_bounds():
    rows = fc._square_segments().rows
    assert rows[square_index(3, 4)][:2] == (8, 8)
    assert rows[square_index(2, 4)][:2] == (9, 10)
    assert rows[square_index(1, 4)][:2] == (11, 14)
    assert rows[square_index(1, 6)][:2] == (39, 51)
    rows = fc._cube_segments().rows
    assert rows[7 - 7][:2] == (52, 95)
    assert rows[9 - 7][:2] == (177, 325)


def _order_span(m):
    """[lo, hi] of all of order m, by the paper's cube segment formulas."""
    return (exact_div(t(m) + t(m - 2) - 1, 2),
            exact_div(t(m + 1) + t(m - 1) - 3, 2))


def test_segment_geometry_matches_the_per_kind_formulas():
    # the rows take every bound from ``tl._bounds``; the paper states them
    # per kind: six square formulas, and the cube's span and cuts
    m = 4
    while _order_span(m - 1)[1] < N_CAP:  # every order up to the cap
        t0, t1, t2 = t(m), t(m - 1), t(m - 2)
        per_kind = {
            3: (exact_div(t0 + t2 - 1, 2),
                exact_div(-t0 + 4 * t1 + t2 - 3, 2)),
            2: (exact_div(-t0 + 4 * t1 + t2 - 1, 2),
                exact_div(t0 + 2 * t1 - t2 - 3, 2)),
            1: (exact_div(t0 + 2 * t1 - t2 - 1, 2),
                exact_div(t0 + 2 * t1 + t2 - 3, 2)),
        }
        squares = tl._square_rows(m)
        for j, (lo, hi, _, _, _, shift, _, _) in zip((3, 2, 1), squares):
            assert (lo, hi) == per_kind[j], (j, m)
            # shifted down, part j of order m is all of order m - j
            assert (lo - shift, hi - shift) == _order_span(m - j), (j, m)
        if m >= 7:
            (lo, hi, cut1, cut2, *_), = tl._cube_rows(m)
            assert (lo, hi) == _order_span(m), m
            assert (cut1, cut2) == (lo + t(m - 4),
                                    lo + t(m - 4) + t(m - 3)), m
            # cube segment m is square order m, cut where its parts meet
            assert (lo, cut1, cut2, hi) == (squares[0][0], squares[1][0],
                                            squares[2][0], squares[2][1]), m
        m += 1
    assert m - 1 == 4 + len(fc._square_segments().rows) // 3 - 1


def test_b_at_values():
    assert fc.b_at(7) == 0
    assert fc.b_at(8) == 1
    assert fc.b_at(27) == 2
    with pytest.raises(ValueError):
        fc.b_at(0)


def test_d_at_values():
    assert fc.d_at(51) == 0
    assert fc.d_at(58) == 1
    assert fc.d_at(365) == 1


# orders 4-20 make the floor, so their entries are read from its prefix
# sums, the difference of two running sums
def test_square_vectors_match_single_point():
    rows = fc._square_segments().rows
    for m in range(4, 21):
        for j in (1, 2, 3):
            lo, hi = rows[square_index(j, m)][:2]
            vec = tuple(tl._counts(rows, hi)[lo:])
            assert len(vec) == hi - lo + 1
            assert list(vec) == [fc.b_at(i) for i in range(lo, hi + 1)]


def test_cube_vectors_match_single_point():
    rows = fc._cube_segments().rows
    for m in range(7, 21):
        lo, hi = rows[m - 7][:2]
        vec = tuple(tl._counts(rows, hi)[lo:])
        assert len(vec) == hi - lo + 1
        assert list(vec) == [fc.d_at(i) for i in range(lo, hi + 1)]


def test_square_vectors_match_oracle(scan3000):
    rows = fc._square_segments().rows
    for m in range(4, 13):
        for j in (1, 2, 3):
            lo, hi = rows[square_index(j, m)][:2]
            for i, v in enumerate(tl._counts(rows, hi)[lo:]):
                if lo + i > 3000:
                    break
                assert v == scan3000.b[lo + i]


def test_cube_vectors_match_oracle(scan3000):
    rows = fc._cube_segments().rows
    for m in range(7, 14):
        lo, hi = rows[m - 7][:2]
        for i, v in enumerate(tl._counts(rows, hi)[lo:]):
            if lo + i > 3000:
                break
            assert v == scan3000.d[lo + i]


def test_sum_b_gamma_values():
    assert SQUARE_SUMS[square_index(3, 4)] == 1
    assert SQUARE_SUMS[square_index(1, 5)] == 5
    rows = fc._square_segments().rows
    lo, hi = rows[square_index(1, 5)][:2]
    assert tuple(tl._counts(rows, hi)[lo:]) == (1, 0, 1, 0, 0, 1, 2)


def test_segment_sums_match_direct():
    # the totals of every segment that a tiling build keeps
    assert tuple(tl._build("square").totals) == SQUARE_SUMS
    assert tuple(tl._build("cube").totals) == CUBE_SUMS
    # every order inside the floor
    seg = fc._square_segments()
    for m in range(4, 18):
        total = 0
        for j in (1, 2, 3):
            lo, hi = seg.rows[square_index(j, m)][:2]
            direct = sum(tl._counts(seg.rows, hi)[lo:])
            assert SQUARE_SUMS[square_index(j, m)] == direct
            total += direct
        assert phi(m) == total
    seg = fc._cube_segments()
    for m in range(7, 18):
        lo, hi = seg.rows[m - 7][:2]
        assert CUBE_SUMS[m - 7] == sum(tl._counts(seg.rows, hi)[lo:])


def test_cumulative_at_segment_ends():
    # and at every position: the running sums of the vectors, through
    # orders 4-20, the floor
    seg = fc._square_segments()
    running = 0
    for m in range(4, 21):
        for j in (3, 2, 1):
            lo, hi = seg.rows[square_index(j, m)][:2]
            cum = list(accumulate(tl._counts(seg.rows, hi)[lo:],
                                  initial=running))[1:]
            assert [fc.algorithm_B(i) for i in range(lo, hi + 1)] == cum
            running = cum[-1]
            assert SQUARE_CUMS[square_index(j, m)] == running
    seg = fc._cube_segments()
    running = 0
    for m in range(7, 21):
        lo, hi = seg.rows[m - 7][:2]
        cum = list(accumulate(tl._counts(seg.rows, hi)[lo:],
                              initial=running))[1:]
        assert [fc.algorithm_D(i) for i in range(lo, hi + 1)] == cum
        running = cum[-1]
        assert CUBE_CUMS[m - 7] == running


def test_b_cum_values():
    assert SQUARE_CUMS[square_index(3, 7)] == 45


def test_b_cum_chaining():
    seg = fc._square_segments()
    sums, cums = SQUARE_SUMS, SQUARE_CUMS
    for m in range(4, 31):
        one, two, three = (square_index(j, m) for j in (1, 2, 3))
        assert cums[two] + sums[one] == cums[one]
        assert cums[three] + sums[two] == cums[two]
    for m in range(4, 21):
        nxt = seg.rows[square_index(3, m + 1)][0]
        assert cums[square_index(1, m)] == fc.algorithm_B(nxt) - fc.b_at(nxt)


def test_phi_recurrence():
    for m in range(7, 21):
        inc = exact_div(-3 * t(m) + 6 * t(m - 1) + t(m - 2) - 1, 2)
        assert phi(m) == phi(m - 1) + phi(m - 2) + phi(m - 3) + inc
    # and at the top order of the square tables
    assert phi(68) == sum(SQUARE_SUMS[square_index(j, 68)] for j in (1, 2, 3))


def test_segment_sum_recurrences():
    sums = SQUARE_SUMS
    for m in range(5, 21):
        assert sums[square_index(1, m)] == phi(m - 1) + k(m) - 1
    for m in range(6, 21):
        assert sums[square_index(2, m)] == phi(m - 2) + k(m) - 1
    for m in range(7, 21):
        assert (sums[square_index(3, m)]
                == phi(m - 3) + t(m - 4) - k(m - 3) + 1)
    sums = CUBE_SUMS  # cube segment m at m - 7
    for m in range(10, 21):
        assert sums[m - 7] == (sums[m - 8] + sums[m - 9] + sums[m - 10]
                               + exact_div(t(m - 2) - 3 * t(m - 4) - 1, 2))


def test_sum_d_gamma_values():
    assert CUBE_SUMS[7 - 7] == 1
    assert CUBE_SUMS[8 - 7] == 3
    rows = fc._cube_segments().rows
    lo, hi = rows[12 - 7][:2]
    assert CUBE_SUMS[12 - 7] == sum(tl._counts(rows, hi)[lo:])


def test_d_cum_values():
    assert CUBE_CUMS[7 - 7] == 1
    assert CUBE_CUMS[9 - 7] == 12
    assert CUBE_CUMS[15 - 7] == sum(CUBE_SUMS[7 - 7:15 - 7 + 1])


def test_d_cum_continuity_across_segments():
    # no cube ends at a segment's first position, so the cumulative count
    # carries over unchanged
    seg = fc._cube_segments()
    for m in range(7, 20):
        nxt = seg.rows[m + 1 - 7][0]
        assert fc.algorithm_D(nxt) == CUBE_CUMS[m - 7]
        assert fc.d_at(nxt) == 0


def test_algorithm_B_values():
    assert fc.algorithm_B(0) == 0
    assert fc.algorithm_B(24) == 9
    assert fc.algorithm_B(60) == 47
    assert fc.algorithm_B(3000) == invariant_checks.CHECKPOINT_3000["B"]


def test_algorithm_D_values():
    assert fc.algorithm_D(0) == 0
    assert fc.algorithm_D(149) == 4
    assert fc.algorithm_D(500) == 29
    assert fc.algorithm_D(3000) == invariant_checks.CHECKPOINT_3000["D"]


def test_algorithms_match_oracle(scan3000):
    acc_b = acc_d = 0
    for n in range(1, 3001):
        acc_b += scan3000.b[n]
        acc_d += scan3000.d[n]
        assert fc.algorithm_B(n) == acc_b, n
        assert fc.algorithm_D(n) == acc_d, n


def test_point_counts_match_oracle(scan3000):
    for n in range(1, 3001):
        assert fc.b_at(n) == scan3000.b[n], n
        assert fc.d_at(n) == scan3000.d[n], n


def test_repeated_square_tail_identity():
    # cumulative count between a top segment's start and the block length
    for m in range(4, 26):
        tail = fc.algorithm_B(t(m)) - SQUARE_CUMS[square_index(2, m)]
        num = (m * (23 * t(m) - 38 * t(m - 1) - 3 * t(m - 2))
               + (-65 * t(m) + 164 * t(m - 1) - 105 * t(m - 2))
               + 33 * m - 99)
        assert tail == exact_div(num, 44)


def test_square_case_block_points():
    assert list(square_case_block(3, 4, 1)) == [8]
    assert list(square_case_block(1, 5, 1)) == [26, 27]
    assert list(square_case_block(1, 5, 3)) == [70, 71]


@pytest.mark.parametrize("j, m, p", [(1, 65, 6), (1, 66, 3), (1, 68, 1),
                                     (2, 68, 1)])
def test_square_case_block_past_the_cap(j, m, p):
    # the kernel occurrence itself lies inside the cap, its block does not
    assert cw.position_kernel(m, p) <= N_CAP
    with pytest.raises(ValueError, match=rf"square block \({j}, {m}\) at "
                       rf"kernel occurrence {p} exceeds cap"):
        square_case_block(j, m, p)


def test_graph_embedding(scan3000):
    invariant_checks.check_graph_embedding(scan3000, prefix(3000))


ROW_FIELDS = ("lo", "hi", "cut1", "cut2", "first", "shift", "inc_lo",
              "inc_hi")


def _segment_of(seg, n):
    """The number of the segment of ``seg`` that holds position n."""
    return bisect_right([row[0] for row in seg.rows], n) - 1


def _wrong_tiling(seg, s, field, value=None):
    """The tiling that ``tiling._walk`` reads, built again from the same
    floor and start, with one field of segment s moved by one, or set to
    ``value``."""
    rows = [list(row) for row in seg.rows]
    i = ROW_FIELDS.index(field)
    rows[s][i] = rows[s][i] + 1 if value is None else value
    return tl._Tiling(rows, _built(_kind(seg)).base, seg.label,
                      seg.rows[0][0])


def _with_wrong_entry(seg, s, field, value=None):
    """The tables of the library's counters, built on ``_wrong_tiling``."""
    return fc._Segments(_wrong_tiling(seg, s, field, value))


# a broken row fails both builds with the same message: neither the walk
# nor the pieces can answer
BROKEN_BUILDS = (_wrong_tiling, _with_wrong_entry)


@pytest.mark.parametrize("field, message", [
    ("lo", r"tiling broken at square segment \(j=2, m=30\)"),
    ("cut1", r"child segments do not line up with the cuts of "
             r"square segment \(j=2, m=30\)"),
    # the segment's block is its tail, so it ends at hi
    ("inc_hi", r"unit increments of square segment \(j=2, m=30\) lie "
               r"outside it"),
])
def test_self_check_names_broken_square_segment(field, message):
    seg = fc._square_segments()
    for build in BROKEN_BUILDS:
        with pytest.raises(RuntimeError, match=message):
            build(seg, 3 * (30 - 4) + 3 - 2, field)


@pytest.mark.parametrize("field, message", [
    ("lo", r"tiling broken at cube segment m=40"),
    ("shift", r"child segments do not line up with the cuts of "
              r"cube segment m=40"),
])
def test_self_check_names_broken_cube_segment(field, message):
    seg = fc._cube_segments()
    for build in BROKEN_BUILDS:
        with pytest.raises(RuntimeError, match=message):
            build(seg, 40 - 7, field)


@pytest.mark.parametrize("tiling, s, field", [
    ("square", 3 * (10 - 4) + 3 - 2, "cut1"),
    ("square", 3 * (10 - 4) + 3 - 2, "shift"),
    ("cube", 12 - 7, "cut1"),
    ("cube", 12 - 7, "shift"),
])
def test_self_check_lines_up_segments_inside_the_floor(tiling, s, field):
    # the floor is copied along the children of its segments too
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    assert seg.rows[s][1] < FLOOR_TOP
    for build in BROKEN_BUILDS:
        with pytest.raises(RuntimeError, match="child segments do not line "
                           "up with the cuts of " + re.escape(seg.label(s))):
            build(seg, s, field)


@pytest.mark.parametrize("tiling, s", [("square", 3 * (30 - 4) + 3 - 2),
                                       ("cube", 40 - 7)])
def test_self_check_wants_children_past_the_floor(tiling, s):
    # a segment past the floor totals its children, so it must have them
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    assert seg.rows[s][0] > FLOOR_TOP
    for build in BROKEN_BUILDS:
        with pytest.raises(RuntimeError, match="child segments do not line "
                           "up with the cuts of " + re.escape(seg.label(s))):
            build(seg, s, "first", -1)


@pytest.mark.parametrize("tiling, s", [("square", square_index(1, 6)),
                                       ("cube", 9 - 7)])
def test_a_lower_floor_gives_the_same_counts(monkeypatch, tiling, s):
    # the floor cut at the end of the segments without children, orders 6
    # and 9: every segment past it is cut into pieces, and the descents go
    # on down to the lower floor
    seg = _published(tiling)
    order = 4 + s // 3 if tiling == "square" else 7 + s
    assert tl._bounds(order)[3] - 1 == seg.rows[s][1]
    monkeypatch.setattr(fc, "_FLOOR_ORDER", order)
    low = fc._Segments(_built(tiling))
    assert len(low.cum_lo) == seg.rows[s][1] + 1
    assert len(low.jumps[1]) > len(seg.jumps[1])
    ends = {n for lo, hi in _bounds(low.jumps[0]) for n in (lo, hi)}
    for n in sorted(ends.union(range(1, FLOOR_TOP + 2))):
        if n <= N_CAP:
            assert _two_level_walk(low, n) == _two_level_walk(seg, n), n


def test_a_floor_below_the_segments_without_children_raises(monkeypatch):
    # cube segment 9, which has no children, would lie past the floor
    monkeypatch.setattr(fc, "_FLOOR_ORDER", 8)
    with pytest.raises(RuntimeError, match="a segment past the floor's end "
                       "176 has no children"):
        fc._Segments(_built("cube"))


@pytest.mark.parametrize("j, m, field, moved_from, by", [
    (3, 30, "inc_lo", "lo", -1),      # a head block, which starts at lo
    (3, 30, "inc_lo", "inc_hi", 1),   # an empty block inside the segment
    (3, 4, "inc_hi", "hi", 1),        # a segment without children
])
def test_self_check_wants_every_segment_to_hold_its_increments(
        j, m, field, moved_from, by):
    seg = fc._square_segments()
    s = square_index(j, m)
    value = seg.rows[s][ROW_FIELDS.index(moved_from)] + by
    for build in BROKEN_BUILDS:
        with pytest.raises(RuntimeError, match=re.escape(
                f"unit increments of {seg.label(s)} lie outside it")):
            build(seg, s, field, value)


@pytest.mark.parametrize("tiling", ["square", "cube"])
@pytest.mark.parametrize("ends_at", ["hi - 1", "lo"])
def test_self_check_wants_the_floor_to_end_a_segment(tiling, ends_at):
    # the floor cut short inside its last segment [lo, hi]
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    lo, hi = seg.rows[_segment_of(seg, FLOOR_TOP)][:2]
    top = hi - 1 if ends_at == "hi - 1" else lo
    with pytest.raises(RuntimeError, match=f"the base table ends at "
                       f"{top}, inside a segment"):
        tl._Tiling(seg.rows, _floor(tiling)[0][:top + 1], seg.label,
                   seg.rows[0][0])


# square inc_hi + 1 leaves its segment, which the self-check names (above)
@pytest.mark.parametrize("tiling, s, field", [
    ("square", 3 * (30 - 4) + 3 - 2, "inc_lo"),
    ("cube", 40 - 7, "inc_lo"),
    ("cube", 40 - 7, "inc_hi"),
])
def test_closed_forms_name_a_segment_with_a_wrong_increment(tiling, s, field):
    # the total derived from the copy moves by one, unlike the closed form
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    broken = _with_wrong_entry(seg, s, field)  # which passes the build
    with pytest.raises(AssertionError, match="closed forms of "
                       + re.escape(seg.label(s)) + ": "):
        check_closed_forms(broken, tiling)


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_closed_forms_name_the_segment_that_disagrees_with_the_floor(
        monkeypatch, tiling):
    # the floor copied with one count off: the geometry is unchanged, so
    # the build passes
    seg = _published(tiling)
    counts = tl._counts

    def one_off(rows, n):
        floor = counts(rows, n)
        floor[1000] += 1
        return floor

    monkeypatch.setattr(fc, "_counts", one_off)
    broken = fc._Segments(_built(tiling))
    s = _segment_of(seg, 1000)
    with pytest.raises(AssertionError, match="closed forms of "
                       + re.escape(seg.label(s)) + ": "):
        check_closed_forms(broken, tiling)


def test_copied_counts_never_wrap():
    # segment k covers [k, k], copies the count at k - 1 and adds one at k,
    # so the count at k is k: 255 at k = 255, past it at k = 256
    rows = [(k, k, k, k, -1, 1, k, k) for k in range(1, 257)]
    assert tl._counts(rows[:255], 255)[-1] == 255
    with pytest.raises(RuntimeError,
                       match=r"a count in \[256, 256\] passes 255"):
        tl._counts(rows, 256)


def _union(intervals):
    """The union of the intervals [x, y] up to N_CAP, as sorted disjoint
    [x, y] lists, no two of them adjacent."""
    out = []
    for x, y in sorted(intervals):
        y = min(y, N_CAP)
        if x > y:
            continue
        if out and x <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], y)
        else:
            out.append([x, y])
    return out


def test_unit_increments_are_the_first_occurrences():
    # the unit-increment blocks of all segments, with or without children,
    # are the positions where a square or a cube not seen before ends: the
    # intervals of the closed forms, which the rows are clipped from, so no
    # first occurrence up to N_CAP falls outside a block.
    blocks = [row[6:8] for row in fc._square_segments().rows]
    new = [(8, 8), (10, 10)]
    for m, (beta, gamma, theta) in enumerate(square_bounds(), 4):
        new += [(2 * t(m - 1), beta), (gamma, theta)]
    assert _union(blocks) == _union(new)
    blocks = [row[6:8] for row in fc._cube_segments().rows]
    new = [(t(m - 1) + 2 * t(m - 4), beta)
           for m, (_, beta) in enumerate(cw._CUBE_FIRSTS, 7)]
    assert _union(blocks) == _union(new)


def _with_interval(monkeypatch, tiling, index, interval):
    """Set first-occurrence interval ``index`` of a tiling to ``interval``
    where ``tiling._block`` reads it, with neither table of ``fast_count``
    published."""
    name = "_SQUARE_FIRSTS" if tiling == "square" else "_CUBE_FIRSTS"
    firsts = getattr(tl, name)
    monkeypatch.setattr(tl, name, firsts[:index] + (interval,)
                        + firsts[index + 1:])
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_CUBES", None)
    return fc._square_segments if tiling == "square" else fc._cube_segments


def _with_moved_breakpoint(monkeypatch, tiling, index, delta):
    """Move the end of first-occurrence interval ``index`` of a tiling by
    ``delta`` (see ``_with_interval``)."""
    firsts = tl._SQUARE_FIRSTS if tiling == "square" else tl._CUBE_FIRSTS
    x, y = firsts[index]
    return _with_interval(monkeypatch, tiling, index, (x, y + delta))


@pytest.mark.parametrize("tiling, index, delta, message", [
    # square theta of order 44: the second field of interval 2 + 2 (44 - 4) + 1
    ("square", 83, -1, r"threshold ordering broken in \(2, 45\)"),
    ("square", 83, 1, r"square segment \(j=1, m=45\) meets no "
                      r"first-occurrence interval, or two"),
    # cube beta of order 27
    ("cube", 27 - 7, -1, "threshold ordering broken in cube segment 27"),
    ("cube", 27 - 7, 1, "threshold ordering broken in cube segment 27"),
])
def test_a_moved_breakpoint_fails_the_first_build(monkeypatch, tiling, index,
                                                  delta, message):
    # the rows take their unit increments from the first-occurrence
    # intervals, so a breakpoint moved by one can fail the build that reads
    # it, naming the segment, and nothing is published
    build = _with_moved_breakpoint(monkeypatch, tiling, index, delta)
    with pytest.raises((RuntimeError, AssertionError), match=message):
        build()
    assert fc._SQUARES is None and fc._CUBES is None
    # and so does the build that the one-step walk reads
    with pytest.raises((RuntimeError, AssertionError), match=message):
        tl._build(tiling)


CUBE_27 = tl._cube_rows(27)[0]  # lo, hi, ... of cube segment 27
HEAD_30 = tl._square_rows(30)[0]  # of square segment (3, 30)


@pytest.mark.parametrize("tiling, index, interval, message", [
    # [alpha, beta] of cube order 27 from its segment's lo, where the first
    # child starts: only ``lo < inc_lo`` rejects it
    ("cube", 27 - 7, (CUBE_27[0], cw._CUBE_FIRSTS[27 - 7][1]),
     r"threshold ordering broken in cube segment 27$"),
    # the same from past its segment's hi: the segment meets no interval,
    # and the message names it
    ("cube", 27 - 7, (CUBE_27[1] + 1, cw._CUBE_FIRSTS[27 - 7][1]),
     r"cube segment m=27 meets no first-occurrence interval, or two"),
    # [alpha, beta] of square order 29 on to the hi of segment (3, 30),
    # whose head block it holds: only the block's end inc_hi + 1 <= hi
    # rejects it
    ("square", 2 + 2 * (29 - 4),
     (cw._SQUARE_FIRSTS[2 + 2 * (29 - 4)][0], HEAD_30[1]),
     r"threshold ordering broken in \(3, 30\)"),
])
def test_an_interval_that_one_clause_rejects(monkeypatch, tiling, index,
                                             interval, message):
    # a table that builds but for one clause of the row arithmetic, which
    # names the segment
    build = _with_interval(monkeypatch, tiling, index, interval)
    with pytest.raises((RuntimeError, AssertionError), match=message):
        build()
    with pytest.raises((RuntimeError, AssertionError), match=message):
        tl._build(tiling)


@pytest.mark.parametrize("index, delta, segment", [
    # square beta of order 14: the second field of interval 2 + 2 (14 - 4);
    # segment (3, 15) lies inside the floor, which is copied along it
    (22, -1, (3, 15)),
    (22, 1, (3, 15)),
    # square beta of order 17: segment (3, 18), in the floor too
    (28, -1, (3, 18)),
    (28, 1, (3, 18)),
    # square beta of order 20: segment (3, 21), the first past the floor
    (34, -1, (3, 21)),
    (34, 1, (3, 21)),
])
def test_a_moved_breakpoint_fails_the_closed_forms(monkeypatch, index, delta,
                                                   segment):
    # a block that keeps its place among the cuts builds: the totals follow
    # it, and the closed forms name the segment that holds it
    seg = _with_moved_breakpoint(monkeypatch, "square", index, delta)()
    with pytest.raises(AssertionError, match="closed forms of "
                       + re.escape(seg.label(square_index(*segment))) + ": "):
        check_closed_forms(seg, "square")


def test_vectors_at_the_materialization_cap_sum_to_the_closed_forms():
    # square segment (1, 28) and cube segment 27: the longest segments of
    # at most MATERIALIZE_CAP positions
    rows = fc._square_segments().rows
    lo, hi = rows[square_index(1, 28)][:2]
    assert sum(tl._counts(rows, hi)[lo:]) == SQUARE_SUMS[square_index(1, 28)]
    rows = fc._cube_segments().rows
    lo, hi = rows[27 - 7][:2]
    assert sum(tl._counts(rows, hi)[lo:]) == CUBE_SUMS[27 - 7]


FLOOR_TOP = 266078  # last position of square order 20 and of cube order 20

PIECE_FIELDS = ("start", "shift", "next", "a", "b")


def _bounds(starts):
    """The bounds (lo, hi) of each piece of an entry whose piece starts,
    followed by hi + 1, are ``starts``."""
    return [(lo, end - 1) for lo, end in zip(starts, starts[1:])]


def _equal_copy(entry):
    """A new pair of new tuples, equal to ``entry`` but not it."""
    return tuple(list(entry[0])), tuple(list(entry[1]))


def _with_wrong_piece(seg, s, field, wrong):
    """The entry of segment s with ``field`` of its first piece, its start
    or a field of the piece, replaced by ``wrong(old value)``."""
    starts, cut = seg.pieces[s]
    first = [starts[0], *cut[1]]
    i = PIECE_FIELDS.index(field)
    first[i] = wrong(first[i])
    return (first[0],) + starts[1:], cut[:1] + (tuple(first[1:]),) + cut[2:]


# the first piece of either segment lands above the floor
WRONG_PIECES = [
    ("start", lambda lo: lo + 1, "pieces of {} do not start where its steps "
                                 "change"),
    ("shift", lambda shift: shift + 1, "a piece of {} is not the jump from"),
    ("next", lambda entry: None, "a piece of {} is not the jump from"),
    ("next", _equal_copy, "a piece of {} is not the jump from"),
    # the terms
    ("a", lambda a: a + 1, "a piece of {} is not the jump from"),
    ("a", lambda a: a - 1, "a piece of {} is not the jump from"),
    ("b", lambda b: b + 1, "a piece of {} is not the jump from"),
    ("b", lambda b: b - 1, "a piece of {} is not the jump from"),
]


@pytest.mark.parametrize("field, wrong, message", WRONG_PIECES)
def test_self_check_names_broken_square_piece(field, wrong, message):
    seg = fc._square_segments()
    s = 3 * (30 - 4) + 3 - 2
    with pytest.raises(RuntimeError,
                       match=re.escape(message.format(seg.label(s)))):
        fc._check_pieces(seg, s, _with_wrong_piece(seg, s, field, wrong),
                         seg.pieces)


@pytest.mark.parametrize("field, wrong, message", WRONG_PIECES + [
    # an entry of the other tiling
    ("next", lambda entry: fc._square_segments().pieces[-1],
     "a piece of {} is not the jump from"),
])
def test_self_check_names_broken_cube_piece(field, wrong, message):
    seg = fc._cube_segments()
    with pytest.raises(RuntimeError,
                       match=re.escape(message.format(seg.label(40 - 7)))):
        fc._check_pieces(seg, 40 - 7,
                         _with_wrong_piece(seg, 40 - 7, field, wrong),
                         seg.pieces)


def test_self_check_of_pieces_names_the_break():
    seg = fc._square_segments()
    s = 3 * (30 - 4) + 3 - 2
    hi = seg.rows[s][1]
    starts, cut = seg.pieces[s]
    end, (shift, _, a, b) = cut[0], cut[1]
    # piece k is cut[k], from starts[k - 1] to starts[k] - 1
    i = starts.index(seg.rows[s][2]) + 1  # the first piece of the 2nd child
    inc = seg.rows[s][6]  # the block is the segment's tail, from a start
    # the first two pieces of one child that land in different segments
    cuts = seg.rows[s][2:4]
    k = next(k for k in range(2, len(cut) - 1)
             if starts[k - 1] not in cuts and cut[k][1] is not cut[k - 1][1])
    h = next(h for h in range(1, len(cut) - 2) if cut[h][2:] != cut[h + 1][2:])
    # the first segment past the floor: its jumps land in the floor
    f = _segment_of(seg, FLOOR_TOP) + 1
    f_starts, f_cut = seg.pieces[f]
    cases = [
        # the first start moved by one
        (s, (starts[0] + 1,) + starts[1:], cut,
         "do not start where its steps change"),
        # the start at the increment edge moved by one, inside its piece
        (s, tuple(x + (x == inc) for x in starts), cut,
         "do not start where its steps change"),
        # the last piece dropped: the last start is not hi + 1
        (s, starts[:-1], cut[:-2] + cut[-1:], "do not tile it"),
        # the last start other than hi + 1
        (s, starts[:-1] + (hi,), cut, "do not tile it"),
        (s, starts[:-1] + (hi + 2,), cut, "do not tile it"),
        # a start repeated, with a piece for it
        (s, starts[:2] + starts[1:], cut[:2] + cut[1:],
         "do not start where its steps change"),
        # one piece more than the starts bound
        (s, starts, cut[:2] + cut[1:], "do not tile it"),
        # an end piece missing
        (s, starts, cut[1:], "lack an end piece"),
        (s, starts, cut[:-1], "lack an end piece"),
        # an end piece replaced by an ordinary piece
        (s, starts, cut[1:2] + cut[1:], "lack an end piece"),
        (s, starts, cut[:-1] + cut[-2:-1], "lack an end piece"),
        # an end piece that names another segment, or that shifts
        (s, starts, f_cut[:1] + cut[1:], "lack an end piece"),
        (s, starts, cut[:-1] + ((1,) + end[1:],), "lack an end piece"),
        # an end piece whose link names the segment but does not raise
        (s, starts, cut[:-1] + ((0, SimpleNamespace(name=seg.label(s)), 0,
                                 0),), "lack an end piece"),
        # two pieces merged across the first child cut
        (s, starts[:i - 1] + starts[i:], cut[:i - 1] + cut[i:],
         "do not start where its steps change"),
        # two pieces merged across a cut of the child they share
        (s, starts[:k - 1] + starts[k:], cut[:k - 1] + cut[k:],
         "do not start where its steps change"),
        # linked to a segment while landing in the floor
        (f, f_starts, f_cut[:1] + (f_cut[1][:1] + (seg.pieces[s],)
                                   + f_cut[1][2:],) + f_cut[2:],
         "is not the jump from"),
        # linked to a segment of this tiling it does not land in
        (s, starts, (end, (shift, seg.pieces[-1], a, b)) + cut[2:],
         "is not the jump from"),
        # a piece with the terms of the next one, whose terms differ
        (s, starts, cut[:h] + (cut[h][:2] + cut[h + 1][2:],) + cut[h + 1:],
         "is not the jump from"),
    ]
    for t, bad_starts, bad_cut, message in cases:
        with pytest.raises(RuntimeError,
                           match=re.escape(seg.label(t)) + ".* " + message):
            fc._check_pieces(seg, t, (bad_starts, bad_cut), seg.pieces)


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_pieces_are_built_checked_and_linked_with_the_rows(monkeypatch,
                                                           tiling):
    # right after a fresh build every segment above the floor has its
    # entry, each piece linked to the entry of the segment it lands in,
    # and the first jump searches all of them in position order
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_CUBES", None)
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    assert len(seg.pieces) == len(seg.rows)
    starts, cut, above = [], [], []
    for s, row in enumerate(seg.rows):
        entry = seg.pieces[s]
        if row[1] <= FLOOR_TOP:
            assert entry is None, seg.label(s)
            continue
        fc._check_pieces(seg, s, entry, seg.pieces)
        starts += entry[0][:-1]
        cut += entry[1][1:-1]
        above.append(entry)
    # between the lower end piece of the first segment above the floor and
    # the upper one of the top segment
    assert seg.jumps[0] == tuple(starts) + (seg.rows[-1][1] + 1,)
    assert len(seg.jumps[1]) == len(cut) + 2
    assert all(a is b for a, b in zip(
        seg.jumps[1], [above[0][1][0]] + cut + [above[-1][1][-1]]))
    # which tile [42 762, N_CAP] and on to the end of the top segment
    prev = FLOOR_TOP
    for lo, hi in _bounds(seg.jumps[0]):
        assert lo == prev + 1 <= hi
        prev = hi
    assert prev == seg.rows[-1][1] >= N_CAP


def test_a_build_takes_each_segments_edges_once(monkeypatch):
    # the edges of a segment start its own and its parents' pieces, for
    # the build and the checks alike: 144 square and 48 cube segments lie
    # above the floor
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_CUBES", None)
    calls, edges = [], fc._edges
    monkeypatch.setattr(fc, "_edges", lambda row: calls.append(row)
                        or edges(row))
    for build, above in ((fc._square_segments, 144), (fc._cube_segments, 48)):
        rows = [row for row in build().rows if row[1] > FLOOR_TOP]
        assert len(rows) == above
        assert sorted(calls) == rows
        calls.clear()


@pytest.mark.parametrize("tiling, s", [("square", 3 * (30 - 4) + 3 - 2),
                                       ("cube", 40 - 7)])
def test_a_piece_that_fails_its_check_fails_the_build(monkeypatch, tiling, s):
    # every segment's pieces are checked while the tiling is built, so a
    # broken one fails the build, naming the segment, and nothing is
    # published
    compose = fc._segment_pieces

    def without_the_last_piece(seg, t, entries):
        starts, cut = compose(seg, t, entries)
        if t == s:
            return starts[:-1], cut[:-2] + cut[-1:]
        return starts, cut

    monkeypatch.setattr(fc, "_segment_pieces", without_the_last_piece)
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_CUBES", None)
    build = fc._square_segments if tiling == "square" else fc._cube_segments
    label = tl._square_label(s) if tiling == "square" else tl._cube_label(s)
    with pytest.raises(RuntimeError,
                       match=re.escape(label) + " do not tile it"):
        build()
    assert fc._SQUARES is None and fc._CUBES is None
    # and so does the counters' second call, after a first that walked
    monkeypatch.setattr(fc, "_KEPT", {})
    count = fc.algorithm_B if tiling == "square" else fc.algorithm_D
    assert count(10**18) == (20111627870358162968 if tiling == "square"
                             else 1152906719182850790)
    with pytest.raises(RuntimeError,
                       match=re.escape(label) + " do not tile it"):
        count(10**18)
    assert fc._SQUARES is None and fc._CUBES is None


def _misdirected(seg, n):
    """A copy of the tables with the piece of the first jump from n linked
    to the entry of the top segment, which lies above every landing, and
    that segment's label."""
    starts, cut = seg.jumps
    i = bisect_right(starts, n)
    shift, entry, a, b = cut[i]
    wrong = len(seg.rows) - 1
    assert entry is not None and entry is not seg.pieces[wrong]
    broken = copy.copy(seg)
    broken.jumps = starts, (cut[:i] + ((shift, seg.pieces[wrong], a, b),)
                            + cut[i + 1:])
    return broken, seg.label(wrong)


def _outside(label):
    """The error of a descent that searched the pieces of ``label``."""
    return re.escape(f"a descent searched the pieces of {label} for a "
                     "position outside it")


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_a_jump_into_the_wrong_pieces_names_their_segment(tiling):
    # the next jump searches the wrong segment's pieces, finds its lower
    # end piece, and both descents name that segment
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    n = 10**15 + 7
    broken, label = _misdirected(seg, n)
    for descent in (fc._point, fc._cumulative):
        with pytest.raises(RuntimeError, match=_outside(label)):
            descent(broken, n)
    # the tables copied from are intact
    assert _two_level_walk(seg, n) == _reference_walk(seg, n)


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_a_jump_into_the_wrong_pieces_names_their_segment_under_O(tiling):
    # the end pieces, not an assert, stop the descent: under python -O it
    # names the segment too
    script = ("import sys\n"
              f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
              "from test_fast_count import _misdirected, fc\n"
              f"seg = fc._{tiling}_segments()\n"
              "broken, label = _misdirected(seg, 10**15 + 7)\n"
              "print(label)\n"
              "for descent in fc._point, fc._cumulative:\n"
              "    try:\n"
              "        descent(broken, 10**15 + 7)\n"
              "    except RuntimeError as error:\n"
              "        print(error)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    label, *errors = proc.stdout.splitlines()
    assert len(errors) == 2
    for error in errors:
        assert re.fullmatch(_outside(label), error)


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_a_descent_outside_an_entry_names_its_segment(tiling):
    # a descent started at an entry, just outside its segment, reads an
    # end piece and names the segment; the copy has no floor, so that
    # n = lo - 1 does not stop in it
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    bare = copy.copy(seg)
    bare.cum_hi, bare.cum_lo = array("I"), bytearray()
    entries = 0
    for s, entry in enumerate(seg.pieces):
        if entry is None:
            continue
        entries += 1
        bare.jumps = entry
        lo, hi = seg.rows[s][:2]
        for n in (lo - 1, hi + 1):
            for descent in (fc._point, fc._cumulative):
                with pytest.raises(RuntimeError,
                                   match=_outside(seg.label(s))):
                    descent(bare, n)
    assert entries == (144 if tiling == "square" else 48)


def _reference_walk(seg, n):
    """The copy recursion one step at a time over ``seg.rows``: the counts
    ending at n and at or before n; in the floor, its entry and prefix
    sum.  The count over [lo - shift, lo), which the copy leaves out, is
    read off the paper's closed-form cumulative counts, not off the
    build."""
    cums = SQUARE_CUMS if seg.label is tl._square_label else CUBE_CUMS
    base, base_cum = _floor(_kind(seg))
    top = len(base) - 1
    s = _segment_of(seg, n)
    point = cumulative = 0
    while n > top:
        lo, hi, cut1, cut2, c, shift, inc_lo, inc_hi = seg.rows[s]
        assert lo <= n <= hi
        # the segments c to s - 1 cover [lo - shift, lo), and c > 0
        delta = cums[s - 1] - cums[c - 1]
        point += inc_lo <= n <= inc_hi
        cumulative += delta + max(0, min(n, inc_hi) - inc_lo + 1)
        s = c + (n >= cut1) + (n >= cut2)
        n -= shift
    return point + base[n], cumulative + base_cum[n]


def _two_level_walk(seg, n):
    return fc._point(seg, n), fc._cumulative(seg, n)


def _published(tiling):
    """The published tables of a tiling, built if need be."""
    if tiling == "square":
        return fc._SQUARES or fc._square_segments()
    return fc._CUBES or fc._cube_segments()


def _check_walks(seg, n):
    """The pieces' point and cumulative counts at n, and those of the
    one-step walks, against ``_reference_walk``."""
    want = _reference_walk(seg, n)
    assert _two_level_walk(seg, n) == want, n
    built = _built(_kind(seg))
    assert (tl._walk_at(built, n), tl._walk(built, n)) == want, n


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_jumps_match_one_step_walk_at_every_piece_end(tiling):
    seg = _published(tiling)
    for lo, hi in _bounds(seg.jumps[0]):
        for n in (lo - 1, lo, hi, hi + 1):
            if n <= N_CAP:
                _check_walks(seg, n)
    for n in (0, 1, FLOOR_TOP, FLOOR_TOP + 1, N_CAP - 1, N_CAP):
        _check_walks(seg, n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(min_value=FLOOR_TOP + 1, max_value=N_CAP))
def test_jumps_match_one_step_walk(n):
    for tiling in ("square", "cube"):
        _check_walks(_published(tiling), n)


def test_segment_tables_stop_at_the_cap():
    # the tables hold every order up to the one whose segments reach 10^18
    rows = fc._square_segments().rows
    assert len(rows) == square_index(1, 68) + 1
    top, below = rows[square_index(1, 68)], rows[square_index(1, 67)]
    assert top[1] >= 10**18 > below[1]
    rows = fc._cube_segments().rows
    assert len(rows) == 68 - 7 + 1
    assert rows[68 - 7][1] >= 10**18 > rows[67 - 7][1]


def test_floors_end_together_with_their_prefix_sums():
    # the tables keep the floor as its sum before each block of 8
    # positions and the running sums within each block, one byte each
    for tiling in ("square", "cube"):
        seg, (counts, base_cum) = _published(tiling), _floor(tiling)
        assert len(seg.cum_lo) == FLOOR_TOP + 1
        assert len(seg.cum_hi) == (FLOOR_TOP >> 3) + 1
        assert seg.cum_hi.typecode == "I" and type(seg.cum_lo) is bytearray
        assert tuple(seg.cum_hi) == (0,) + base_cum[7::8]
        assert [seg.cum_hi[n >> 3] + seg.cum_lo[n]
                for n in range(FLOOR_TOP + 1)] == list(base_cum)
        assert bytes(map(fc._point, [seg] * (FLOOR_TOP + 1),
                         range(FLOOR_TOP + 1))) == counts
    assert (fc._square_segments().rows[square_index(1, 20)][1]
            == fc._cube_segments().rows[20 - 7][1] == FLOOR_TOP)


def test_builds_keep_the_counts_to_order_9():
    # order 9 ends with cube segment 9, the last segment without children
    # of either tiling, so counts that end one order lower leave it out
    for tiling in ("square", "cube"):
        assert len(_built(tiling).base) == tl._bounds(9)[3] == 326
    built = _built("cube")
    with pytest.raises(RuntimeError, match=re.escape(
            "child segments do not line up with the cuts of cube segment "
            "m=9")):
        tl._Tiling(built.rows, built.base[:tl._bounds(8)[3]], built.label,
                   built.rows[0][0])


def test_floor_sums_refuse_a_count_past_31():
    # a block's running sums are bytes of one integer sum, which carry past
    # 255: 32 in each of 8 positions would
    cum_hi, cum_lo = fc._floor_sums(bytearray([31]) * 20)
    assert tuple(cum_hi) == (0, 248, 496)
    assert list(cum_lo) == list(range(31, 249, 31)) * 2 + [31, 62, 93, 124]
    with pytest.raises(RuntimeError, match="a floor count passes 31"):
        fc._floor_sums(bytearray(19) + bytearray([32]))


def test_floors_match_oracle(scan_cap):
    # the oracle's range, up to 10^5; the rest of the floor is checked
    # against the spot checks below
    floor = slice(len(scan_cap.b))
    assert _floor("square")[0][floor] == bytes(scan_cap.b)
    assert _floor("cube")[0][floor] == bytes(scan_cap.d)


def _spot_mismatches(ns):
    """Lines naming each n in ``ns`` where b_at / d_at disagree with the
    fingerprint spot check, or algorithm_B / algorithm_D with the kernel
    route in closed form."""
    return spot_oracle.mismatches(ns) + kernel_mismatches(ns)


def test_floors_past_the_oracle_match_the_spot_checks(monkeypatch):
    # (10^5, FLOOR_TOP]: every first-occurrence interval end and segment
    # bound there, and every piece start there of tables whose floor ends
    # with order 17, each +-1, and a seeded sample
    ends = set()
    for tiling, firsts in (("square", cw._SQUARE_FIRSTS),
                           ("cube", cw._CUBE_FIRSTS)):
        seg = _published(tiling)
        with monkeypatch.context() as patch:
            patch.setattr(fc, "_FLOOR_ORDER", 17)
            lower = fc._Segments(_built(tiling))
        for x in (*firsts, *seg.rows):
            ends.update(x[:2])
        ends.update(lower.jumps[0])
    ns = sorted({n + e for n in ends for e in (-1, 0, 1)
                 if 10**5 < n + e <= FLOOR_TOP}
                | set(random.Random(37).sample(range(10**5 + 1,
                                                     FLOOR_TOP + 1), 200)))
    assert _spot_mismatches(ns) == []


def test_counts_above_the_floor_match_oracle(scan_cap):
    # the floor of order 17 ended at 42 761: the first steps of the
    # descents from there, now floor reads
    acc_b = list(accumulate(scan_cap.b))
    acc_d = list(accumulate(scan_cap.d))
    for n in range(42_700, 44_001):
        assert fc.b_at(n) == scan_cap.b[n], n
        assert fc.d_at(n) == scan_cap.d[n], n
        assert fc.algorithm_B(n) == acc_b[n], n
        assert fc.algorithm_D(n) == acc_d[n], n


def test_counts_above_the_floor_match_the_spot_checks():
    # the first steps of the descents, from just below the floor's end
    assert _spot_mismatches(range(265_978, 266_401)) == []


def test_vectors_above_the_floor_are_not_kept():
    squares, cubes = fc._square_segments(), fc._cube_segments()
    tracemalloc.start()
    try:
        lo, hi = squares.rows[square_index(1, 22)][:2]
        square = tuple(tl._counts(squares.rows, hi)[lo:])
        lo, hi = cubes.rows[21 - 7][:2]
        cube = tuple(tl._counts(cubes.rows, hi)[lo:])
        sums = sum(square), sum(cube)
        digests = (hashlib.sha256(bytes(square)).hexdigest(),
                   hashlib.sha256(bytes(cube)).hexdigest())
        del square, cube
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert sums == (SQUARE_SUMS[square_index(1, 22)], CUBE_SUMS[21 - 7])
    # the vectors as the fully memoised recursion built them
    assert digests == (
        "3f01b10fbffe1a56a23fbb59b790558d9045fd16ae53e551d8fbf2706ecf4285",
        "8fe29db0ac188ccc2dda703e0d0c213b6cf7b2967e1a6be0413123e79ccb075c")
