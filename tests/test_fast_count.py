import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tribcount import fast_count as fc
from tribcount.core_word import (N_CAP, exact_div, kernel_number as k, prefix,
                                 trib_number as t)

import invariant_checks


def test_base_square_table_matches_enumeration():
    base = fc._square_segments().base
    assert list(base[1:52]) == invariant_checks.B_SMALL_1_51


def test_base_cube_table():
    base = fc._cube_segments().base
    nonzero = {i: v for i, v in enumerate(base[:326]) if v}
    assert nonzero == {58: 1, 107: 1, 108: 1, 139: 1, 197: 1, 198: 1,
                       199: 1, 200: 1, 207: 1, 256: 1, 257: 1, 288: 1}


@pytest.mark.parametrize("call", ["b_at(1)", "d_at(51)", "algorithm_B(0)",
                                  "algorithm_D(7)"])
def test_first_call_below_the_tilings(call):
    # in a fresh process, before either table exists: positions below a
    # tiling's start lie before its first segment and read the floor
    script = ("from tribcount import fast_count as fc\n"
              "assert fc._SQUARES is None and fc._CUBES is None\n"
              f"print(fc.{call})\n"
              "assert (fc._SQUARES or fc._CUBES) is not None")
    env = dict(os.environ, PYTHONPATH=str(Path(fc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_segment_tiling():
    invariant_checks.check_segment_tiling(40)



def test_segment_records_compare_by_value():
    g = fc.square_gamma(2, 12)
    same = fc.SquareGamma(g.j, g.m, g.lo, g.hi, g.cut1, g.cut2, g.eta)
    assert g == same and hash(g) == hash(same)
    assert g != fc.square_gamma(1, 12) and g != fc.cube_gamma(12)
    assert repr(g).startswith("SquareGamma(j=2, m=12, lo=")
    with pytest.raises(TypeError, match="takes 7 values, not 6"):
        fc.SquareGamma(g.j, g.m, g.lo, g.hi, g.cut1, g.cut2)

def test_segment_thresholds_construct():
    # ordering violations raise inside the constructors
    for m in range(4, 41):
        for j in (1, 2, 3):
            fc.square_gamma(j, m)
    for m in range(7, 41):
        fc.cube_gamma(m)


def test_square_segment_explicit_bounds():
    assert (fc.square_gamma(3, 4).lo, fc.square_gamma(3, 4).hi) == (8, 8)
    assert (fc.square_gamma(2, 4).lo, fc.square_gamma(2, 4).hi) == (9, 10)
    assert (fc.square_gamma(1, 4).lo, fc.square_gamma(1, 4).hi) == (11, 14)
    assert (fc.square_gamma(1, 6).lo, fc.square_gamma(1, 6).hi) == (39, 51)
    assert (fc.cube_gamma(7).lo, fc.cube_gamma(7).hi) == (52, 95)
    assert (fc.cube_gamma(9).lo, fc.cube_gamma(9).hi) == (177, 325)


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


# orders 14-16 lie above the floor, so their entries are reached by
# descents of one to three row steps
def test_square_vectors_match_single_point():
    for m in range(4, 17):
        for j in (1, 2, 3):
            g = fc.square_gamma(j, m)
            vec = fc.square_segment_vector(j, m)
            assert len(vec) == g.hi - g.lo + 1
            assert list(vec) == [fc.b_at(i) for i in range(g.lo, g.hi + 1)]


def test_cube_vectors_match_single_point():
    for m in range(7, 17):
        g = fc.cube_gamma(m)
        vec = fc.cube_segment_vector(m)
        assert len(vec) == g.hi - g.lo + 1
        assert list(vec) == [fc.d_at(i) for i in range(g.lo, g.hi + 1)]


def test_square_vectors_match_oracle(scan3000):
    for m in range(4, 13):
        for j in (1, 2, 3):
            g = fc.square_gamma(j, m)
            vec = fc.square_segment_vector(j, m)
            for i, v in enumerate(vec):
                if g.lo + i > 3000:
                    break
                assert v == scan3000.b[g.lo + i]


def test_cube_vectors_match_oracle(scan3000):
    for m in range(7, 14):
        g = fc.cube_gamma(m)
        vec = fc.cube_segment_vector(m)
        for i, v in enumerate(vec):
            if g.lo + i > 3000:
                break
            assert v == scan3000.d[g.lo + i]


def test_sum_b_gamma_values():
    assert fc.sum_b_gamma(3, 4) == 1
    assert fc.sum_b_gamma(1, 5) == 5
    assert fc.square_segment_vector(1, 5) == (1, 0, 1, 0, 0, 1, 2)


def test_segment_sums_match_direct():
    for m in range(4, 13):
        total = 0
        for j in (1, 2, 3):
            direct = sum(fc.square_segment_vector(j, m))
            assert fc.sum_b_gamma(j, m) == direct
            total += direct
        assert fc.phi(m) == total
    for m in range(7, 14):
        assert fc.sum_d_gamma(m) == sum(fc.cube_segment_vector(m))


def test_cumulative_at_segment_ends():
    # and at every position: the running sums of the vectors
    running = 0
    for m in range(4, 17):
        for j in (3, 2, 1):
            g = fc.square_gamma(j, m)
            cum = list(accumulate(fc.square_segment_vector(j, m),
                                  initial=running))[1:]
            assert [fc.algorithm_B(i) for i in range(g.lo, g.hi + 1)] == cum
            running = cum[-1]
            assert fc.b_cum_at_gamma_max(j, m) == running
    running = 0
    for m in range(7, 17):
        g = fc.cube_gamma(m)
        cum = list(accumulate(fc.cube_segment_vector(m), initial=running))[1:]
        assert [fc.algorithm_D(i) for i in range(g.lo, g.hi + 1)] == cum
        running = cum[-1]
        assert fc.d_cum_at_gamma_max(m) == running


def test_b_cum_values():
    assert fc.b_cum_at_gamma_max(3, 7) == 45


def test_b_cum_chaining():
    for m in range(4, 31):
        assert (fc.b_cum_at_gamma_max(2, m) + fc.sum_b_gamma(1, m)
                == fc.b_cum_at_gamma_max(1, m))
        assert (fc.b_cum_at_gamma_max(3, m) + fc.sum_b_gamma(2, m)
                == fc.b_cum_at_gamma_max(2, m))
    for m in range(4, 21):
        nxt = fc.square_gamma(3, m + 1).lo
        assert fc.b_cum_at_gamma_max(1, m) == fc.algorithm_B(nxt) - fc.b_at(nxt)


def test_phi_recurrence():
    for m in range(7, 21):
        inc = exact_div(-3 * t(m) + 6 * t(m - 1) + t(m - 2) - 1, 2)
        assert fc.phi(m) == fc.phi(m - 1) + fc.phi(m - 2) + fc.phi(m - 3) + inc
    # phi stops where the square segments it sums do
    assert fc.phi(68) == sum(fc.sum_b_gamma(j, 68) for j in (1, 2, 3))
    with pytest.raises(ValueError, match=r"order 69 outside \[4, 68\]"):
        fc.phi(69)


def test_segment_sum_recurrences():
    for m in range(5, 21):
        assert fc.sum_b_gamma(1, m) == fc.phi(m - 1) + k(m) - 1
    for m in range(6, 21):
        assert fc.sum_b_gamma(2, m) == fc.phi(m - 2) + k(m) - 1
    for m in range(7, 21):
        assert fc.sum_b_gamma(3, m) == fc.phi(m - 3) + t(m - 4) - k(m - 3) + 1
    for m in range(10, 21):
        assert fc.sum_d_gamma(m) == (fc.sum_d_gamma(m - 1) + fc.sum_d_gamma(m - 2)
                                     + fc.sum_d_gamma(m - 3)
                                     + exact_div(t(m - 2) - 3 * t(m - 4) - 1, 2))


def test_sum_d_gamma_values():
    assert fc.sum_d_gamma(7) == 1
    assert fc.sum_d_gamma(8) == 3
    assert fc.sum_d_gamma(12) == sum(fc.cube_segment_vector(12))


def test_d_cum_values():
    assert fc.d_cum_at_gamma_max(7) == 1
    assert fc.d_cum_at_gamma_max(9) == 12
    assert fc.d_cum_at_gamma_max(15) == sum(fc.sum_d_gamma(j) for j in range(7, 16))


def test_d_cum_continuity_across_segments():
    # no cube ends at a segment's first position, so the cumulative count
    # carries over unchanged
    for m in range(7, 20):
        nxt = fc.cube_gamma(m + 1).lo
        assert fc.algorithm_D(nxt) == fc.d_cum_at_gamma_max(m)
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
        tail = fc.algorithm_B(t(m)) - fc.b_cum_at_gamma_max(2, m)
        num = (m * (23 * t(m) - 38 * t(m - 1) - 3 * t(m - 2))
               + (-65 * t(m) + 164 * t(m - 1) - 105 * t(m - 2))
               + 33 * m - 99)
        assert tail == exact_div(num, 44)


def test_square_case_block_points():
    assert list(fc.square_case_block(3, 4, 1)) == [8]
    assert list(fc.square_case_block(1, 5, 1)) == [26, 27]
    assert list(fc.square_case_block(1, 5, 3)) == [70, 71]


def test_graph_embedding(scan3000):
    invariant_checks.check_graph_embedding(scan3000, prefix(3000))


ROW_FIELDS = ("lo", "hi", "cut1", "cut2", "first", "shift", "inc_lo",
              "inc_hi", "sums", "cums")


def _table_rows(seg):
    """The rows as ``fc._Segments`` takes them, total and cumulative count
    in place of ``delta``."""
    return [list(row[:8]) + [total, cum]
            for row, total, cum in zip(seg.rows, seg.sums, seg.cums)]


def _with_wrong_entry(seg, s, field):
    rows = _table_rows(seg)
    rows[s][ROW_FIELDS.index(field)] += 1
    return fc._Segments(rows, seg.base, seg.base_cum, seg.label)


@pytest.mark.parametrize("field, message", [
    ("lo", r"tiling broken at square segment \(j=2, m=30\)"),
    ("cums", r"cumulative chaining broken at square segment \(j=2, m=30\)"),
    ("sums", r"cumulative chaining broken at square segment \(j=2, m=30\)"),
    ("cut1", r"child segments do not line up with the cuts of "
             r"square segment \(j=2, m=30\)"),
    ("inc_lo", r"unit increments of square segment \(j=2, m=30\) do not "
               r"complete the copy of its children"),
    ("inc_hi", r"unit increments of square segment \(j=2, m=30\) do not "
               r"complete the copy of its children"),
])
def test_self_check_names_broken_square_segment(field, message):
    seg = fc._square_segments()
    broken = _with_wrong_entry(seg, 3 * (30 - 4) + 3 - 2, field)
    with pytest.raises(RuntimeError, match=message):
        fc._check_segments(broken, fc.SQUARE_START)


@pytest.mark.parametrize("field, message", [
    ("lo", r"tiling broken at cube segment m=40"),
    ("cums", r"cumulative chaining broken at cube segment m=40"),
    ("shift", r"child segments do not line up with the cuts of "
              r"cube segment m=40"),
    ("inc_lo", r"unit increments of cube segment m=40 do not complete the "
               r"copy of its children"),
    ("inc_hi", r"unit increments of cube segment m=40 do not complete the "
               r"copy of its children"),
])
def test_self_check_names_broken_cube_segment(field, message):
    seg = fc._cube_segments()
    broken = _with_wrong_entry(seg, 40 - 7, field)
    with pytest.raises(RuntimeError, match=message):
        fc._check_segments(broken, fc.CUBE_START)


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
    with pytest.raises(RuntimeError, match="child segments do not line up "
                       "with the cuts of " + re.escape(seg.label(s))):
        fc._check_segments(_with_wrong_entry(seg, s, field), seg.lo[0])


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_self_check_names_the_segment_that_disagrees_with_the_floor(tiling):
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    base = bytearray(seg.base)
    base[1000] += 1
    broken = fc._Segments(_table_rows(seg), bytes(base),
                          array("q", accumulate(base)), seg.label)
    s = bisect_right(seg.lo, 1000) - 1
    with pytest.raises(RuntimeError, match="cumulative count at "
                       + re.escape(seg.label(s)) + " disagrees with the "
                       "floor"):
        fc._check_segments(broken, seg.lo[0])


def test_copied_counts_never_wrap():
    # one explicit segment at 255 and a copy of it with a unit increment
    rows = [(0, 0, 0, 0, -1, 0, 0, -1), (1, 1, 1, 1, 0, 1, 1, 1)]
    assert fc._counts(rows[:1], {0: (255,)}, 0) == bytearray(b"\xff")
    with pytest.raises(RuntimeError, match=r"a count in \[1, 1\] passes 255"):
        fc._counts(rows, {0: (255,)}, 1)


def test_vectors_at_the_materialization_cap_sum_to_the_closed_forms():
    assert sum(fc.square_segment_vector(1, 28)) == fc.sum_b_gamma(1, 28)
    assert sum(fc.cube_segment_vector(27)) == fc.sum_d_gamma(27)


FLOOR_TOP = 3735  # last position of square order 13 and of cube order 13


def _every_piece(seg):
    """(segment, piece) for every segment above the floor, building the
    pieces of each."""
    top = len(seg.base) - 1
    for s, row in enumerate(seg.rows):
        if row[1] > top:
            for piece in fc._segment_pieces(seg, s)[1]:
                yield s, piece


PIECE_FIELDS = ("lo", "hi", "shift", "next", "a", "b")


def _with_wrong_piece(seg, s, field):
    starts, pieces = fc._segment_pieces(seg, s)
    first = list(pieces[0])
    first[PIECE_FIELDS.index(field)] += 1
    return starts, (tuple(first),) + pieces[1:]


@pytest.mark.parametrize("field, message", [
    ("lo", r"piece starts of square segment \(j=2, m=30\) do not match"),
    ("shift", r"a piece of square segment \(j=2, m=30\) does not shift by "
              r"its steps"),
    ("next", r"a piece of square segment \(j=2, m=30\) does not land inside "
             r"the segment it names"),
])
def test_self_check_names_broken_square_piece(field, message):
    seg = fc._square_segments()
    s = 3 * (30 - 4) + 3 - 2
    with pytest.raises(RuntimeError, match=message):
        fc._check_pieces(seg, s, _with_wrong_piece(seg, s, field))


@pytest.mark.parametrize("field, message", [
    ("lo", r"piece starts of cube segment m=40 do not match"),
    ("shift", r"a piece of cube segment m=40 does not shift by its steps"),
    ("next", r"a piece of cube segment m=40 does not land inside the "
             r"segment it names"),
])
def test_self_check_names_broken_cube_piece(field, message):
    seg = fc._cube_segments()
    with pytest.raises(RuntimeError, match=message):
        fc._check_pieces(seg, 40 - 7, _with_wrong_piece(seg, 40 - 7, field))


def test_self_check_of_pieces_names_the_break():
    seg = fc._square_segments()
    s = 3 * (30 - 4) + 3 - 2
    starts, pieces = fc._segment_pieces(seg, s)
    lo, hi, shift, nxt, a, b = pieces[0]
    i = starts.index(seg.rows[s][2])  # the first piece of the second child
    cases = [
        # starts moved along with the piece: the tiling breaks
        ((lo + 1,) + starts[1:], ((lo + 1, hi, shift, nxt, a, b),)
         + pieces[1:], "do not tile it"),
        # the last piece dropped
        (starts[:-1], pieces[:-1], "do not tile it"),
        # a jump that lands in the floor while claiming a segment
        (starts, ((lo, hi, shift, -1, a, b),) + pieces[1:],
         "does not land inside the floor"),
        # a jump to a segment past the last one, or to one in the floor
        (starts, ((lo, hi, shift, len(seg.rows), a, b),) + pieces[1:],
         "names no segment above the floor"),
        (starts, ((lo, hi, shift, 0, a, b),) + pieces[1:],
         "names no segment above the floor"),
        # two pieces merged across the first child cut
        (starts[:i] + starts[i + 1:],
         pieces[:i - 1] + (pieces[i - 1][:1] + pieces[i][1:],)
         + pieces[i + 1:], "leaves the child it was composed from"),
    ]
    for bad_starts, bad_pieces, message in cases:
        with pytest.raises(RuntimeError,
                           match=re.escape(seg.label(s)) + ".* " + message):
            fc._check_pieces(seg, s, (bad_starts, bad_pieces))


def _reference_walk(seg, n):
    """The copy recursion one step at a time over ``seg.rows``: the counts
    ending at n and at or before n, for n past the floor."""
    top = len(seg.base) - 1
    s = bisect_right(seg.lo, n) - 1
    point = cumulative = 0
    while n > top:
        lo, hi, cut1, cut2, c, shift, inc_lo, inc_hi, delta = seg.rows[s]
        assert lo <= n <= hi
        point += inc_lo <= n <= inc_hi
        cumulative += delta + max(0, min(n, inc_hi) - inc_lo + 1)
        s = c + (n >= cut1) + (n >= cut2)
        n -= shift
    return point + seg.base[n], cumulative + seg.base_cum[n]


def _two_level_walk(seg, n):
    return fc._point(seg, n), fc._cumulative(seg, n)


@pytest.mark.parametrize("tiling", ["square", "cube"])
def test_jumps_match_one_step_walk_at_every_piece_end(tiling):
    seg = fc._square_segments() if tiling == "square" else fc._cube_segments()
    for _, (lo, hi, _, _, _, _) in _every_piece(seg):
        for n in (lo - 1, lo, hi, hi + 1):
            if n <= N_CAP:
                assert _two_level_walk(seg, n) == _reference_walk(seg, n), n


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(min_value=FLOOR_TOP + 1, max_value=N_CAP))
def test_jumps_match_one_step_walk(n):
    for seg in (fc._square_segments(), fc._cube_segments()):
        assert _two_level_walk(seg, n) == _reference_walk(seg, n)


def test_segment_views_stop_at_the_cap():
    # the tables hold every order up to the one whose segments reach 10^18
    assert fc.square_gamma(1, 68).hi >= 10**18 > fc.square_gamma(1, 67).hi
    assert fc.cube_gamma(68).hi >= 10**18 > fc.cube_gamma(67).hi
    with pytest.raises(ValueError, match=r"order 69 outside \[4, 68\]"):
        fc.square_gamma(3, 69)
    with pytest.raises(ValueError, match=r"order 69 outside \[7, 68\]"):
        fc.sum_d_gamma(69)


def test_floors_end_together_with_their_prefix_sums():
    for seg in (fc._square_segments(), fc._cube_segments()):
        assert len(seg.base) == len(seg.base_cum) == FLOOR_TOP + 1
        assert tuple(seg.base_cum) == tuple(accumulate(seg.base))
    assert fc.square_gamma(1, 13).hi == fc.cube_gamma(13).hi == FLOOR_TOP


def test_floors_match_oracle(scan5000):
    floor = slice(FLOOR_TOP + 1)
    assert tuple(fc._square_segments().base) == tuple(scan5000.b[floor])
    assert tuple(fc._cube_segments().base) == tuple(scan5000.d[floor])


def test_counts_above_the_floor_match_oracle(scan5000):
    # the first steps of the descents, from just below the floor's end
    acc_b = list(accumulate(scan5000.b))
    acc_d = list(accumulate(scan5000.d))
    for n in range(3700, 5001):
        assert fc.b_at(n) == scan5000.b[n], n
        assert fc.d_at(n) == scan5000.d[n], n
        assert fc.algorithm_B(n) == acc_b[n], n
        assert fc.algorithm_D(n) == acc_d[n], n


def test_vectors_above_the_floor_are_not_kept():
    tracemalloc.start()
    try:
        square = fc.square_segment_vector(1, 22)
        cube = fc.cube_segment_vector(21)
        sums = sum(square), sum(cube)
        digests = (hashlib.sha256(bytes(square)).hexdigest(),
                   hashlib.sha256(bytes(cube)).hexdigest())
        del square, cube
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert sums == (fc.sum_b_gamma(1, 22), fc.sum_d_gamma(21))
    # the vectors as the fully memoised recursion built them
    assert digests == (
        "3f01b10fbffe1a56a23fbb59b790558d9045fd16ae53e551d8fbf2706ecf4285",
        "8fe29db0ac188ccc2dda703e0d0c213b6cf7b2967e1a6be0413123e79ccb075c")
