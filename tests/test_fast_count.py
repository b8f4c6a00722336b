import pytest

from tribcount import fast_count as fc
from tribcount.core_word import exact_div, kernel_number as k, prefix, trib_number as t

import invariant_checks


def test_base_square_table_matches_enumeration():
    assert list(fc._B_SMALL[1:]) == invariant_checks.B_SMALL_1_51


def test_base_cube_table():
    nonzero = {i: v for i, v in enumerate(fc._D_SMALL) if v}
    assert nonzero == {58: 1, 107: 1, 108: 1, 139: 1, 197: 1, 198: 1,
                       199: 1, 200: 1, 207: 1, 256: 1, 257: 1, 288: 1}


def test_segment_tiling():
    invariant_checks.check_segment_tiling(40)



def test_segment_records_compare_by_value():
    g = fc.square_gamma(2, 12)
    same = fc.SquareGamma(g.j, g.m, g.lo, g.hi, g.cut1, g.cut2, g.eta)
    assert g == same and hash(g) == hash(same)
    assert g != fc.square_gamma(1, 12) and g != fc.cube_gamma(12)
    assert repr(g).startswith("SquareGamma(j=2, m=12, lo=")

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


def test_square_vectors_match_single_point():
    for m in range(4, 13):
        for j in (1, 2, 3):
            g = fc.square_gamma(j, m)
            vec = fc.square_segment_vector(j, m)
            assert len(vec) == g.hi - g.lo + 1
            assert list(vec) == [fc.b_at(i) for i in range(g.lo, g.hi + 1)]


def test_cube_vectors_match_single_point():
    for m in range(7, 14):
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
    running = 0
    for m in range(4, 13):
        for j in (3, 2, 1):
            running += sum(fc.square_segment_vector(j, m))
            assert fc.b_cum_at_gamma_max(j, m) == running
            assert fc.algorithm_B(fc.square_gamma(j, m).hi) == running
    running = 0
    for m in range(7, 14):
        running += sum(fc.cube_segment_vector(m))
        assert fc.d_cum_at_gamma_max(m) == running
        assert fc.algorithm_D(fc.cube_gamma(m).hi) == running


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
    with pytest.raises(ValueError, match="stop at order 68"):
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


def _with_wrong_entry(seg, s, field):
    cols = [list(getattr(seg, f)) for f in ROW_FIELDS]
    cols[ROW_FIELDS.index(field)][s] += 1
    return fc._Segments(list(zip(*cols)), seg.base, seg.base_cum, seg.label)


@pytest.mark.parametrize("field, message", [
    ("lo", r"tiling broken at square segment \(j=2, m=30\)"),
    ("cums", r"cumulative chaining broken at square segment \(j=2, m=30\)"),
    ("sums", r"cumulative chaining broken at square segment \(j=2, m=30\)"),
    ("cut1", r"child segments do not line up with the cuts of "
             r"square segment \(j=2, m=30\)"),
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
])
def test_self_check_names_broken_cube_segment(field, message):
    seg = fc._cube_segments()
    broken = _with_wrong_entry(seg, 40 - 7, field)
    with pytest.raises(RuntimeError, match=message):
        fc._check_segments(broken, fc.CUBE_START)


def test_segment_views_stop_at_the_cap():
    # the tables hold every order up to the one whose segments reach 10^18
    assert fc.square_gamma(1, 68).hi >= 10**18 > fc.square_gamma(1, 67).hi
    assert fc.cube_gamma(68).hi >= 10**18 > fc.cube_gamma(67).hi
    with pytest.raises(ValueError, match="stop at order 68"):
        fc.square_gamma(3, 69)
    with pytest.raises(ValueError, match="stop at order 68"):
        fc.sum_d_gamma(69)
