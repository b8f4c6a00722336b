from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from tribcount import _kernels, closed_forms, fast_count, oracle
from tribcount.core_word import prefix

import invariant_checks


def test_distinct_square_ends_65():
    s = oracle.scan_repetitions(65)
    ends = [i for i in range(1, 66) if s.a[i]]
    assert ends == invariant_checks.SQUARE_ENDS_65
    assert s.distinct_squares == 29


def test_distinct_counts_small():
    assert oracle.scan_repetitions(10).distinct_squares == 2
    assert oracle.scan_repetitions(57).distinct_cubes == 0


def test_distinct_cube_ends_365():
    s = oracle.scan_repetitions(365)
    ends = [i for i in range(1, 366) if s.c[i]]
    assert ends == invariant_checks.CUBE_ENDS_365
    assert s.distinct_cubes == 11


def test_repeated_cube_ends_500():
    s = oracle.scan_repetitions(500)
    assert list(s.cubes) == invariant_checks.CUBE_ENDS_500_REPEATED
    assert s.repeated_cubes == 29


def test_checkpoints_3000(scan3000):
    assert scan3000.distinct_squares == invariant_checks.CHECKPOINT_3000["A"]
    assert scan3000.repeated_squares == invariant_checks.CHECKPOINT_3000["B"]
    assert scan3000.distinct_cubes == invariant_checks.CHECKPOINT_3000["C"]
    assert scan3000.repeated_cubes == invariant_checks.CHECKPOINT_3000["D"]


def test_restricted_equals_exhaustive(scan600_restricted, scan600_exhaustive):
    r, x = scan600_restricted, scan600_exhaustive
    assert r.a == x.a
    assert r.b == x.b
    assert r.c == x.c
    assert r.d == x.d
    assert r.squares == x.squares
    assert r.square_roots == x.square_roots
    assert r.cubes == x.cubes
    assert r.cube_roots == x.cube_roots


def test_repetition_lengths_restricted(scan600_exhaustive):
    from tribcount.core_word import trib_number
    singles = {trib_number(m) for m in range(0, 15)}
    doubles = {trib_number(m) + trib_number(m - 1) for m in range(0, 15)}
    x = scan600_exhaustive
    for e, L in zip(x.squares, x.square_roots):
        assert L in singles | doubles, (e, L)
    for e, L in zip(x.cubes, x.cube_roots):
        assert L in singles, (e, L)


def test_no_fourth_powers():
    assert oracle.assert_no_fourth_powers(10)
    assert oracle.assert_no_fourth_powers(100)
    assert oracle.assert_no_fourth_powers(600)
    with pytest.raises(ValueError):
        oracle.assert_no_fourth_powers(oracle.EXHAUSTIVE_CAP + 1)


def _occurrences(s):
    """(power, end, root length) of every occurrence in a scan summary."""
    for power, ends, roots in ((2, s.squares, s.square_roots),
                               (3, s.cubes, s.cube_roots)):
        for e, L in zip(ends, roots):
            yield power, e, L


def test_roots_primitive(scan600_exhaustive):
    word = prefix(600)
    for p, e, L in _occurrences(scan600_exhaustive):
        root = word[e - p * L:e - (p - 1) * L]
        assert oracle.is_primitive(root), (p, e, L)


def test_is_primitive():
    assert oracle.is_primitive("a")
    assert oracle.is_primitive("aba")
    assert not oracle.is_primitive("abab")
    assert not oracle.is_primitive("aaa")


def test_records_are_real_repetitions():
    # re-verify a sample of occurrences by direct slicing, without going
    # through the scan kernels
    s = oracle.scan_repetitions(400)
    word = prefix(400)
    for p, e, L in _occurrences(s):
        root = word[e - p * L:e - (p - 1) * L]
        assert word[e - p * L:e] == root * p


def test_square_halves_are_consecutive_occurrences():
    s = oracle.scan_repetitions(300)
    word = prefix(300)
    for e, L in zip(s.squares, s.square_roots):
        root = word[e - 2 * L:e - L]
        ends = oracle.occurrences(root, 300)
        i = ends.index(e - L)
        assert ends[i + 1] == e, (e, L)


def test_occurrence_columns(scan3000):
    # one end per occurrence, so the ends tally to the per-position counts
    s = scan3000
    assert Counter(s.squares) == {i: v for i, v in enumerate(s.b) if v}
    assert Counter(s.cubes) == {i: v for i, v in enumerate(s.d) if v}
    for ends, roots in ((s.squares, s.square_roots), (s.cubes, s.cube_roots)):
        assert len(ends) == len(roots)
        pairs = list(zip(ends, roots))
        assert all(p < q for p, q in zip(pairs, pairs[1:]))


def test_indicators_match_formulas(scan3000):
    for n in range(1, 3001):
        assert scan3000.a[n] == closed_forms.a_indicator(n)
        assert scan3000.c[n] == closed_forms.c_indicator(n)
        assert scan3000.b[n] == fast_count.b_at(n)
        assert scan3000.d[n] == fast_count.d_at(n)


def test_occurrences_values():
    assert oracle.occurrences("aa", 40) == [8, 21, 32]
    assert oracle.occurrences("c", 20)[0] == 4
    assert oracle.occurrences("zz", 40) == []
    with pytest.raises(ValueError):
        oracle.occurrences("", 10)


def test_gap_pattern_letter_a():
    gaps = oracle.gap_pattern("a", 20)
    assert gaps[3] == 0


def test_gap_pattern_needs_occurrences():
    with pytest.raises(ValueError):
        oracle.gap_pattern("abacabaabacab", 30)


def test_gap_coding_matches_word():
    for w in ("a", "b", "aa", "abacaba"):
        coded = oracle.gap_coding(w, 2000)
        assert coded == prefix(len(coded)), w


def test_gap_values_bounded():
    for w in ("a", "b", "aa", "abacaba"):
        steps = oracle._steps(w, 2000)
        assert len(set(steps)) <= 3


def test_kernel_of():
    word = prefix(100)
    assert oracle.kernel_of("aa") == 4
    assert oracle.kernel_of(word[1:27]) == 5    # 26-letter square ending at 27
    assert oracle.kernel_of(word[31:71]) == 7   # 40-letter square ending at 71
    with pytest.raises(ValueError):
        oracle.kernel_of("ccc")


def test_scan_matches_direct_comparison():
    # a repetition ending at e depends only on the first e letters, so the
    # reference for the length-n prefix is the length-300 one cut at n
    full = prefix(300).encode()
    for p in (2, 3, 4):
        reference = [(e, L) for e in range(1, len(full) + 1)
                     for L in range(1, e // p + 1)
                     if full[e - p * L:e] == full[e - p * L:e - (p - 1) * L] * p]
        for n in range(len(full) + 1):
            ends, roots = _kernels.find_repetitions(full[:n], range(1, n + 1), p)
            assert list(zip(ends, roots)) == [r for r in reference if r[0] <= n], (n, p)


def _longest_previous_reference(word: bytes) -> list[int]:
    # the definition: the longest suffix of word[:e] that also ends before
    # e.  A suffix that ends earlier has shorter ones that do too, so the
    # length is found by bisection.
    out = [0]
    for e in range(1, len(word) + 1):
        lo, hi = 0, e - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if word.find(word[e - mid:e], 0, e - 1) >= 0:
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
    return out


def test_longest_previous_on_the_prefix():
    word = prefix(2000).encode()
    assert list(oracle._longest_previous(word)) == _longest_previous_reference(word)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet="abc", max_size=80))
def test_longest_previous_on_random_words(word):
    word = word.encode()
    assert list(oracle._longest_previous(word)) == _longest_previous_reference(word)


def test_formulas_equal_running_sums_at_the_cap():
    n = oracle.ORACLE_CAP
    s = oracle.scan_repetitions(n)
    for fn, column in ((closed_forms.distinct_squares, s.a),
                       (fast_count.algorithm_B, s.b),
                       (closed_forms.distinct_cubes, s.c),
                       (fast_count.algorithm_D, s.d)):
        sums = list(accumulate(column))
        assert [fn(i) for i in range(n + 1)] == sums, fn.__name__


def test_scan_inputs():
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [1], 1)
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [0, 1], 2)
    assert _kernels.find_repetitions(b"", [1, 2], 2) == ([], [])
    assert _kernels.find_repetitions(prefix(20).encode(), [7, 11], 3) == ([], [])


def test_scan_caps():
    with pytest.raises(ValueError):
        oracle.scan_repetitions(oracle.ORACLE_CAP + 1)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(oracle.EXHAUSTIVE_CAP + 1, exhaustive=True)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(0)
