import pytest

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
    ends = [r.end_pos for r in s.cubes]
    assert ends == invariant_checks.CUBE_ENDS_500_REPEATED
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
    assert r.cubes == x.cubes


def test_repetition_lengths_restricted(scan600_exhaustive):
    from tribcount.core_word import trib_number
    singles = {trib_number(m) for m in range(0, 15)}
    doubles = {trib_number(m) + trib_number(m - 1) for m in range(0, 15)}
    for r in scan600_exhaustive.squares:
        assert r.root_len in singles | doubles, r
    for r in scan600_exhaustive.cubes:
        assert r.root_len in singles, r


def test_no_fourth_powers():
    assert oracle.assert_no_fourth_powers(10)
    assert oracle.assert_no_fourth_powers(100)
    assert oracle.assert_no_fourth_powers(600)
    with pytest.raises(ValueError):
        oracle.assert_no_fourth_powers(601)


def test_roots_primitive(scan600_exhaustive):
    word = prefix(600)
    for recs in (scan600_exhaustive.squares, scan600_exhaustive.cubes):
        for r in recs:
            root = word[r.end_pos - r.power * r.root_len:
                        r.end_pos - (r.power - 1) * r.root_len]
            assert oracle.is_primitive(root), r


def test_is_primitive():
    assert oracle.is_primitive("a")
    assert oracle.is_primitive("aba")
    assert not oracle.is_primitive("abab")
    assert not oracle.is_primitive("aaa")


def test_records_are_real_repetitions():
    # re-verify a sample of occurrence records by direct slicing, without
    # going through the scan kernels
    s = oracle.scan_repetitions(400)
    word = prefix(400)
    for recs in (s.squares, s.cubes):
        for r in recs:
            root = word[r.end_pos - r.power * r.root_len:
                        r.end_pos - (r.power - 1) * r.root_len]
            assert word[r.end_pos - r.power * r.root_len:r.end_pos] == root * r.power


def test_square_halves_are_consecutive_occurrences():
    s = oracle.scan_repetitions(300)
    word = prefix(300)
    for r in s.squares:
        root = word[r.end_pos - 2 * r.root_len:r.end_pos - r.root_len]
        ends = oracle.occurrences(root, 300)
        i = ends.index(r.end_pos - r.root_len)
        assert ends[i + 1] == r.end_pos, r


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


def test_scan_inputs():
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [1], 1)
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [0, 1], 2)
    assert _kernels.find_repetitions(b"", [1, 2], 2) == ([], [])
    assert _kernels.find_repetitions(prefix(20).encode(), [7, 11], 3) == ([], [])


def test_oracle_cap():
    with pytest.raises(ValueError):
        oracle.scan_repetitions(oracle.oracle_cap() + 1)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(601, exhaustive=True)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(0)


def test_oracle_cap_env(monkeypatch):
    monkeypatch.setenv("TRIB_ORACLE_CAP", "100")
    assert oracle.oracle_cap() == 100
    with pytest.raises(ValueError):
        oracle.scan_repetitions(101)
    oracle.scan_repetitions(100)
