import random
import re
from array import array
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from tribcount import _kernels, closed_forms, fast_count, oracle
from tribcount.core_word import prefix, trib_number

import invariant_checks
import paper_checks
import spot_oracle


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


def test_summaries_compare_by_value():
    s = oracle.scan_repetitions(100)
    same = oracle.RepetitionSummary(*s)
    assert s == same and hash(s) == hash(same)
    assert s != oracle.scan_repetitions(101)
    assert repr(s).startswith("RepetitionSummary(n=100, distinct_squares=")
    with pytest.raises(TypeError, match="cube_runs"):
        oracle.RepetitionSummary(*s[:-1])


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
    assert r.square_runs == x.square_runs
    assert r.cubes == x.cubes
    assert r.cube_runs == x.cube_runs


def test_repetition_lengths_restricted(scan600_exhaustive):
    from tribcount.core_word import trib_number
    singles = {trib_number(m) for m in range(0, 15)}
    doubles = {trib_number(m) + trib_number(m - 1) for m in range(0, 15)}
    x = scan600_exhaustive
    for run in x.square_runs:
        assert run[0] in singles | doubles, run
    for run in x.cube_runs:
        assert run[0] in singles, run


def test_no_fourth_powers():
    assert invariant_checks.assert_no_fourth_powers(10)
    assert invariant_checks.assert_no_fourth_powers(100)
    assert invariant_checks.assert_no_fourth_powers(600)
    with pytest.raises(ValueError):
        invariant_checks.assert_no_fourth_powers(oracle.EXHAUSTIVE_CAP + 1)


@pytest.mark.parametrize("n", [600, oracle.EXHAUSTIVE_CAP])
def test_fourth_powers_read_off_the_square_runs(n, scan600_exhaustive):
    # the runs check of verify --exhaustive against a power-4 pass of its
    # own over every root length
    s = (scan600_exhaustive if n == 600
         else oracle.scan_repetitions(n, exhaustive=True))
    roots = range(1, n // 4 + 1)
    word = prefix(n).encode()
    assert (oracle._power_runs(s.square_runs, 4, roots)
            == tuple(_kernels.find_repetitions(word, roots, 4)) == ())
    assert oracle._claims(s)["fourth powers absent"]
    assert invariant_checks.assert_no_fourth_powers(n)


def _occurrences(s):
    """(power, end, root length) of every occurrence in a scan summary."""
    for power, runs in ((2, s.square_runs), (3, s.cube_runs)):
        for e, L in invariant_checks.run_occurrences(runs):
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
    for e, L in invariant_checks.run_occurrences(s.square_runs):
        root = word[e - 2 * L:e - L]
        ends = paper_checks.occurrences(root, 300)
        i = ends.index(e - L)
        assert ends[i + 1] == e, (e, L)


def _separated(runs) -> bool:
    """True iff the runs are sorted by root length and then by end, and
    runs of one root length neither overlap nor touch."""
    return all(L < M or L == M and first > last + 1
               for (L, _, last), (M, first, _) in zip(runs, runs[1:]))


def test_occurrence_columns(scan3000):
    # one end per occurrence in the runs, so they tally to the per-position
    # counts, and the end columns list each position once per count
    s = scan3000
    for runs, counts, ends in ((s.square_runs, s.b, s.squares),
                               (s.cube_runs, s.d, s.cubes)):
        tally = Counter(e for e, _ in invariant_checks.run_occurrences(runs))
        assert tally == {i: v for i, v in enumerate(counts) if v}
        assert list(ends) == sorted(tally.elements())
        assert all(first <= last for _, first, last in runs)
        assert _separated(runs)


def test_indicators_match_formulas(scan3000):
    for n in range(1, 3001):
        assert scan3000.a[n] == closed_forms.a_indicator(n)
        assert scan3000.c[n] == closed_forms.c_indicator(n)
        assert scan3000.b[n] == fast_count.b_at(n)
        assert scan3000.d[n] == fast_count.d_at(n)


def test_occurrences_values():
    assert paper_checks.occurrences("aa", 40) == [8, 21, 32]
    assert paper_checks.occurrences("c", 20)[0] == 4
    assert paper_checks.occurrences("zz", 40) == []
    with pytest.raises(ValueError):
        paper_checks.occurrences("", 10)


def test_gap_pattern_letter_a():
    gaps = paper_checks.gap_pattern("a", 20)
    assert gaps[3] == 0


def test_gap_pattern_needs_occurrences():
    with pytest.raises(ValueError):
        paper_checks.gap_pattern("abacabaabacab", 30)


def test_gap_coding_matches_word():
    for w in ("a", "b", "aa", "abacaba"):
        coded = paper_checks.gap_coding(w, 2000)
        assert coded == prefix(len(coded)), w


def test_gap_values_bounded():
    for w in ("a", "b", "aa", "abacaba"):
        steps = paper_checks._steps(w, 2000)
        assert len(set(steps)) <= 3


def test_kernel_of():
    word = prefix(100)
    assert paper_checks.kernel_of("aa") == 4
    assert paper_checks.kernel_of(word[1:27]) == 5    # 26-letter square ending at 27
    assert paper_checks.kernel_of(word[31:71]) == 7   # 40-letter square ending at 71
    with pytest.raises(ValueError):
        paper_checks.kernel_of("ccc")


def _direct_repetitions(word: bytes, p: int) -> list:
    """(end, root length) of every p-fold repetition in ``word``, found by
    slicing, sorted by end and then by root length."""
    return [(e, L) for e in range(1, len(word) + 1)
            for L in range(1, e // p + 1)
            if word[e - p * L:e] == word[e - p * L:e - (p - 1) * L] * p]


def test_scan_matches_direct_comparison():
    # a repetition ending at e depends only on the first e letters, so the
    # reference for the length-n prefix is the length-300 one cut at n
    full = prefix(300).encode()
    for p in (2, 3, 4):
        reference = _direct_repetitions(full, p)
        for n in range(len(full) + 1):
            runs = _kernels.find_repetitions(full[:n], range(1, n + 1), p)
            got = invariant_checks.run_occurrences(runs)
            assert got == [r for r in reference if r[0] <= n], (n, p)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet="ab", max_size=60), st.sampled_from([2, 3, 4]))
def test_runs_on_binary_words(word, power):
    # over two letters every power occurs, fourth powers included, which
    # the Tribonacci prefix never shows the scan
    word = word.encode()
    runs = _kernels.find_repetitions(word, range(1, len(word) + 1), power)
    got = invariant_checks.run_occurrences(runs)
    assert got == _direct_repetitions(word, power)
    assert _separated(runs)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet="ab", max_size=60), st.sampled_from([3, 4]),
       st.sets(st.integers(1, 20)))
def test_power_runs_on_binary_words(word, power, roots):
    # cubes and fourth powers read off the square runs are the runs that a
    # scan at their own power finds, over every root length and over a
    # drawn set of them
    word = word.encode()
    every = range(1, len(word) + 1)
    squares = _kernels.find_repetitions(word, every, 2)
    for lengths in (every, roots):
        assert (list(oracle._power_runs(squares, power, lengths))
                == _kernels.find_repetitions(word, lengths, power))


def test_two_new_repetitions_at_one_end_raise():
    # with no earlier suffix known, the squares aa and aaaa both look new
    # at position 4
    lp = array("i", bytes(4 * 5))
    runs = _kernels.find_repetitions(b"aaaa", [1, 2], 2)
    with pytest.raises(AssertionError, match="repetitions end at 4$"):
        oracle._collect(runs, 2, lp)


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


def _formulas_equal_running_sums(summary):
    for fn, column in ((closed_forms.distinct_squares, summary.a),
                       (fast_count.algorithm_B, summary.b),
                       (closed_forms.distinct_cubes, summary.c),
                       (fast_count.algorithm_D, summary.d)):
        sums = list(accumulate(column))
        assert [fn(i) for i in range(summary.n + 1)] == sums, fn.__name__


def test_formulas_equal_running_sums_at_the_cap(scan_cap):
    assert scan_cap.n == oracle.ORACLE_CAP
    _formulas_equal_running_sums(scan_cap)


def test_kernel_route_equals_the_scan(scan_cap):
    # the paper's route to b and d, from the kernel words' occurrences, at
    # every n up to the oracle's cap
    assert paper_checks.kernel_route("square", scan_cap.n) == list(scan_cap.b)
    assert paper_checks.kernel_route("cube", scan_cap.n) == list(scan_cap.d)


@pytest.mark.parametrize("order_shift", [-1, 1])
def test_kernel_route_pairs_each_block_with_its_order(scan_cap, order_shift):
    # paired with the kernel word one order off, the route goes wrong at
    # most positions of the square tiling and at thousands of the cube's
    for kind, column, least in (("square", scan_cap.b, 50_000),
                                ("cube", scan_cap.d, 5_000)):
        got = paper_checks.kernel_route(kind, scan_cap.n, order_shift)
        assert sum(x != y for x, y in zip(got, column)) > least, kind


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**18))
def test_kernel_closed_matches_the_counters(n):
    # the paper's route to B and D in closed form, far past the oracle
    assert paper_checks.kernel_mismatches([n]) == []


def test_kernel_closed_matches_the_counters_at_edges():
    # a seeded sample of the tilings' edges, which the CI step checks in
    # full, and 0
    ns = [0] + random.Random(35).sample(spot_oracle.edges(), 150)
    assert paper_checks.kernel_mismatches(ns) == []


@pytest.mark.parametrize("order_shift", [-1, 1])
def test_kernel_closed_pairs_each_block_with_its_order(order_shift):
    # one kernel order off, the closed form is wrong for B and D alike
    rng = random.Random(35)
    ns = [int(10 ** rng.uniform(3, 18)) for _ in range(20)]
    bad = paper_checks.kernel_mismatches(ns, order_shift)
    assert len(bad) == 2 * len(ns)
    assert re.fullmatch(rf"B\({ns[0]}\): kernel route \d+, algorithm_B \d+, "
                        r"in square segment \(j=[123], m=\d+\)", bad[0])


@pytest.mark.parametrize("m", [3, 4, 7, 10, 12])
@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("past", [0, 1])
def test_scans_where_the_root_bound_decides(m, power, past):
    # at n = 2 t_m (3 t_m) a square (cube) of root t_m just fits, so the
    # root families must take t_m while t_m <= n // power
    _formulas_equal_running_sums(
        oracle.scan_repetitions(power * trib_number(m) + past))


def test_scan_inputs():
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [1], 1)
    with pytest.raises(ValueError):
        _kernels.find_repetitions(b"abaab", [0, 1], 2)
    assert _kernels.find_repetitions(b"", [1, 2], 2) == []
    assert _kernels.find_repetitions(prefix(20).encode(), [7, 11], 3) == []


def test_scan_caps():
    with pytest.raises(ValueError):
        oracle.scan_repetitions(oracle.ORACLE_CAP + 1)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(oracle.EXHAUSTIVE_CAP + 1, exhaustive=True)
    with pytest.raises(ValueError):
        oracle.scan_repetitions(0)
