"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; any failure shows up as an ordinary pytest failure with the
offending comparison.
"""

import random
import time

from tribcount import closed_forms as cf
from tribcount import fast_count as fc
from tribcount import oracle
from tribcount import tiling as tl
from tribcount.core_word import prefix, trib_number as t

import invariant_checks
from invariant_checks import phi, segment_closed_forms, square_index
from paper_checks import glen_distinct_squares_at_t


def test_criterion_1_worked_examples():
    assert cf.distinct_squares(65) == 29
    assert cf.repeated_squares_at_t(5) == 9
    assert fc.algorithm_B(24) == 9
    assert cf.distinct_cubes(365) == 11
    assert cf.repeated_cubes_at_t(8) == 4
    assert fc.algorithm_D(149) == 4
    assert fc.algorithm_B(60) == 47
    assert fc.algorithm_D(500) == 29
    assert segment_closed_forms("square")[1][square_index(3, 7)] == 45
    assert fc.algorithm_B(58) == 45
    assert segment_closed_forms("cube")[1][square_index(1, 9)] == 12
    assert fc.algorithm_D(325) == 12
    print("criterion 1 PASS: worked examples exact")


def test_criterion_2_position_lists():
    s65 = oracle.scan_repetitions(65)
    assert [i for i in range(1, 66) if s65.a[i]] == invariant_checks.SQUARE_ENDS_65
    s365 = oracle.scan_repetitions(365)
    assert [i for i in range(1, 366) if s365.c[i]] == invariant_checks.CUBE_ENDS_365
    s500 = oracle.scan_repetitions(500)
    assert list(s500.cubes) == invariant_checks.CUBE_ENDS_500_REPEATED
    print("criterion 2 PASS: position lists verbatim")


def test_criterion_3_oracle_equivalence_sweep(scan3000):
    acc = {"a": 0, "b": 0, "c": 0, "d": 0}
    for n in range(1, 3001):
        acc["a"] += scan3000.a[n]
        acc["b"] += scan3000.b[n]
        acc["c"] += scan3000.c[n]
        acc["d"] += scan3000.d[n]
        assert cf.distinct_squares(n) == acc["a"], n
        assert fc.algorithm_B(n) == acc["b"], n
        assert cf.distinct_cubes(n) == acc["c"], n
        assert fc.algorithm_D(n) == acc["d"], n
    print("criterion 3 PASS: formulas equal brute force on [1, 3000]")


def test_criterion_4_exhaustive_validation(scan600_restricted, scan600_exhaustive):
    r, x = scan600_restricted, scan600_exhaustive
    assert (r.a, r.b, r.c, r.d) == (x.a, x.b, x.c, x.d)
    singles = {t(m) for m in range(0, 15)}
    doubles = {t(m) + t(m - 1) for m in range(0, 15)}
    word = prefix(600)
    for L, _, _ in x.square_runs:
        assert L in singles | doubles
    for L, _, _ in x.cube_runs:
        assert L in singles
    # the claims that verify --exhaustive reads off the scan, and the
    # power-4 pass they replace
    assert all(oracle._claims(x).values())
    assert invariant_checks.assert_no_fourth_powers(600)
    for p, runs in ((2, x.square_runs), (3, x.cube_runs)):
        for e, L in invariant_checks.run_occurrences(runs):
            root = word[e - p * L:e - (p - 1) * L]
            assert oracle.is_primitive(root)
    print("criterion 4 PASS: exhaustive scan at 600 clean")


def test_criterion_5_cross_formula_consistency():
    # every block length up to N_CAP: t_67 is the last
    for m in range(3, 68):
        assert cf.repeated_squares_at_t(m) == fc.algorithm_B(t(m)), m
        assert cf.repeated_cubes_at_t(m) == fc.algorithm_D(t(m)), m
        assert cf.distinct_squares_at_t(m) == glen_distinct_squares_at_t(m), m
        assert cf.distinct_squares_at_t(m) == cf.distinct_squares(t(m)), m
        assert cf.distinct_cubes_at_t(m) == cf.distinct_cubes(t(m)), m
    print("criterion 5 PASS: cross-formula consistency on [3, 67]")


def test_criterion_6_structural_recursion(scan3000):
    # orders 4-20 make the descents' floor, read from its prefix sums
    for kind, at, column in (("square", fc.b_at, scan3000.b),
                             ("cube", fc.d_at, scan3000.d)):
        seg = fc._tables(kind)
        sums, cums = segment_closed_forms(kind)
        running = 0
        for m in range(4, 21):
            for j in (3, 2, 1):
                s = square_index(j, m)
                lo, hi = seg.rows[s][:2]
                vec = tuple(tl._counts(seg.rows, hi)[lo:])
                assert sums[s] == sum(vec)
                running += sum(vec)
                assert cums[s] == running
                for i, v in enumerate(vec):
                    assert v == at(lo + i)
                    if lo + i <= 3000:
                        assert v == column[lo + i]
    sums = segment_closed_forms("square")[0]
    for m in range(4, 21):
        assert phi(m) == sum(sums[square_index(j, m)] for j in (1, 2, 3))
    print("criterion 6 PASS: recursions, point counts and sums agree")


def test_criterion_7_performance():
    rng = random.Random(20250810)
    samples = [rng.randrange(10**15, 2 * 10**15) for _ in range(50)]
    samples += [10**15, 10**18]
    for n in samples:  # warm caches and exercise the divisibility checks
        fc.algorithm_B(n)
        fc.algorithm_D(n)

    def best_per_call(fn, n, batches=5, per_batch=200):
        best = float("inf")
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(per_batch):
                fn(n)
            best = min(best, (time.perf_counter() - t0) / per_batch)
        return best

    tb = best_per_call(fc.algorithm_B, 10**15 + 12345)
    td = best_per_call(fc.algorithm_D, 10**15 + 12345)
    assert tb < 1e-3, f"algorithm_B too slow: {tb * 1e3:.3f} ms"
    assert td < 1e-3, f"algorithm_D too slow: {td * 1e3:.3f} ms"
    print(f"criterion 7 PASS: B {tb * 1e6:.0f} us/call, D {td * 1e6:.0f} us/call at n~1e15")


def test_criterion_8_property_suites(scan3000):
    invariant_checks.check_letter_count_identities(10_000)
    invariant_checks.check_kernel_gap_coding(8, 100_000)
    invariant_checks.check_segment_tiling(40)
    invariant_checks.check_graph_embedding(scan3000, prefix(3000))
    print("criterion 8 PASS: invariant property suites hold")
