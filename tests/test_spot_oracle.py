"""The fingerprint spot check of b and d (``spot_oracle``) against the
library's counters far past the brute-force scan, and the paper's root
claim checked there: no square or cube outside the root families and no
fourth power."""

import random

from hypothesis import given, settings, strategies as st

from tribcount import fast_count as fc
from tribcount import oracle
from tribcount import tiling as tl
from tribcount.core_word import N_CAP

import spot_oracle as so


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(min_value=1, max_value=N_CAP))
def test_spot_check_matches_the_counters(n):
    assert so.mismatches([n]) == []


def test_spot_check_matches_the_counters_at_edges():
    # a seeded sample of the interval ends, segment bounds and piece
    # starts, each +-1, that the CI step checks in full
    ns = random.Random(33).sample(so.edges(), 80)
    assert so.mismatches(ns) == []


def test_spot_check_names_a_moved_interval_end(monkeypatch):
    # square beta of order 17, now inside the floor, one short: the
    # tables build, and the spot check names where they err
    firsts = tl._SQUARE_FIRSTS
    x, y = firsts[28]
    monkeypatch.setattr(tl, "_SQUARE_FIRSTS",
                        firsts[:28] + ((x, y - 1),) + firsts[29:])
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_KEPT", {})
    assert so.mismatches(range(y - 2, y + 3)) == [
        f"b({y}): spot check 5, b_at 4, in square segment (j=3, m=18)"]


def test_spot_check_names_a_moved_interval_end_past_the_floor(monkeypatch):
    # square beta of order 20, the first interval past the floor
    firsts = tl._SQUARE_FIRSTS
    x, y = firsts[34]
    monkeypatch.setattr(tl, "_SQUARE_FIRSTS",
                        firsts[:34] + ((x, y - 1),) + firsts[35:])
    monkeypatch.setattr(fc, "_SQUARES", None)
    monkeypatch.setattr(fc, "_KEPT", {})
    assert so.mismatches(range(y - 2, y + 3)) == [
        f"b({y}): spot check 6, b_at 5, in square segment (j=3, m=21)"]


def test_no_repetition_outside_the_root_families():
    # every root length up to 2 000 at a few far n: the squares and cubes
    # found have roots in the paper's families, and no fourth power ends.
    # A cube or fourth power with root L that ends at n ends with a square
    # with root L, so only the square roots found need the further parts.
    rng = random.Random(2016)
    for n in sorted(rng.randrange(10**12, N_CAP + 1) for _ in range(5)):
        squares = so._repetitions(n, range(1, 2001), 2)
        cubes = so._repetitions(n, squares, 3)
        assert set(squares) <= set(oracle._roots(n, 2, False)), (n, squares)
        assert set(cubes) <= set(oracle._roots(n, 3, False)), (n, cubes)
        assert so._repetitions(n, cubes, 4) == [], n
