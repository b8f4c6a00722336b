"""Frozen reference data and invariant sweeps shared between the module
tests and the acceptance suite.

The position lists and count checkpoints were produced by an independent
exhaustive enumeration (substitution-built word, all root lengths compared
directly) and frozen here; nothing below imports the code paths it checks
except where the sweep's purpose is exactly that comparison.
"""

from tribcount import _kernels, core_word, fast_count
from tribcount.core_word import exact_div, trib_number as t
from tribcount.oracle import EXHAUSTIVE_CAP

import paper_checks

# end positions of the 29 first-occurrence squares in the length-65 prefix
SQUARE_ENDS_65 = [
    8, 10, 14, 15, 16, 19, 20,
    26, 27, 28, 29, 30, 31,
    35, 36, 37, 38,
    48, 49, 50, 51, 52, 53, 54, 55, 56, 57,
    64, 65,
]

# end positions of the 11 first-occurrence cubes in the length-365 prefix
CUBE_ENDS_365 = [58, 107, 108, 197, 198, 199, 200, 362, 363, 364, 365]

# end positions of all 29 cube occurrences in the length-500 prefix
CUBE_ENDS_500_REPEATED = [
    58, 107, 108, 139, 197, 198, 199, 200, 207, 256, 257, 288, 332,
    362, 363, 364, 365, 366, 367, 368, 369, 381, 382, 413,
    471, 472, 473, 474, 481,
]

# squares ending at positions 1..51 (independent enumeration)
B_SMALL_1_51 = [
    0, 0, 0, 0, 0, 0, 0, 1, 0, 1,
    0, 0, 0, 1, 1, 1, 0, 0, 1, 1,
    1, 0, 1, 0, 0, 1, 2, 1, 1, 1,
    1, 1, 0, 1, 1, 1, 1, 2, 1, 1,
    0, 0, 1, 1, 1, 0, 1, 1, 1, 2, 3,
]

# totals over the length-3000 prefix (independent enumeration)
CHECKPOINT_3000 = {"A": 1581, "B": 8090, "C": 110, "D": 342}


def check_letter_count_identities(p_max):
    """Occurrence-position identities relating the three letters."""
    counts = core_word.letter_counts
    pos = core_word.position_letter
    for p in range(1, p_max + 1):
        pa, pb, pc = pos("a", p), pos("b", p), pos("c", p)
        assert counts(pa)[0] == p
        assert counts(pb)[1] == p
        assert counts(pc)[2] == p
        assert counts(pb)[0] == pa
        assert counts(pa)[1] == counts(p - 1)[0]
        assert counts(pc)[0] == pb
        assert counts(pc)[1] == pa


def check_kernel_gap_coding(m_max, n):
    """Gap sequences of kernel words take three values patterned like the
    word itself."""
    for m in range(1, m_max + 1):
        coded = paper_checks.gap_coding(core_word.kernel_word(m), n)
        assert coded == core_word.prefix(len(coded)), f"kernel order {m}"


def square_index(j, m):
    """Index of square segment (j, m) in the square tables; cube segment m
    is at m - 7."""
    return 3 * (m - 4) + 3 - j


def square_bounds():
    """(beta, gamma, theta) of every square order m >= 4, at index m - 4,
    read from the intervals at which a new square ends: after (8, 8) and
    (10, 10), order m holds [2 t_{m-1}, beta] and [gamma, theta]."""
    firsts = core_word._SQUARE_FIRSTS[2:]
    assert len(firsts) % 2 == 0
    return [(beta, gamma, theta)
            for (_, beta), (gamma, theta) in zip(firsts[::2], firsts[1::2])]


def phi(m):
    """The paper's closed form of the total of the three square segments
    of order m; the counters read no such total."""
    t0, t1, t2 = t(m), t(m - 1), t(m - 2)
    num = (2 * m * (-5 * t0 + 14 * t1 + 4 * t2)
           + (67 * t0 - 166 * t1 + 5 * t2) + 11)
    return exact_div(num, 44)


def segment_closed_forms(tiling):
    """The paper's closed forms of every segment of the "square" or "cube"
    tiling up to order 68, the last one the tables hold: the segment totals
    and the cumulative counts at each segment's end, as two tuples indexed
    like the segment rows.  The counters derive both from the floor and the
    copy recursion instead; ``check_closed_forms`` compares the two."""
    sums, cums = [], []
    for m in range(4 if tiling == "square" else 7, 69):
        t0, t1, t2 = t(m), t(m - 1), t(m - 2)
        if tiling == "cube":
            kinds = ((2 * m * (7 * t0 - 13 * t1 + t2)
                      + (-41 * t0 + 74 * t1 - 7 * t2) + 11,
                      m * (9 * t0 - 12 * t1 - 5 * t2)
                      + 12 * (-2 * t0 + 2 * t1 + t2) + 11 * m),)
        else:  # the numerators over 44 of segments (3, m), (2, m), (1, m)
            kinds = (
                (2 * m * (-19 * t0 + 29 * t1 + 13 * t2)
                 + (237 * t0 - 358 * t1 - 157 * t2) + 33,
                 m * (-25 * t0 + 48 * t1 + 31 * t2)
                 + (173 * t0 - 294 * t1 - 213 * t2) + 11 * (m + 11)),
                (2 * m * (10 * t0 - 6 * t1 - 19 * t2)
                 + (-189 * t0 + 156 * t1 + 331 * t2) - 11,
                 m * (-5 * t0 + 36 * t1 - 7 * t2)
                 + 2 * (-8 * t0 - 69 * t1 + 59 * t2) + 11 * (m + 10)),
                (2 * m * (4 * t0 - 9 * t1 + 10 * t2)
                 + (19 * t0 + 36 * t1 - 169 * t2) - 11,
                 m * (3 * t0 + 18 * t1 + 13 * t2)
                 + (3 * t0 - 102 * t1 - 51 * t2) + 11 * (m + 9)),
            )
        for total, cum in kinds:
            sums.append(exact_div(total, 44))
            cums.append(exact_div(cum, 44))
    return tuple(sums), tuple(cums)


def check_closed_forms(seg, tiling):
    """Every segment's closed-form total and cumulative count against the
    cumulative counts the descents give at its ends, the top segments past
    N_CAP included; a mismatch names the first segment that disagrees."""
    sums, cums = segment_closed_forms(tiling)
    assert len(sums) == len(seg.rows), tiling
    for s, row in enumerate(seg.rows):
        cum = fast_count._cumulative(seg, row[1])
        got = cum - fast_count._cumulative(seg, row[0] - 1), cum
        assert got == (sums[s], cums[s]), (
            f"closed forms of {seg.label(s)}: total and cumulative count "
            f"{sums[s]}, {cums[s]}, not {got[0]}, {got[1]}")


def check_segment_tiling(m_max):
    """Square segments tile positions from 8 up, cube segments from 52 up,
    with the advertised lengths and no gap or overlap."""
    rows = fast_count._square_segments().rows
    expect = 8
    for m in range(4, m_max + 1):
        for j in (3, 2, 1):
            lo, hi = rows[square_index(j, m)][:2]
            assert lo == expect, (j, m)
            length = {1: m - 2, 2: m - 3, 3: m - 4}[j]
            assert hi - lo + 1 == core_word.trib_number(length)
            expect = hi + 1
    rows = fast_count._cube_segments().rows
    expect = 52
    for m in range(7, m_max + 1):
        lo, hi = rows[m - 7][:2]
        assert lo == expect, m
        assert hi - lo + 1 == core_word.trib_number(m - 1)
        expect = hi + 1


def run_occurrences(runs):
    """(end, root length) of every occurrence in the runs of a scan
    summary, sorted by end and then by root length."""
    return sorted((e, L) for L, first, last in runs
                  for e in range(first, last + 1))


def assert_no_fourth_powers(n: int) -> bool:
    """True iff the length-n prefix holds no fourth power, by a scan of its
    own at power 4 over every root length: the reference for the oracle,
    which reads fourth powers off its square runs.  ``n`` is checked as an
    exhaustive scan length."""
    n = core_word._arg(n, 1, EXHAUSTIVE_CAP, "exhaustive scan length")
    return not _kernels.find_repetitions(core_word.prefix(n).encode("ascii"),
                                         range(1, n // 4 + 1), 4)


def check_graph_embedding(summary, word):
    """Squares ending at corresponding sample points of later kernel
    occurrences repeat the first occurrence's squares, once squares with
    higher-order kernels are filtered out."""
    by_end = {}
    for e, L in run_occurrences(summary.square_runs):
        by_end.setdefault(e, []).append(word[e - 2 * L:e])
    for j in (1, 2, 3):
        for m in range(4, 8):
            base = paper_checks.square_case_block(j, m, 1)
            for p in range(1, 6):
                block = paper_checks.square_case_block(j, m, p)
                assert len(block) == len(base)
                for i in range(len(block)):
                    lhs = set(by_end.get(base[i], []))
                    rhs = {w for w in by_end.get(block[i], [])
                           if 4 <= paper_checks.kernel_of(w) <= m}
                    assert lhs == rhs, (j, m, p, i + 1)
