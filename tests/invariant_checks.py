"""Frozen reference data and invariant sweeps shared between the module
tests and the acceptance suite.

The position lists and count checkpoints were produced by an independent
exhaustive enumeration (substitution-built word, all root lengths compared
directly) and frozen here; nothing below imports the code paths it checks
except where the sweep's purpose is exactly that comparison.
"""

from tribcount import core_word, fast_count, oracle

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
        coded = oracle.gap_coding(core_word.kernel_word(m), n)
        assert coded == core_word.prefix(len(coded)), f"kernel order {m}"


def check_segment_tiling(m_max):
    """Square segments tile positions from 8 up, cube segments from 52 up,
    with the advertised lengths and no gap or overlap."""
    expect = 8
    for m in range(4, m_max + 1):
        for j in (3, 2, 1):
            g = fast_count.square_gamma(j, m)
            assert g.lo == expect, (j, m)
            length = {1: m - 2, 2: m - 3, 3: m - 4}[j]
            assert g.hi - g.lo + 1 == core_word.trib_number(length)
            expect = g.hi + 1
    expect = 52
    for m in range(7, m_max + 1):
        g = fast_count.cube_gamma(m)
        assert g.lo == expect, m
        assert g.hi - g.lo + 1 == core_word.trib_number(m - 1)
        expect = g.hi + 1


def check_graph_embedding(summary, word):
    """Squares ending at corresponding sample points of later kernel
    occurrences repeat the first occurrence's squares, once squares with
    higher-order kernels are filtered out."""
    by_end = {}
    for e, L in zip(summary.squares, summary.square_roots):
        by_end.setdefault(e, []).append(word[e - 2 * L:e])
    for j in (1, 2, 3):
        for m in range(4, 8):
            base = fast_count.square_case_block(j, m, 1)
            for p in range(1, 6):
                block = fast_count.square_case_block(j, m, p)
                assert len(block) == len(base)
                for i in range(len(block)):
                    lhs = set(by_end.get(base[i], []))
                    rhs = {w for w in by_end.get(block[i], [])
                           if 4 <= oracle.kernel_of(w) <= m}
                    assert lhs == rhs, (j, m, p, i + 1)
