import pytest
from hypothesis import given, settings, strategies as st

from tribcount import core_word as cw

import invariant_checks
import paper_checks


def test_trib_number_values():
    assert cw.trib_number(-2) == 0
    assert cw.trib_number(-1) == 1
    assert cw.trib_number(0) == 1
    assert cw.trib_number(1) == 2
    assert cw.trib_number(5) == 24
    assert cw.trib_number(8) == 149


def test_trib_number_recurrence():
    for m in range(2, 61):
        assert cw.trib_number(m) == (cw.trib_number(m - 1)
                                     + cw.trib_number(m - 2)
                                     + cw.trib_number(m - 3))


def test_trib_number_range():
    with pytest.raises(ValueError):
        cw.trib_number(-3)
    with pytest.raises(ValueError):
        cw.trib_number(cw.MAX_ORDER + 1)


def test_kernel_number_values():
    assert cw.kernel_number(0) == 0
    assert cw.kernel_number(1) == 1
    assert cw.kernel_number(2) == 1
    assert cw.kernel_number(5) == 3
    assert cw.kernel_number(7) == 9
    with pytest.raises(ValueError):
        cw.kernel_number(-1)


def test_kernel_number_closed_form():
    for m in range(3, 61):
        assert 2 * cw.kernel_number(m) == (cw.trib_number(m - 3)
                                           + cw.trib_number(m - 5) + 1)


def test_kernel_word_values():
    assert cw.kernel_word(1) == "a"
    assert cw.kernel_word(2) == "b"
    assert cw.kernel_word(3) == "c"
    assert cw.kernel_word(4) == "aa"
    assert cw.kernel_word(5) == "bab"
    assert cw.kernel_word(7) == "aabacabaa"
    with pytest.raises(ValueError):
        cw.kernel_word(0)


def test_first_aa_ends_at_8():
    assert cw.prefix(8).endswith("aa")
    assert "aa" not in cw.prefix(7)


def test_kernel_word_lengths():
    for m in range(1, 15):
        assert len(cw.kernel_word(m)) == cw.kernel_number(m)


def test_prefix_values():
    assert cw.prefix(0) == ""
    assert cw.prefix(7) == "abacaba"
    assert cw.prefix(13) == "abacabaabacab"


def test_prefix_cap():
    with pytest.raises(ValueError):
        cw.prefix(cw.MATERIALIZE_CAP + 1)
    with pytest.raises(ValueError):
        cw.prefix(-1)


def test_prefix_block_concatenation():
    # each block is the previous three concatenated, and blocks are prefixes
    t = cw.trib_number
    for m in range(3, 16):
        assert cw.prefix(t(m)) == (cw.prefix(t(m - 1)) + cw.prefix(t(m - 2))
                                   + cw.prefix(t(m - 3)))


def test_block_counts_sum_and_last_letter():
    for m in range(0, 30):
        assert sum(paper_checks.block_letter_counts(m)) == cw.trib_number(m)
    word = cw.prefix(cw.trib_number(12))
    for m in range(0, 13):
        assert word[cw.trib_number(m) - 1] == cw.last_letter(m)


def test_letter_at_values():
    assert cw.letter_at(1) == "a"
    assert cw.letter_at(4) == "c"
    assert cw.letter_at(8) == "a"
    with pytest.raises(ValueError):
        cw.letter_at(0)


def test_letter_at_matches_prefix():
    n = 100_000
    word = cw.prefix(n)
    rebuilt = "".join(cw.letter_at(i) for i in range(1, n + 1))
    assert rebuilt == word


def test_letter_counts_values():
    assert cw.letter_counts(0) == (0, 0, 0)
    assert cw.letter_counts(7) == (4, 2, 1)
    assert cw.letter_counts(13) == (7, 4, 2)


def test_letter_counts_matches_prefix():
    n = 3000
    word = cw.prefix(n)
    na = nb = nc = 0
    for i in range(1, n + 1):
        ch = word[i - 1]
        na += ch == "a"
        nb += ch == "b"
        nc += ch == "c"
        assert cw.letter_counts(i) == (na, nb, nc)


def test_letter_counts_sum_large():
    for n in (10**9, 10**12, 10**18):
        assert sum(cw.letter_counts(n)) == n


def _image_holds_the_counts(k):
    # a -> ab, b -> ac and c -> a each hold one a, so the image of the
    # length-k prefix, the prefix of length 2k - c(k), holds k a's and one
    # b (c) per a (b) of the length-k prefix
    a, b, c = cw.letter_counts(k)
    assert cw.letter_counts(2 * k - c) == (k, a, b), k


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(min_value=0, max_value=5 * 10**17))
def test_letter_counts_of_the_image_of_a_prefix(k):
    _image_holds_the_counts(k)


def test_letter_counts_of_the_image_at_block_lengths():
    t = cw.trib_number
    for m in range(0, cw.MAX_ORDER + 1):
        for k in (t(m) - 1, t(m) + 1):
            if 2 * k <= cw.N_CAP:
                _image_holds_the_counts(k)


def test_letter_counts_at_block_lengths():
    m = 0
    while cw.trib_number(m) <= cw.N_CAP:
        assert (cw.letter_counts(cw.trib_number(m))
                == paper_checks.block_letter_counts(m)), m
        m += 1
    assert m == 68  # orders 0-67


def test_position_letter_values():
    assert cw.position_letter("a", 1) == 1
    assert cw.position_letter("c", 1) == 4
    assert cw.position_letter("b", 2) == 6
    with pytest.raises(ValueError):
        cw.position_letter("d", 1)


def test_position_letter_matches_scan():
    n = 2000
    word = cw.prefix(n)
    for alpha in cw.ALPHABET:
        ends = [i + 1 for i, ch in enumerate(word) if ch == alpha]
        for p, end in enumerate(ends, 1):
            assert cw.position_letter(alpha, p) == end


def test_position_kernel_first_occurrences():
    assert cw.position_kernel(4, 1) == 8
    for m in range(1, 21):
        t = cw.trib_number
        assert cw.position_kernel(m, 1) == (t(m) + t(m - 2) - 1) // 2
        assert cw.position_kernel(m, 1) == cw.kernel_number(m + 3) - 1


def test_position_kernel_second_aa():
    # formula and direct scan agree on the second occurrence
    assert cw.position_kernel(4, 2) == 21
    assert [e for e in _scan_ends("aa", cw.prefix(40))] == [8, 21, 32]


def _scan_ends(w, hay):
    out = []
    start = 0
    while True:
        i = hay.find(w, start)
        if i < 0:
            return out
        out.append(i + len(w))
        start = i + 1


def test_position_kernel_matches_scan():
    n = 100_000
    word = cw.prefix(n)
    for m in range(1, 15):
        ends = _scan_ends(cw.kernel_word(m), word)
        for p, end in enumerate(ends[:200], 1):
            assert cw.position_kernel(m, p) == end, (m, p)


def test_kernel_gap_coding():
    invariant_checks.check_kernel_gap_coding(8, 100_000)


def test_kernel_gaps_take_three_values():
    for m in range(1, 9):
        lengths = paper_checks.gap_pattern(cw.kernel_word(m), 100_000)
        assert len(set(lengths)) <= 3


def test_letter_count_identities():
    invariant_checks.check_letter_count_identities(10_000)
