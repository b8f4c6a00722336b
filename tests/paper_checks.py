"""The paper's gap-sequence and kernel-word route, kept as test checks.

The paper finds every distinct square, then counts the occurrences of each
by the gaps between them.  The package counts by the copy recursion
instead, so these functions are used only to check it: the gap sequences
and their coding (``occurrences``, ``gap_pattern``, ``gap_coding``), the
maximal kernel word inside a factor (``kernel_of``), the square blocks
around the p-th occurrence of a kernel word (``square_case_block``), Glen's
route to the distinct-square count at block lengths
(``glen_distinct_squares_at_t``) and the letter counts of a block
(``block_letter_counts``).  They read the package's tables and its one
argument check, ``core_word._arg``.
"""

from tribcount import fast_count
from tribcount.core_word import (
    _BLOCK_COUNTS,
    _OFF,
    MATERIALIZE_CAP,
    MAX_ORDER,
    N_CAP,
    _arg,
    exact_div,
    kernel_number,
    kernel_word,
    position_kernel,
    prefix,
    trib_number as _t,
)
from tribcount.oracle import ORACLE_CAP


def block_letter_counts(m: int) -> tuple[int, int, int]:
    """(a, b, c) letter counts of the m-th block."""
    return _BLOCK_COUNTS[_arg(m, -2, MAX_ORDER, "block order") + _OFF]


# ---------------------------------------------------------------------------
# gap sequences and kernel words of factors


def _starts(hay: str, needle: str) -> list[int]:
    """0-based start of every occurrence of needle in hay, ascending
    (overlaps included)."""
    out = []
    i = hay.find(needle)
    while i >= 0:
        out.append(i)
        i = hay.find(needle, i + 1)
    return out


def occurrences(w: str, n: int) -> list[int]:
    """1-based end positions of all occurrences of w in the length-n
    prefix, ascending (overlaps included)."""
    if not w:
        raise ValueError("empty factor")
    hay = prefix(_arg(n, 0, ORACLE_CAP, "oracle scan length"))
    return [i + len(w) for i in _starts(hay, w)]


def _steps(w: str, n: int) -> list[str]:
    # words between consecutive end positions; the p-th step is the p-th
    # gap followed by one copy of w, so steps compare equal iff gaps do
    ends = occurrences(w, n)
    if len(ends) < 2:
        raise ValueError(f"factor {w!r} occurs fewer than twice in range")
    hay = prefix(n)
    return [hay[ends[i]:ends[i + 1]] for i in range(len(ends) - 1)]


def gap_pattern(w: str, n: int) -> list[int]:
    """Lengths of the gaps between consecutive occurrences of w.  Negative
    when consecutive occurrences overlap."""
    ends = occurrences(w, n)
    if len(ends) < 4:
        raise ValueError(f"factor {w!r} occurs fewer than 4 times in range")
    return [ends[i + 1] - ends[i] - len(w) for i in range(len(ends) - 1)]


def gap_coding(w: str, n: int) -> str:
    """Each gap coded by which of the first, second or fourth gap it equals
    (as a word), written a, b, c respectively."""
    steps = _steps(w, n)
    if len(steps) < 4:
        raise ValueError(f"factor {w!r} has fewer than 4 gaps in range")
    alphabet = {steps[0]: "a", steps[1]: "b", steps[3]: "c"}
    if len(alphabet) != 3:
        raise ValueError(f"gaps 1, 2, 4 of {w!r} are not pairwise distinct")
    out = []
    for s in steps:
        try:
            out.append(alphabet[s])
        except KeyError:
            raise ValueError(f"gap of {w!r} matches none of gaps 1, 2, 4")
    return "".join(out)


def kernel_of(w: str) -> int:
    """Order of the maximal kernel word occurring in the factor w."""
    if not w:
        raise ValueError("empty factor")
    window = min(MATERIALIZE_CAP, max(1000, 64 * len(w)))
    if w not in prefix(window):
        raise ValueError(f"{w[:40]!r}... does not occur in the scanned prefix")
    best = 0
    m = 1
    while kernel_number(m) <= len(w):
        if kernel_word(m) in w:
            best = m
        m += 1
    if best == 0:
        raise ValueError(f"no kernel word inside {w!r}")
    if len(_starts(w, kernel_word(best))) != 1:
        raise AssertionError(
            f"maximal kernel word of order {best} occurs more than once")
    return best


# ---------------------------------------------------------------------------
# square-tree sample points


def square_case_block(j: int, m: int, p: int) -> range:
    """End positions of the squares of kind j whose maximal kernel word has
    order m, around the p-th occurrence of that kernel word.  These are the
    positions the unit increments of segment (j, m) sit at, shifted to
    occurrence p; a block that ends past N_CAP raises ValueError."""
    j = _arg(j, 1, 3, "square segment kind")
    m = _arg(m, 4, MAX_ORDER, "kernel order")
    shift = position_kernel(m, p) - position_kernel(m, 1)
    rows = (fast_count._SQUARES or fast_count._square_segments()).rows
    inc_lo, inc_hi = rows[3 * (m - 4) + 3 - j][6:8]
    if inc_hi + shift > N_CAP:
        raise ValueError(f"square block ({j}, {m}) at kernel occurrence {p} "
                         f"exceeds cap")
    return range(inc_lo + shift, inc_hi + 1 + shift)


# ---------------------------------------------------------------------------
# Glen's distinct-square count at block lengths


def _glen_d(i: int) -> int:
    # cumulative block-length sums: d_i = t_0 + ... + t_{i-1}, with the
    # empty sum at 0 and formally -1 below that
    if i <= -1:
        return -1
    if i == 0:
        return 0
    return exact_div(_t(i + 1) + _t(i - 1) - 3, 2)


def glen_distinct_squares_at_t(m: int) -> int:
    """Glen's cumulative-sum expression for the same count; independent
    route used as a cross-check of ``distinct_squares_at_t``."""
    h = _arg(m, 3, MAX_ORDER, "block order") - 1
    total = sum(_glen_d(i) + 1 for i in range(0, h - 1))
    return total + _glen_d(h - 4) + _glen_d(h - 5) + 1
