"""Tribonacci word basics: blocks, letters, kernel words and positions.

The infinite word is the fixed point of a -> ab, b -> ac, c -> a.  Everything
here works on a block table built once at import time: block lengths t_m,
per-block letter counts and last letters.  Positions are 1-based, matching
the usual convention for occurrence positions.  Queries never materialize
the word except for ``prefix``, which is capped.

The intervals at which a square or cube not seen before ends are built,
and their breakpoints checked, at import too: ``closed_forms``' distinct
counts are running sums over them, and ``fast_count``'s segment rows take
their unit increments from them.
"""

import operator

ALPHABET = ("a", "b", "c")

# Ceiling for position/length arguments of the closed-form evaluators.
N_CAP = 10**18

# Ceiling for explicit prefix materialization (oracle territory).
MATERIALIZE_CAP = 10**7

class ExactDivisionError(ArithmeticError):
    """An exact integer formula produced a remainder.  Internal error:
    every division in the closed forms is provably exact, so a nonzero
    remainder means a transcribed constant is wrong."""


def _arg(value, lo: int, hi: int, what: str) -> int:
    """The one check of every public integer argument: ``value`` as a plain
    int in [lo, hi].  Any integer type with ``__index__`` (numpy integers
    included) is accepted; bools and non-integral numbers (floats, strings,
    ...) raise TypeError, and values outside the range ValueError naming
    ``what``.  The hot counters inline the test for a plain int in range,
    so their common case makes no call."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, not "
                        f"{type(value).__name__}")
    n = operator.index(value)
    if n < lo or n > hi:
        raise ValueError(f"{what} {n} outside [{lo}, {hi}]")
    return n


def exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ExactDivisionError(f"{num} is not divisible by {den}")
    return q


def _build_tables(cap: int):
    # index i holds order m = i - 2, so t_{-2}, t_{-1}, t_0, ... ; grown a
    # few doublings past cap so every boundary formula (all < 4*t_m) stays
    # inside the table when locating segments for n <= cap.
    t = [0, 1, 1, 2]
    counts = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0)]
    k = [0, 1, 1]
    while t[-1] <= 64 * cap:
        t.append(t[-1] + t[-2] + t[-3])
        counts.append(tuple(x + y + z for x, y, z in
                            zip(counts[-1], counts[-2], counts[-3])))
        k.append(k[-1] + k[-2] + k[-3] - 1)
    while len(k) < len(t):
        k.append(k[-1] + k[-2] + k[-3] - 1)
    return tuple(t), tuple(counts), tuple(k)


_T, _BLOCK_COUNTS, _K = _build_tables(N_CAP)
_OFF = 2  # t_m lives at _T[m + _OFF]
MAX_ORDER = len(_T) - 1 - _OFF


def trib_number(m: int) -> int:
    """Length t_m of the m-th block, m >= -2."""
    return _T[_arg(m, -2, MAX_ORDER, "block order") + _OFF]


def last_letter(m: int) -> str:
    """Last letter of the m-th block, m >= -1; cycles a, b, c with m mod 3."""
    return ALPHABET[_arg(m, -1, MAX_ORDER, "block order") % 3]


def kernel_number(m: int) -> int:
    """Kernel word length k_m, m >= 0."""
    return _K[_arg(m, 0, MAX_ORDER, "kernel order")]


# ---------------------------------------------------------------------------
# where a new square or cube ends


def _square_breakpoints():
    """The ascending intervals at which a new square ends: (8, 8), (10, 10),
    then [alpha, beta] and [gamma, theta] of each order m >= 4 of the
    distinct-square count, up to the first that starts past N_CAP (it holds
    square segment (1, 68)'s increments), with alpha < beta < gamma <
    theta < 2 t_m checked."""
    firsts, m, alpha = [(8, 8), (10, 10)], 3, 0
    while alpha <= N_CAP:
        m += 1
        o = m + _OFF  # t_i is _T[i + _OFF]
        t0, t1, t2, t3 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3]
        alpha = 2 * t1
        beta = t0 + 2 * t3 - 1
        gamma = 2 * t0 - t1
        theta = exact_div(3 * t0 + t2 - 3, 2)
        if not alpha < beta < gamma < theta < 2 * t0:
            raise AssertionError(f"square boundary ordering broken at m={m}")
        firsts += [(alpha, beta), (gamma, theta)]
    return tuple(firsts)


def _cube_breakpoints():
    """The cube counterpart, orders m >= 7 up to the one whose range
    [alpha, t_m + 2 t_{m-3}) holds N_CAP: the intervals [alpha, beta], with
    beta checked for ordering and against t_{m-1} + k_{m+1} - 2."""
    firsts, m, end = [], 6, 0
    while end <= N_CAP:
        m += 1
        o = m + _OFF
        t0, t1, t2, t3, t4 = _T[o], _T[o - 1], _T[o - 2], _T[o - 3], _T[o - 4]
        beta = exact_div(3 * t1 - t3 - 3, 2)
        end = t0 + 2 * t3
        if not t1 + 2 * t4 <= beta < end:
            raise AssertionError(f"cube boundary ordering broken at m={m}")
        if beta != t1 + _K[m + 1] - 2:
            raise AssertionError(f"last new cube misplaced at m={m}")
        firsts.append((t1 + 2 * t4, beta))
    return tuple(firsts)


_SQUARE_FIRSTS = _square_breakpoints()
_CUBE_FIRSTS = _cube_breakpoints()


# ---------------------------------------------------------------------------
# prefix materialization

_PREFIX = "abacaba"  # grown on demand, only ever extended


def prefix(n: int) -> str:
    """The first n letters as a plain string, n <= ``MATERIALIZE_CAP``; use
    the block decomposition queries for anything large."""
    global _PREFIX
    n = _arg(n, 0, MATERIALIZE_CAP, "prefix length")
    if len(_PREFIX) < n:
        s2, s1 = "ab", "abac"  # blocks two and one below the current one
        cur = "abacaba"
        while len(cur) < n:
            s2, s1, cur = s1, cur, cur + s1 + s2
        _PREFIX = cur
    return _PREFIX[:n]


def _blocks(n: int):
    """The orders of the blocks of the greedy decomposition of the length-n
    prefix, left to right: from the shortest block t_m >= n, descend
    through T_m = T_{m-1} T_{m-2} T_{m-3}, taking each whole block that
    ends before n, until n ends a whole block itself."""
    m = 2
    while _T[m + _OFF] < n:
        m += 1
    while n > 0:
        if n == _T[m + _OFF]:
            yield m
            return
        # n < t_m here, so m >= 1 and we descend one block
        t1 = _T[m - 1 + _OFF]
        if n <= t1:
            m -= 1
            continue
        yield m - 1
        n -= t1
        t2 = _T[m - 2 + _OFF]
        if n <= t2:
            m -= 2
        else:
            yield m - 2
            n -= t2
            m -= 3


def letter_at(n: int) -> str:
    """The n-th letter, the last letter of the last greedy block of the
    length-n prefix, in O(log n)."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    *_, m = _blocks(n)
    return ALPHABET[m % 3]


def letter_counts(n: int) -> tuple[int, int, int]:
    """Letter counts (a, b, c) of the length-n prefix, O(log n)."""
    n = _arg(n, 0, N_CAP, "prefix length")
    na = nb = nc = 0
    for m in _blocks(n):
        ca, cb, cc = _BLOCK_COUNTS[m + _OFF]
        na += ca
        nb += cb
        nc += cc
    return (na, nb, nc)


# highest order whose kernel word fits under MATERIALIZE_CAP
_KERNEL_WORD_MAX = max(m for m in range(len(_K))
                       if _K[m] - 1 <= MATERIALIZE_CAP)


def kernel_word(m: int) -> str:
    """The m-th kernel word.  K_1=a, K_2=b, K_3=c, then the last letter of
    block m-1 followed by the length-(k_m - 1) prefix."""
    m = _arg(m, 1, _KERNEL_WORD_MAX, "kernel order")
    if m <= 3:
        return ALPHABET[m - 1]
    return last_letter(m - 1) + prefix(_K[m] - 1)


def _kernel_end(m: int, p: int, word: str) -> int:
    """End position of the p-th occurrence of the m-th kernel word, which
    the cap error names ``word``."""
    p = _arg(p, 1, N_CAP, "occurrence index")
    na, nb, _ = letter_counts(p - 1)
    o = m + _OFF  # t_i is _T[i + _OFF]
    pos = (p * _T[o - 1] + na * (_T[o - 2] + _T[o - 3]) + nb * _T[o - 2]
           + _K[m] - 1)
    if pos > N_CAP:
        raise ValueError(f"position of {word} occurrence {p} exceeds cap")
    return pos


def position_letter(alpha: str, p: int) -> int:
    """End position of the p-th occurrence of a letter, the kernel word of
    order 1, 2 or 3."""
    if alpha not in ALPHABET:
        raise ValueError(f"unknown letter {alpha!r}")
    return _kernel_end(ALPHABET.index(alpha) + 1, p, repr(alpha))


def position_kernel(m: int, p: int) -> int:
    """End position of the p-th occurrence of the m-th kernel word."""
    m = _arg(m, 1, MAX_ORDER, "kernel order")
    return _kernel_end(m, p, f"kernel {m}")
