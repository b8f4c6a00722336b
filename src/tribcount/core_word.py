"""Tribonacci word basics: blocks, letters, kernel words and positions.

The infinite word is the fixed point of a -> ab, b -> ac, c -> a.  Everything
here works on a block table built once at import time: block lengths t_m,
per-block letter counts and last letters.  Positions are 1-based, matching
the usual convention for occurrence positions.  Queries never materialize
the word except for ``prefix``, which is capped.
"""

from __future__ import annotations

import operator
import os

ALPHABET = ("a", "b", "c")

# Ceiling for position/length arguments of the closed-form evaluators.
N_CAP = 10**18

# Ceiling for explicit prefix materialization (oracle territory).
MATERIALIZE_CAP = 10**7

# Default ceiling of the brute-force oracle.  Defined here rather than in
# ``oracle`` so that reading it does not import numpy.
ORACLE_CAP_DEFAULT = 5000


def oracle_cap() -> int:
    """Scan ceiling; TRIB_ORACLE_CAP overrides the default of 5000."""
    env = os.environ.get("TRIB_ORACLE_CAP")
    if env:
        cap = int(env)
        if cap < 1:
            raise ValueError("TRIB_ORACLE_CAP must be positive")
        return cap
    return ORACLE_CAP_DEFAULT


class ExactDivisionError(ArithmeticError):
    """An exact integer formula produced a remainder.  Internal error:
    every division in the closed forms is provably exact, so a nonzero
    remainder means a transcribed constant is wrong."""


def _as_int(n) -> int:
    """n as a plain int, through ``operator.index``; bools and non-integral
    numbers (floats, ...) raise TypeError.  Every public counter applies
    this once to an argument that is not exactly int (the type test is
    inlined to keep the common case free of a call), so numpy integers
    work and results are always int."""
    if isinstance(n, bool):
        raise TypeError("expected an integer, got bool")
    return operator.index(n)


class Record:
    """Base of the small value records (segment bounds, table rows, ...):
    the fields are the subclass's ``__slots__``, compared, hashed and shown
    by value.  A lighter stand-in for a frozen dataclass that keeps
    ``dataclasses`` off the counting paths; records are read-only by
    convention, as some are cached and shared."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
    if m < -2 or m > MAX_ORDER:
        raise ValueError(f"block order {m} outside [-2, {MAX_ORDER}]")
    return _T[m + _OFF]


def block_letter_counts(m: int) -> tuple[int, int, int]:
    """(a, b, c) letter counts of the m-th block."""
    if m < -2 or m > MAX_ORDER:
        raise ValueError(f"block order {m} outside [-2, {MAX_ORDER}]")
    return _BLOCK_COUNTS[m + _OFF]


def last_letter(m: int) -> str:
    """Last letter of the m-th block, m >= -1; cycles a, b, c with m mod 3."""
    if m < -1:
        raise ValueError("no last letter below order -1")
    return ALPHABET[m % 3]


def kernel_number(m: int) -> int:
    """Kernel word length k_m, m >= 0."""
    if m < 0 or m > MAX_ORDER:
        raise ValueError(f"kernel order {m} outside [0, {MAX_ORDER}]")
    return _K[m]


# ---------------------------------------------------------------------------
# prefix materialization

_PREFIX = "abacaba"  # grown on demand, only ever extended


def prefix(n: int, cap: int = MATERIALIZE_CAP) -> str:
    """The first n letters as a plain string.  Capped; use the block
    decomposition queries for anything large."""
    global _PREFIX
    if n < 0:
        raise ValueError("prefix length must be >= 0")
    if n > cap:
        raise ValueError(f"prefix length {n} exceeds materialization cap {cap}")
    if len(_PREFIX) < n:
        s2, s1 = "ab", "abac"  # blocks two and one below the current one
        cur = "abacaba"
        while len(cur) < n:
            s2, s1, cur = s1, cur, cur + s1 + s2
        _PREFIX = cur
    return _PREFIX[:n]


def letter_at(n: int) -> str:
    """The n-th letter, via greedy block decomposition in O(log n)."""
    n = n if type(n) is int else _as_int(n)
    if n < 1 or n > N_CAP:
        raise ValueError(f"position {n} outside [1, {N_CAP}]")
    m = 2
    while _T[m + _OFF] < n:
        m += 1
    # descend through T_m = T_{m-1} T_{m-2} T_{m-3}
    while m >= 2:
        t1 = _T[m - 1 + _OFF]
        t2 = _T[m - 2 + _OFF]
        if n <= t1:
            m -= 1
        elif n <= t1 + t2:
            n -= t1
            m -= 2
        else:
            n -= t1 + t2
            m -= 3
    if m == 1:
        return "a" if n == 1 else "b"
    if m == 0:
        return "a"
    return "c"  # order -1 block


def letter_counts(n: int) -> tuple[int, int, int]:
    """Letter counts (a, b, c) of the length-n prefix, O(log n)."""
    if n < 0 or n > N_CAP:
        raise ValueError(f"prefix length {n} outside [0, {N_CAP}]")
    na = nb = nc = 0
    m = 2
    while _T[m + _OFF] < n:
        m += 1
    while n > 0:
        if n == _T[m + _OFF]:
            ca, cb, cc = _BLOCK_COUNTS[m + _OFF]
            na += ca
            nb += cb
            nc += cc
            break
        # n < t_m here, so m >= 1 and we descend one block
        t1 = _T[m - 1 + _OFF]
        t2 = _T[m - 2 + _OFF]
        if n <= t1:
            m -= 1
        elif n <= t1 + t2:
            ca, cb, cc = _BLOCK_COUNTS[m - 1 + _OFF]
            na += ca
            nb += cb
            nc += cc
            n -= t1
            m -= 2
        else:
            ca, cb, cc = _BLOCK_COUNTS[m - 1 + _OFF]
            da, db, dc = _BLOCK_COUNTS[m - 2 + _OFF]
            na += ca + da
            nb += cb + db
            nc += cc + dc
            n -= t1 + t2
            m -= 3
    return (na, nb, nc)


def kernel_word(m: int) -> str:
    """The m-th kernel word.  K_1=a, K_2=b, K_3=c, then the last letter of
    block m-1 followed by the length-(k_m - 1) prefix."""
    if m < 1:
        raise ValueError("kernel words start at order 1")
    if m <= 3:
        return ALPHABET[m - 1]
    k = kernel_number(m)
    if k - 1 > MATERIALIZE_CAP:
        raise ValueError(f"kernel word of order {m} too long to materialize")
    return last_letter(m - 1) + prefix(k - 1)


def position_letter(alpha: str, p: int) -> int:
    """End position of the p-th occurrence of a letter."""
    if alpha not in ALPHABET:
        raise ValueError(f"unknown letter {alpha!r}")
    if p < 1 or p > N_CAP:
        raise ValueError(f"occurrence index {p} outside [1, {N_CAP}]")
    na, nb, _ = letter_counts(p - 1)
    if alpha == "a":
        pos = p + na + nb
    elif alpha == "b":
        pos = 2 * p + 2 * na + nb
    else:
        pos = 4 * p + 3 * na + 2 * nb
    if pos > N_CAP:
        raise ValueError(f"position of {alpha!r} occurrence {p} exceeds cap")
    return pos


def position_kernel(m: int, p: int) -> int:
    """End position of the p-th occurrence of the m-th kernel word."""
    if m < 1:
        raise ValueError("kernel words start at order 1")
    if p < 1 or p > N_CAP:
        raise ValueError(f"occurrence index {p} outside [1, {N_CAP}]")
    na, nb, _ = letter_counts(p - 1)
    pos = (p * trib_number(m - 1)
           + na * (trib_number(m - 2) + trib_number(m - 3))
           + nb * trib_number(m - 2)
           + kernel_number(m) - 1)
    if pos > N_CAP:
        raise ValueError(f"position of kernel {m} occurrence {p} exceeds cap")
    return pos
