"""The two tilings of the repeated counts, as geometry rows, and the copy
recursion walked one step at a time.

Positions from 8 on are tiled by square segments (three per order) and from
52 on by cube segments (one per order).  Both tilings share one geometry
(``_bounds``): order m covers [b0, b3), its three square segments start at
b0, b1 and b2, and cube segment m is the whole order.  Per-position counts
obey a self-similar recursion: a segment is a copy of three lower-order
segments shifted by the previous block length, plus one at each unit
increment, where a square (cube) not seen before ends: b(n) = b(n - shift)
+ a(n), d(n) = d(n - shift) + c(n), with the increments clipped from the
first-occurrence intervals of ``core_word``.  Each tiling is held as one
row tuple per segment (``_square_rows``, ``_cube_rows``), and a step of the
recursion goes from a segment of order m to a child of order m - j, j in
{1, 2, 3}.  It is stated once, as a rule at a point (``_step``): the child
n lands in and the term it adds.

The per-position counts are copied along the rows (``_counts``): each
segment the counts one block length back plus one over its unit
increments.  The counts before a tiling starts are zeros, so the segments
without children copy zeros, or zeros and the segments below them, by the
same rule.  A build keeps them up to the end of order 9 (``_BASE_ORDER``),
where the last segments without children end.  The floor, where the
descents of ``fast_count`` stop, holds them for the square orders 4-20 and
the cube orders 7-20, which both end at position 266078 (``_FLOOR_ORDER``).

A tiling is built (``_build``) in one pass over its rows in tiling order,
where a segment comes after its children.  Each segment is checked first:
it tiles on from the one before, the counts kept do not end inside it, it
holds its unit increments, and it is the shifted copy of its children, as
every segment past them must be.  A mismatch raises RuntimeError naming the
segment.  It is then totalled, from the counts if it has no children and
else from its children plus its unit increments, and a segment with
children keeps its ``delta``, the count one step leaves out.  The build
holds no pieces and keeps no cache: ``fast_count`` caches the tables its
counters read and adds the pieces, two steps per jump, to them.  A process that
asks for one cumulative count (``count --stat B/D``, the row cap of
``positions --repeated``) reads ``_walk`` of a fresh build instead, and so
does the first call of each tiling in the library, or ``_walk_at`` for a
count at one position: the descent (``_descend``) goes down to the segments
without children, and builds no piece and no floor.
"""

from bisect import bisect_left

from .core_word import _CUBE_FIRSTS, _OFF, _SQUARE_FIRSTS, _T, N_CAP, exact_div


# Highest order of the floor, the per-position table where the descents of
# ``fast_count`` stop: both tilings end there at position 266078.  Chosen
# on measurement (``fast_count._floor_sums``).
_FLOOR_ORDER = 20
# Highest order of the counts a build keeps: the segments without children
# end there (cube segment 9, at position 325), and a walk reads no further.
_BASE_ORDER = 9

SQUARE_START = 8  # first position of the square tiling
CUBE_START = 52   # first position of the cube tiling


def _square_label(s: int) -> str:
    return f"square segment (j={3 - s % 3}, m={4 + s // 3})"


def _cube_label(s: int) -> str:
    return f"cube segment m={7 + s}"


def _block(firsts, lo: int, hi: int, label: str) -> tuple:
    """The one interval of ``firsts`` that meets the segment [lo, hi],
    clipped to it; meeting none or two raises RuntimeError with ``label``."""
    i = bisect_left(firsts, (hi + 1,))  # (x, y) < (hi + 1,) iff x <= hi
    x, y = firsts[i - 1]
    if i and y >= lo and (i == 1 or firsts[i - 2][1] < lo):
        return max(x, lo), min(y, hi)
    raise RuntimeError(f"{label} meets no first-occurrence interval, or two")


def _bounds(m: int) -> tuple:
    """(b0, b1, b2, b3), the geometry both tilings share: order m tiles
    [b0, b3), square segments (3, m), (2, m) and (1, m) start at b0, b1 and
    b2, and cube segment m is the whole order, cut at b1 and b2.  Part j
    (3, 2, 1) is all of order m - j moved up by t_(m-1)."""
    o = m + _OFF  # t_i is _T[i + _OFF]
    t0, t1, t2 = _T[o], _T[o - 1], _T[o - 2]
    return (exact_div(t0 + t2 - 1, 2), exact_div(-t0 + 4 * t1 + t2 - 1, 2),
            exact_div(t0 + 2 * t1 - t2 - 1, 2),
            exact_div(t0 + 2 * t1 + t2 - 1, 2))


def _square_rows(m: int) -> list:
    """Table rows of square segments (3, m), (2, m) and (1, m), the parts
    of order m (``_bounds``), with their unit increments from ``_block``; a
    row is lo, hi, cut1, cut2, first, shift, inc_lo, inc_hi (see
    ``_Tiling``)."""
    bounds, t1 = _bounds(m), _T[m - 1 + _OFF]
    rows = []
    for j in (3, 2, 1):
        lo, hi = bounds[3 - j], bounds[4 - j] - 1
        inc_lo, inc_hi = _block(_SQUARE_FIRSTS, lo, hi,
                                _square_label(3 * (m - 4) + 3 - j))
        cm = m - j  # order of the three child segments
        # child cuts exist once the copy recursion does (child order >= 4)
        if cm >= 4:
            cut1 = lo + _T[cm - 4 + _OFF]
            cut2 = cut1 + _T[cm - 3 + _OFF]
            # the block is the head [lo, e) for j = 3, else the tail [e, hi],
            # with e in (cut1, cut2] for j = 2, else in (cut2, hi]
            e = inc_hi + 1 if j == 3 else inc_lo
            ok = (cut1 < e <= cut2) if j == 2 else (cut2 < e <= hi)
            if not ok or lo < inc_lo and inc_hi < hi:  # neither head nor tail
                raise AssertionError(
                    f"threshold ordering broken in ({j}, {m})")
            first = 3 * (cm - 4)
        else:
            cut1 = cut2 = lo
            first = -1
        rows.append((lo, hi, cut1, cut2, first, t1, inc_lo, inc_hi))
    return rows


def _cube_rows(m: int) -> list:
    """Table row of cube segment m, all of order m, cut where its square
    parts meet (see ``_square_rows``)."""
    lo, cut1, cut2, end = _bounds(m)
    hi = end - 1
    inc_lo, inc_hi = _block(_CUBE_FIRSTS, lo, hi, _cube_label(m - 7))
    # the block lies in the first child's span, and ends where it does
    if not lo < inc_lo <= inc_hi == cut1 - 1 < cut2 - 1 <= hi:
        raise AssertionError(f"threshold ordering broken in cube segment {m}")
    first = m - 10 if m >= 10 else -1  # children m-3, m-2, m-1 from order 10
    return [(lo, hi, cut1, cut2, first, _T[m - 1 + _OFF], inc_lo, inc_hi)]


def _check_row(rows, s: int, start: int, top: int, label) -> None:
    """Raise RuntimeError, naming segment s, unless it starts right after
    the segment before it (at ``start`` for the first), the counts kept,
    which end at ``top``, do not end inside it, it holds its unit
    increments, and, where it has children, it is the shifted copy of them
    that the counts are copied along and the totals, ``delta`` and the
    descents read, as every segment past the counts must be."""
    l, h, c1, c2, c, d, a, b = rows[s]
    prev_hi = rows[s - 1][1] if s else start - 1
    if l != prev_hi + 1:
        raise RuntimeError(
            f"tiling broken at {label(s)}: it starts at {l}, "
            f"not {prev_hi + 1}")
    if l <= top < h:
        raise RuntimeError(f"the base table ends at {top}, inside a segment")
    if not l <= a <= b <= h:
        raise RuntimeError(f"unit increments of {label(s)} lie outside it")
    if (c < 0 and h > top) or (c >= 0 and (
            rows[c][0], rows[c + 1][0], rows[c + 2][0], rows[c + 2][1])
            != (l - d, c1 - d, c2 - d, h - d)):
        raise RuntimeError(
            f"child segments do not line up with the cuts of {label(s)}")


def _step(row, delta: int, n: int) -> tuple:
    """One step of the copy recursion from position n of the segment
    ``row``, whose ``delta`` is given (see ``_Tiling``): (child, a, b),
    where n - shift lies in segment ``child`` and the step adds a * n + b
    to the cumulative count there (``a`` is 1 inside the increment block,
    else 0)."""
    _, _, cut1, cut2, first, _, inc_lo, inc_hi = row
    child = first + (n >= cut1) + (n >= cut2)
    if n < inc_lo:
        return child, 0, delta
    if n <= inc_hi:
        return child, 1, delta + 1 - inc_lo
    return child, 0, delta + inc_hi - inc_lo + 1


_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _counts(rows, n: int) -> bytearray:
    """The counts ending at positions 0 to n, copied along the ``rows`` of
    one tiling in tiling order: every segment is the counts one ``shift``
    back plus one over its unit increments [inc_lo, inc_hi].  The zeros
    before the tiling starts are copied like any other counts, so a segment
    without children copies zeros, or zeros and the segments below it.  A
    count past 255 raises: ``_PLUS_ONE`` wraps it to 0."""
    per = bytearray(rows[0][0])  # nothing ends before the first segment
    for row in rows:
        if len(per) > n:
            break
        lo, hi, _, _, _, shift, inc_lo, inc_hi = row
        per += per[lo - shift:min(hi, n) + 1 - shift]
        block = per[inc_lo:inc_hi + 1].translate(_PLUS_ONE)
        if 0 in block:
            raise RuntimeError(f"a count in [{inc_lo}, {inc_hi}] passes 255")
        per[inc_lo:inc_hi + 1] = block
    del per[n + 1:]
    return per


class _Tiling:
    """One tiling, built and checked: ``rows`` holds one tuple per segment
    in tiling order, (lo, hi, cut1, cut2, first, shift, inc_lo, inc_hi);
    square segment (j, m) is number 3(m - 4) + 3 - j, cube segment m is
    m - 7.  Segment s covers [lo, hi], and a new square or cube ends at
    each of its unit increments [inc_lo, inc_hi].  Shifted down by
    ``shift``, the previous block length, a position n of the segment lands
    in child segment ``first + (n >= cut1) + (n >= cut2)``; ``first`` is -1
    where the copy recursion has no children.  ``base`` holds the
    per-position counts up to the end of an order, past every segment
    without children.  ``label(s)`` names segment s in errors.

    The constructor takes the rows and those counts and walks the rows
    once, from the tiling's ``start`` on: each segment is checked
    (``_check_row``), then its total goes to ``totals``: the sum of the
    counts over it for a segment without children, which they cover, and
    for every other its three children's plus its unit increments, as the
    counts are copied.  For a segment with children ``deltas`` holds the
    count over [lo - shift, lo) that its step leaves out: the sum of the
    totals of the segments that cover that interval, from its first child
    up to the segment before it.  A segment without children has None in
    ``deltas``.
    """

    __slots__ = ("rows", "base", "label", "totals", "deltas")

    def __init__(self, rows, base, label, start):
        self.rows = rows = tuple(rows)
        self.base = base
        self.label = label
        self.totals = totals = []
        self.deltas = deltas = [None] * len(rows)
        top = len(base) - 1
        for s, row in enumerate(rows):
            _check_row(rows, s, start, top, label)
            lo, hi, _, _, first, _, inc_lo, inc_hi = row
            if first < 0:
                total = sum(base[lo:hi + 1])
            else:
                total = sum(totals[first:first + 3]) + inc_hi - inc_lo + 1
                deltas[s] = sum(totals[first:s])
            totals.append(total)


def _build(kind: str) -> _Tiling:
    """The "square" or the "cube" tiling, built and checked by ``_Tiling``:
    the geometry rows of every order from the lowest up to the one whose
    segments reach N_CAP, and the counts copied along them to the end of
    order _BASE_ORDER (``_counts``), as ``bytes``."""
    if kind == "square":
        rows_of, m, start, label = _square_rows, 4, SQUARE_START, _square_label
    else:
        rows_of, m, start, label = _cube_rows, 7, CUBE_START, _cube_label
    rows = []
    while not rows or rows[-1][1] < N_CAP:
        rows += rows_of(m)
        m += 1
    top = _bounds(_BASE_ORDER)[3] - 1
    return _Tiling(rows, bytes(_counts(rows, top)), label, start)


def _descend(tiling: _Tiling, n: int) -> tuple:
    """The copy recursion applied one step at a time (``_step``) from the
    segment that holds n, 0 <= n <= N_CAP, down to a segment without
    children or below the tiling, where the counts of the build are kept:
    (ones, total, m), the unit increments it meets, the sum of its terms
    a * n + b and the position m it reaches."""
    rows, deltas = tiling.rows, tiling.deltas
    s = bisect_left(rows, (n + 1,)) - 1  # the last segment with lo <= n
    ones = total = 0
    while s >= 0 and deltas[s] is not None:
        row = rows[s]
        s, a, b = _step(row, deltas[s], n)
        ones += a
        total += a * n + b
        n -= row[5]
    return ones, total, n


def _walk(tiling: _Tiling, n: int) -> int:
    """Count ending at or before n: the terms of the descent
    (``_descend``) plus the sum of the counts up to the position reached."""
    _, total, n = _descend(tiling, n)
    return total + sum(tiling.base[:n + 1])


def _walk_at(tiling: _Tiling, n: int) -> int:
    """Count ending exactly at n: the unit increments the descent meets
    plus the count at the position it reaches."""
    ones, _, n = _descend(tiling, n)
    return ones + tiling.base[n]
