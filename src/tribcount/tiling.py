"""The tiling of the repeated counts, as geometry rows, and the copy
recursion walked one step at a time.

Positions from 8 on are tiled by segments, three per order: order m covers
[b0, b3) and its segments (3, m), (2, m) and (1, m) start at b0, b1 and b2
(``_bounds``).  Squares and cubes share the tiling, and each kind has only
its unit increments of its own, the positions where a square (cube) not
seen before ends, clipped from the first-occurrence intervals of
``core_word``: every segment holds one square block, and from order 7 on
segment (3, m) holds the one cube block of order m, the other segments the
empty block.  Per-position counts obey a self-similar recursion: a segment
is a copy of the three segments of one lower order shifted by the previous
block length, plus one at each unit increment: b(n) = b(n - shift) + a(n),
d(n) = d(n - shift) + c(n).  A tiling is held as one row tuple per
segment, with the increments of one kind (``_rows``), and a step of the
recursion goes from a segment of order m to a child of order m - j, j in
{1, 2, 3}.  It is stated once, as a rule at a point (``_step``): the child
n lands in and the term it adds.

The per-position counts are copied along the rows (``_counts``): each
segment the counts one block length back plus one over its unit
increments.  The six segments without children, (3, 4), (2, 4), (1, 4),
(3, 5), (2, 5) and (3, 6), whose children would be of order below 4, copy
positions 1-7, before the tiling starts, where every count is 0.  So every
count below the first unit increment of a tiling, its ``stop`` (8 for
squares, 58 for cubes), is 0.  ``fast_count`` keeps the counts of the
lower orders as its floor, where its descents stop.

A tiling is built (``_build``) in one pass over its rows in tiling order,
where a segment comes after its children.  Each segment is checked first:
it tiles on from the one before, it holds its unit increments, and it is
the shifted copy of its children, or, without children, of positions
before the tiling starts.  A mismatch raises RuntimeError naming the
segment.  It is then totalled, from its children, if it has any, plus its
unit increments, and keeps its ``delta``, the count one step leaves out.
The build holds no counts and no pieces and keeps no cache:
``fast_count`` caches the tables its counters read and adds the floor and
the pieces, two steps per jump, to them.  A process that asks for one
cumulative count (``count --stat B/D``, the row cap of ``positions
--repeated``) reads ``_walk`` of a fresh build instead, and so does the
first call of each tiling in the library, or ``_walk_at`` for a count at
one position: the descent (``_descend``) applies the step to every
segment it meets until it reaches a position below ``stop``, and builds no
piece and no floor.
"""

from bisect import bisect_left

from .core_word import _CUBE_FIRSTS, _OFF, _SQUARE_FIRSTS, _T, N_CAP, exact_div


_START = 8  # first position of the tiling, segment (3, 4)


def _label(kind: str, s: int) -> str:
    return f"{kind} segment (j={3 - s % 3}, m={4 + s // 3})"


def _block(firsts, lo: int, hi: int, label: str) -> tuple:
    """The interval of ``firsts`` that meets the segment [lo, hi], clipped
    to it, or the empty block (hi + 1, hi) if none does; meeting two
    raises RuntimeError with ``label``."""
    i = bisect_left(firsts, (hi + 1,))  # (x, y) < (hi + 1,) iff x <= hi
    if not i or firsts[i - 1][1] < lo:
        return hi + 1, hi
    if i > 1 and firsts[i - 2][1] >= lo:
        raise RuntimeError(f"{label} meets two first-occurrence intervals")
    x, y = firsts[i - 1]
    return max(x, lo), min(y, hi)


def _bounds(m: int) -> tuple:
    """(b0, b1, b2, b3), the geometry of the rows of both kinds: order m
    tiles [b0, b3), and segments (3, m), (2, m) and (1, m) start at b0, b1
    and b2.  Part j (3, 2, 1) is all of order m - j moved up by
    t_(m-1)."""
    o = m + _OFF  # t_i is _T[i + _OFF]
    t0, t1, t2 = _T[o], _T[o - 1], _T[o - 2]
    return (exact_div(t0 + t2 - 1, 2), exact_div(-t0 + 4 * t1 + t2 - 1, 2),
            exact_div(t0 + 2 * t1 - t2 - 1, 2),
            exact_div(t0 + 2 * t1 + t2 - 1, 2))


def _rows(m: int, kind: str) -> list:
    """Table rows of segments (3, m), (2, m) and (1, m), the parts of order
    m (``_bounds``), with the unit increments of ``kind``, "square" or
    "cube", from ``_block``; a row is lo, hi, cut1, cut2, first, shift,
    inc_lo, inc_hi (see ``_Tiling``)."""
    firsts = _SQUARE_FIRSTS if kind == "square" else _CUBE_FIRSTS
    bounds, t1 = _bounds(m), _T[m - 1 + _OFF]
    rows = []
    for j in (3, 2, 1):
        lo, hi = bounds[3 - j], bounds[4 - j] - 1
        label = _label(kind, 3 * (m - 4) + 3 - j)
        inc_lo, inc_hi = _block(firsts, lo, hi, label)
        cm = m - j  # order of the three child segments
        # child cuts exist once the copy recursion does (child order >= 4)
        if cm >= 4:
            cut1 = lo + _T[cm - 4 + _OFF]
            cut2 = cut1 + _T[cm - 3 + _OFF]
            first = 3 * (cm - 4)
        else:
            cut1 = cut2 = lo
            first = -1
        if kind == "square":
            # every part holds a block: where there are child cuts, the
            # head [lo, e) for j = 3, else the tail [e, hi], with e in
            # (cut1, cut2] for j = 2, else in (cut2, hi]
            e = inc_hi + 1 if j == 3 else inc_lo
            inside = (cut1 < e <= cut2) if j == 2 else (cut2 < e <= hi)
            ok = inc_lo <= inc_hi and (
                cm < 4 or inside and (inc_lo == lo or inc_hi == hi))
        else:
            # from order 7 on, part (3, m) ends with a block that starts
            # past its lo; every other part holds none
            ok = (lo < inc_lo <= inc_hi == hi) if j == 3 and m >= 7 else (
                inc_lo > hi)
        if not ok:
            raise AssertionError(f"threshold ordering broken in {label}")
        rows.append((lo, hi, cut1, cut2, first, t1, inc_lo, inc_hi))
    return rows


def _check_row(rows, s: int, label) -> None:
    """Raise RuntimeError, naming segment s by ``label(s)``, unless it
    starts right after the segment before it (at _START for the first), it
    holds its unit increments or the empty block (hi + 1, hi), and it is
    the shifted copy that the counts are copied along and the totals,
    ``delta`` and the descents read: of its children where it has them,
    else of positions 0 to _START - 1 only, where every count is 0."""
    l, h, c1, c2, c, d, a, b = rows[s]
    prev_hi = rows[s - 1][1] if s else _START - 1
    if l != prev_hi + 1:
        raise RuntimeError(
            f"tiling broken at {label(s)}: it starts at {l}, "
            f"not {prev_hi + 1}")
    if not (l <= a <= b <= h or (a, b) == (h + 1, h)):
        raise RuntimeError(f"unit increments of {label(s)} lie outside it")
    if (c < 0 and not 0 <= l - d <= h - d < _START) or (c >= 0 and (
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
    without children copies zeros.  A count past 255 raises: ``_PLUS_ONE``
    wraps it to 0."""
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
    segment (j, m) is number 3(m - 4) + 3 - j.  Segment s covers [lo, hi],
    and a new square or cube, as ``kind`` says, ends at each of its unit
    increments [inc_lo, inc_hi], which is (hi + 1, hi) where none ends.
    Shifted down by ``shift``, the previous block length, a position n of
    the segment lands in child segment ``first + (n >= cut1) + (n >=
    cut2)``; ``first`` is -1 where the copy recursion has no children, and
    n lands below _START.  ``label(s)`` names segment s in errors.

    The constructor takes the rows and walks them once, from _START on:
    each segment is checked (``_check_row``), then its total goes to
    ``totals``: its three children's, if it has any, plus its unit
    increments, as the counts are copied.  ``deltas`` holds the count over
    [lo - shift, lo) that its step leaves out: the sum of the totals of the
    segments that cover that interval, from its first child, or from the
    first segment where it has none, up to the segment before it.
    ``stop`` is the first unit increment of the tiling, that of the first
    segment that holds one: every count below it is 0.
    """

    __slots__ = ("rows", "kind", "totals", "deltas", "stop")

    def __init__(self, rows, kind):
        self.rows = rows = tuple(rows)
        self.kind = kind
        self.totals = totals = []
        self.deltas = deltas = []
        for s, row in enumerate(rows):
            _check_row(rows, s, self.label)
            _, _, _, _, first, _, inc_lo, inc_hi = row
            children = totals[first:first + 3] if first >= 0 else ()
            deltas.append(sum(totals[first:] if first >= 0 else totals))
            totals.append(sum(children) + inc_hi - inc_lo + 1)
        self.stop = next(a for *_, a, b in rows if a <= b)

    def label(self, s: int) -> str:
        return _label(self.kind, s)


def _build(kind: str) -> _Tiling:
    """The "square" or the "cube" tiling, built and checked by ``_Tiling``:
    the rows of every order from 4 up to the one whose segments reach
    N_CAP, with the unit increments of ``kind``."""
    rows, m = [], 4
    while not rows or rows[-1][1] < N_CAP:
        rows += _rows(m, kind)
        m += 1
    return _Tiling(rows, kind)


def _descend(tiling: _Tiling, n: int) -> tuple:
    """The copy recursion applied one step at a time (``_step``) from the
    segment that holds n, 0 <= n <= N_CAP, until it reaches a position
    below the tiling's ``stop``, where every count is 0: (ones, total),
    the unit increments it meets and the sum of its terms a * n + b."""
    rows, deltas, stop = tiling.rows, tiling.deltas, tiling.stop
    s = bisect_left(rows, (n + 1,)) - 1  # the last segment with lo <= n
    ones = total = 0
    while n >= stop:
        row = rows[s]
        s, a, b = _step(row, deltas[s], n)
        ones += a
        total += a * n + b
        n -= row[5]
    return ones, total


def _walk(tiling: _Tiling, n: int) -> int:
    """Count ending at or before n: the terms of the descent
    (``_descend``)."""
    return _descend(tiling, n)[1]


def _walk_at(tiling: _Tiling, n: int) -> int:
    """Count ending exactly at n: the unit increments the descent meets."""
    return _descend(tiling, n)[0]
