"""Fast repeated-square and repeated-cube counting at arbitrary positions.

Positions from 8 on are tiled by square segments (three per order) and from
52 on by cube segments (one per order).  Per-position counts obey a
self-similar recursion: a segment is a copy of three lower-order segments
shifted by the previous block length, plus one at each unit increment,
where a square (cube) not seen before ends: b(n) = b(n - shift) + a(n),
d(n) = d(n - shift) + c(n), with the increments clipped from the
first-occurrence intervals of ``core_word``.  Each tiling is held as one
row tuple per segment.  A step of the recursion goes from a segment of
order m to a child of order m - j, j in {1, 2, 3}, and is stated once, as
a rule at a point (``_step``): the child n lands in and the term it adds.
Both single-point and cumulative queries walk down it two steps per jump:
each segment above the floor is cut into pieces at the positions where
either step changes, and a piece is the jump from any of its positions
(``_jump``).  Its entry holds the pieces' starts followed by its hi + 1,
and the pieces between two end pieces; a piece is (shift, next, a, b),
linked to the entry of the segment it lands in.  A jump is one
``bisect_right`` over the starts, whose index is that of the piece holding
n, a four-field unpack and one term.  The first jump searches every piece
of the tiling in position order, each later one the pieces the previous
one linked to.  A position outside the searched segment reads an end
piece, whose link raises RuntimeError naming the segment on the next jump,
under ``python -O`` too.  At n drawn log-uniformly from 10^3 to 10^18 a
call takes about 7.4 jumps and about 2-4 microseconds warm (README,
"Arithmetic and speed").  The walk stops at the floor, the one table of
small positions: the per-position counts of the square orders 4-17 and the
cube orders 7-17, which both end at position 42761, and their prefix sums
in an ``array('I')``.  Every n up to 42761 is read from it before any
lookup, with no jump.

The rows are the one statement of the copy recursion and hold only
geometry.  The floor and ``positions --repeated`` are copied along them
(``_counts``), each segment the counts one block length back plus one over
its unit increments.  The counts before a tiling starts are zeros, so the
segments without children copy zeros, or zeros and the segments below
them, by the same rule.  A tiling is built on first use, in one pass over
its rows in tiling order, where a segment comes after its children and
after every segment its jumps land in (``_Segments``).  Each segment is
checked first: it tiles on from the one before, the floor does not end
inside it, it holds its unit increments, and it is the shifted copy of
its children, as every segment past the floor must be.  It is then
totalled, from the floor inside the floor and above it from its children
plus its unit increments, and a segment above the floor is cut into its
pieces (1 887 square and 645 cube pieces over 204 segments, with their end
pieces and the first jump's table about 500 KB).  They are checked as
they are composed: they tile the segment between its end pieces, start
exactly where a step changes, and each is the jump from its last
position, its link and its terms included.  A mismatch reports the
offending segment and aborts, and nothing is published.  So the first
call of a tiling in a fresh process pays the whole build at any n
(README, "Arithmetic and speed").  The paper's square tree, the
unit-increment blocks shifted to later occurrences of a kernel word, is
read off the same rows by the tests (``tests/paper_checks.py``); no
command needs it.
"""

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

from .core_word import (
    _CUBE_FIRSTS,
    _OFF,
    _SQUARE_FIRSTS,
    _T,
    N_CAP,
    _arg,
    exact_div,
)


# ---------------------------------------------------------------------------
# the floor order and the tiling starts

# Highest order of the floor, the per-position table where descents stop:
# both tilings end there at position 42761, within the oracle's cap.
_FLOOR_ORDER = 17

SQUARE_START = 8  # first position of the square tiling
CUBE_START = 52   # first position of the cube tiling


# ---------------------------------------------------------------------------
# segment tables, built and self-checked on first use


class _Segments:
    """One tiling as flat tables, indexed by segment number in tiling order:
    square segment (j, m) is 3(m - 4) + 3 - j, cube segment m is m - 7.

    ``rows`` holds one tuple per segment, (lo, hi, cut1, cut2, first,
    shift, inc_lo, inc_hi), as ``_square_rows`` and ``_cube_rows`` return
    them.  Segment s covers [lo, hi], and a new square or cube ends at each
    of its unit increments [inc_lo, inc_hi].  Shifted down by ``shift``,
    the previous block length, a position n of the segment lands in child
    segment ``first + (n >= cut1) + (n >= cut2)``; ``first`` is -1 where
    the copy recursion has no children.  ``base`` and ``base_cum`` are the
    floor: the per-position counts and their prefix sums up to the end of
    the floor orders, where descents stop.

    The constructor builds the tiling in one pass over the rows, from the
    tiling's ``start`` on: each segment is checked (``_check_row``), then
    totalled, the floor's total over it inside the floor, above it its
    three children's plus its unit increments.  For a segment above the
    floor it then keeps what its step (``_step``) reads besides the row:
    in ``deltas`` the count over [lo - shift, lo) that the copy leaves
    out, the sum of the totals of the segments that cover that interval,
    from its first child up to the segment before it, and in ``edges`` the
    positions where the step changes (``_edges``).  The segment is then
    cut into pieces (``_segment_pieces``), which ``_check_pieces`` checks.
    Every segment the pass reads comes before the one it builds: the
    children and the segments its jumps land in.  ``pieces`` holds, per
    segment, its entry: the pair of its piece starts followed by hi + 1,
    and its pieces between two end pieces, each piece linked to the entry
    of the segment it lands in.  A segment in the floor has None in
    ``deltas``, ``edges`` and ``pieces``.  ``jumps`` is the entry of the
    first jump, laid out the same way over every piece of the tiling in
    position order: the top segment's hi + 1 ends the starts, and the
    lower end piece of the first segment above the floor and the upper one
    of the top segment close the pieces.  A failed check raises
    RuntimeError naming the segment."""

    __slots__ = ("rows", "base", "base_cum", "label", "deltas", "edges",
                 "pieces", "jumps")

    def __init__(self, rows, base, base_cum, label, start):
        self.rows = rows = tuple(rows)
        self.base = base
        self.base_cum = base_cum
        self.label = label
        # per segment, None in the floor
        self.deltas = deltas = [None] * len(rows)
        self.edges = edges = [None] * len(rows)
        entries, sums = [None] * len(rows), []
        top = len(base) - 1
        for s, row in enumerate(rows):
            _check_row(rows, s, start, top, label)
            lo, hi, _, _, first, _, inc_lo, inc_hi = row
            if hi <= top:
                sums.append(base_cum[hi] - base_cum[lo - 1])
                continue
            sums.append(sum(sums[first:first + 3]) + inc_hi - inc_lo + 1)
            deltas[s], edges[s] = sum(sums[first:s]), _edges(row)
            entry = _segment_pieces(self, s, entries)
            _check_pieces(self, s, entry, entries)
            entries[s] = entry
        above = [entry for entry in entries if entry]
        self.pieces = tuple(entries)
        # every piece in position order, between the lower end piece of the
        # first segment above the floor and the upper one of the top segment
        self.jumps = (
            tuple(chain.from_iterable(e[0][:-1] for e in above))
            + above[-1][0][-1:],
            above[0][1][:1]
            + tuple(chain.from_iterable(e[1][1:-1] for e in above))
            + above[-1][1][-1:])


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


def _square_rows(m: int) -> list:
    """Table rows of square segments (3, m), (2, m) and (1, m), by direct
    arithmetic on the block lengths and ``_block``; a row is lo, hi, cut1,
    cut2, first, shift, inc_lo, inc_hi."""
    o = m + _OFF  # t_i is _T[i + _OFF]
    t0, t1, t2 = _T[o], _T[o - 1], _T[o - 2]
    kinds = (  # per kind: j, lo, hi
        (3, exact_div(t0 + t2 - 1, 2), exact_div(-t0 + 4 * t1 + t2 - 3, 2)),
        (2, exact_div(-t0 + 4 * t1 + t2 - 1, 2),
         exact_div(t0 + 2 * t1 - t2 - 3, 2)),
        (1, exact_div(t0 + 2 * t1 - t2 - 1, 2),
         exact_div(t0 + 2 * t1 + t2 - 3, 2)),
    )
    rows = []
    for j, lo, hi in kinds:
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
    """Table row of cube segment m, the one segment of its order (see
    ``_square_rows``)."""
    o = m + _OFF
    t0, t1, t2 = _T[o], _T[o - 1], _T[o - 2]
    lo = exact_div(t0 + t2 - 1, 2)
    hi = exact_div(_T[o + 1] + t1 - 3, 2)
    cut1 = lo + _T[o - 4]
    cut2 = cut1 + _T[o - 3]
    inc_lo, inc_hi = _block(_CUBE_FIRSTS, lo, hi, _cube_label(m - 7))
    # the block lies in the first child's span, and ends where it does
    if not lo < inc_lo <= inc_hi == cut1 - 1 < cut2 - 1 <= hi:
        raise AssertionError(f"threshold ordering broken in cube segment {m}")
    first = m - 10 if m >= 10 else -1  # children m-3, m-2, m-1 from order 10
    return [(lo, hi, cut1, cut2, first, t1, inc_lo, inc_hi)]


def _check_row(rows, s: int, start: int, top: int, label) -> None:
    """Raise RuntimeError, naming segment s, unless it starts right after
    the segment before it (at ``start`` for the first), the floor, which
    ends at ``top``, does not end inside it, it holds its unit increments,
    and, where it has children, it is the shifted copy of them that the
    floor is copied along and the totals, ``delta`` and the descents read,
    as every segment past the floor must be."""
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
    ``row``, whose ``delta`` is given (see ``_Segments``): (child, a, b),
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


def _edges(row) -> tuple:
    """The positions in (lo, hi] of the segment ``row`` where its step
    (``_step``) changes: the cuts, the start of the increment block and
    the position after it."""
    lo, hi, cut1, cut2, _, _, inc_lo, inc_hi = row
    return tuple(e for e in (cut1, cut2, inc_lo, inc_hi + 1) if lo < e <= hi)


def _jump(seg: _Segments, entries, s: int, n: int) -> tuple:
    """Two steps of the copy recursion from position n of segment s,
    above the floor, as one piece (shift, next, a, b): the jump lands at
    n - shift, in the segment whose entry in ``entries`` is ``next`` (None
    for the floor), ``a`` increment blocks hold n and the two steps add
    a * n + b to the cumulative count.  Where the first step reaches the
    floor, it is the jump."""
    rows, deltas = seg.rows, seg.deltas
    shift = rows[s][5]
    c, a, b = _step(rows[s], deltas[s], n)
    if entries[c] is None:  # the first step reaches the floor
        return shift, None, a, b
    g, a2, b2 = _step(rows[c], deltas[c], n - shift)
    return shift + rows[c][5], entries[g], a + a2, b + b2 - a2 * shift


def _starts(seg: _Segments, s: int) -> list:
    """The piece starts of segment s, above the floor, in order: its lo,
    its edges and the edges of each child above the floor shifted up by
    its shift, so that no step of a jump changes between two starts."""
    rows, edges = seg.rows, seg.edges
    lo, _, _, _, first, shift = rows[s][:6]
    starts = {lo, *edges[s]}
    for c in range(first, first + 3):
        for e in edges[c] or ():  # None in the floor
            starts.add(e + shift)
    return sorted(starts)


class _Outside:
    """The link of an end piece.  A descent that reads an end piece has
    searched the pieces of a segment for a position outside it, and
    unpacking the link as the next entry raises RuntimeError naming that
    segment, under ``python -O`` too."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __iter__(self):
        raise RuntimeError(
            f"a descent searched the pieces of {self.name} for a position "
            "outside it")


def _segment_pieces(seg: _Segments, s: int, entries) -> tuple:
    """The entry of segment s, above the floor: two steps of the copy
    recursion composed into one jump, linked as the descents read it.

    The segment is cut into pieces at ``_starts``, so that each piece is
    the ``_jump`` from its start, with ``entries`` the entries of the
    segments below s.  The entry is the pair (starts, cut): ``starts``
    holds the start of every piece and then hi + 1, and ``cut`` holds an
    end piece, the pieces and another end piece, so that piece k covers
    [starts[k - 1], starts[k] - 1] and ``cut[bisect_right(starts, n)]`` is
    the piece holding n, or an end piece for n outside the segment.  An
    end piece is (0, ``_Outside``, 0, 0)."""
    starts = _starts(seg, s)
    end = (0, _Outside(seg.label(s)), 0, 0)
    cut = (end, *[_jump(seg, entries, s, x) for x in starts], end)
    starts.append(seg.rows[s][1] + 1)
    return tuple(starts), cut


def _check_pieces(seg: _Segments, s: int, entry, entries) -> None:
    """Raise RuntimeError, naming segment s, unless its entry has an end
    piece naming it at each side, its starts are ``_starts`` followed by
    hi + 1 with one piece between each two, and each piece is the
    ``_jump`` from its last position, with its link ``entries[t]`` itself
    for the segment t it lands in (None for the floor).  No step of a jump
    changes inside a piece, so it is then the jump from each of its
    positions, its terms included: every jump of the descents adds the
    terms of its two steps and searches the pieces of the segment it lands
    in, and one from outside the segment raises."""
    name = seg.label(s)
    starts, cut = entry
    for end in cut[0], cut[-1]:
        if (type(end[1]) is not _Outside or end != (0, end[1], 0, 0)
                or end[1].name != name):
            raise RuntimeError(f"pieces of {name} lack an end piece")
    if (starts[-1], len(cut)) != (seg.rows[s][1] + 1, len(starts) + 1):
        raise RuntimeError(f"pieces of {name} do not tile it")
    if list(starts[:-1]) != _starts(seg, s):
        raise RuntimeError(
            f"pieces of {name} do not start where its steps change")
    for end, piece in zip(starts[1:], cut[1:-1]):
        jump = _jump(seg, entries, s, end - 1)
        if piece[1] is not jump[1] or piece != jump:
            raise RuntimeError(
                f"a piece of {name} is not the jump from {end - 1}")


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


def _build_segments(rows_of, m, start, label) -> _Segments:
    """One tiling's tables, built and self-checked by ``_Segments``: the
    geometry rows ``rows_of(m)`` of every order from m up to the one whose
    segments reach N_CAP, and the floor copied along them to the end of
    order _FLOOR_ORDER (``_counts``), as ``bytes`` and an ``array('I')`` of
    prefix sums (the largest, 175 512, needs 4 bytes, and one past the
    type's range raises OverflowError)."""
    rows = []
    while not rows or rows[-1][1] < N_CAP:
        rows += rows_of(m)
        if m == _FLOOR_ORDER:
            top = rows[-1][1]
        m += 1
    per = _counts(rows, top)
    return _Segments(rows, bytes(per), array("I", accumulate(per)), label,
                     start)


_SQUARES = None  # the square tables, once built and checked
_CUBES = None    # the cube tables, once built and checked


def _square_segments() -> _Segments:
    """Build the square tables and publish them.  Callers reach the tables
    as ``_SQUARES or _square_segments()``."""
    global _SQUARES
    _SQUARES = _build_segments(_square_rows, 4, SQUARE_START, _square_label)
    return _SQUARES


def _cube_segments() -> _Segments:
    """The cube counterpart of ``_square_segments``."""
    global _CUBES
    _CUBES = _build_segments(_cube_rows, 7, CUBE_START, _cube_label)
    return _CUBES


def _square_counts(n: int) -> bytearray:
    """The square-end counts at positions 0 to n (see ``_counts``)."""
    return _counts((_SQUARES or _square_segments()).rows, n)


def _cube_counts(n: int) -> bytearray:
    """The cube-end counts at positions 0 to n (see ``_counts``)."""
    return _counts((_CUBES or _cube_segments()).rows, n)


# ---------------------------------------------------------------------------
# descents


def _point(seg: _Segments, n: int) -> int:
    """Count ending exactly at n: the unit increments met on the way down
    the copy recursion, two steps per jump, plus the floor entry reached:
    the entry of n itself, read before any lookup, for every n up to the
    floor's end.  The first jump searches every piece, each later one the
    pieces of the segment the previous one landed in.  A jump that finds
    an end piece has landed outside that segment, and the next one raises
    RuntimeError naming it (see ``_Outside``)."""
    base = seg.base
    if n < len(base):
        return base[n]
    entry, extra = seg.jumps, 0
    while entry is not None:
        starts, cut = entry
        shift, entry, a, _ = cut[bisect_right(starts, n)]
        extra += a
        n -= shift
    return base[n] + extra


def _cumulative(seg: _Segments, n: int) -> int:
    """Count ending at or before n: the terms a * n + b of the pieces met
    on the way down plus the floor's prefix sum reached (see ``_point`` and
    ``_jump``)."""
    base_cum = seg.base_cum
    if n < len(base_cum):
        return base_cum[n]
    entry, total = seg.jumps, 0
    while entry is not None:
        starts, cut = entry
        shift, entry, a, b = cut[bisect_right(starts, n)]
        total += a * n + b
        n -= shift
    return total + base_cum[n]


# ---------------------------------------------------------------------------
# single-point counts


def b_at(n: int) -> int:
    """Number of square occurrences ending exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    return _point(_SQUARES or _square_segments(), n)


def d_at(n: int) -> int:
    """Number of cube occurrences ending exactly at position n."""
    if type(n) is not int or n < 1 or n > N_CAP:
        n = _arg(n, 1, N_CAP, "position")
    return _point(_CUBES or _cube_segments(), n)


# ---------------------------------------------------------------------------
# cumulative counts


def algorithm_B(n: int) -> int:
    """Number of repeated squares in the length-n prefix, O(log n)."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    return _cumulative(_SQUARES or _square_segments(), n)


def algorithm_D(n: int) -> int:
    """Number of repeated cubes in the length-n prefix, O(log n)."""
    if type(n) is not int or n < 0 or n > N_CAP:
        n = _arg(n, 0, N_CAP, "prefix length")
    return _cumulative(_CUBES or _cube_segments(), n)
