"""Fast repeated-square and repeated-cube counting at arbitrary positions.

Positions from 8 on are tiled by square segments (three per order) and from
52 on by cube segments (one per order).  Per-position counts obey a
self-similar recursion: a segment is a copy of three lower-order segments
shifted by the previous block length, plus one at each unit increment,
where a square (cube) not seen before ends: b(n) = b(n - shift) + a(n),
d(n) = d(n - shift) + c(n), with the increments clipped from the
first-occurrence intervals of ``core_word``.  Each tiling is held as one
row tuple per segment.  A step of the recursion goes from a segment of
order m to a child of order m - j, j in {1, 2, 3}, and both single-point
and cumulative queries walk down it two steps per jump: each segment above
the floor is cut into pieces over which both steps are fixed, and each
piece is composed already linked to the pieces of the segment it lands
in.  The first jump is one ``bisect`` over every piece of the tiling in
position order, each later one a ``bisect`` over the pieces the previous
one linked to, and each adds one term.  At n drawn log-uniformly from
10^3 to 10^18 a call takes about 7.4 jumps and about 2-5 microseconds
warm (README, "Arithmetic and speed").  The walk stops at the floor, the
one table of small positions: the per-position counts of the square
orders 4-17 and the cube orders 7-17, which both end at position 42761,
and their prefix sums in an ``array('I')``.  Every n up to 42761 is read
from it before any lookup, with no jump.

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
pieces (1 887 square and 645 cube pieces, about 620 KB with the first
jump's table), checked as they are composed: they tile the segment, and
every jump lands inside one segment and links to that segment's own
entry.  A mismatch reports the offending segment and aborts, and nothing
is published.  So the first call of a tiling in a fresh process pays the
whole build at any n (README, "Arithmetic and speed").  The paper's
square tree, the unit-increment blocks shifted to later occurrences of a
kernel word, is read off the same rows by the tests
(``tests/paper_checks.py``); no command needs it.
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
    the copy recursion has no children.  ``lo`` is also kept as its own
    tuple, for a ``bisect`` that names the segment of a position.  ``base``
    and ``base_cum`` are the floor: the per-position counts and their
    prefix sums up to the end of the floor orders, where descents stop.

    The constructor builds the tiling in one pass over the rows, from the
    tiling's ``start`` on: each segment is checked (``_check_row``), then
    totalled, the floor's total over it inside the floor, above it its
    three children's plus its unit increments.  A segment above the floor
    is then cut into pieces by ``_steps`` and ``_segment_pieces``, which
    ``_check_pieces`` checks.  Its ``delta``, the count over
    [lo - shift, lo) that the copy leaves out, is the sum of the totals of
    the segments that cover that interval, from its first child up to the
    segment before it, so that the cumulative count at n is the one at
    n - shift plus ``delta`` plus the unit increments at or before n.
    Every segment the pass reads comes before the one it builds: the
    children and the segments its jumps land in.  ``pieces`` holds, per
    segment, its entry: the pair (piece starts, pieces), each piece
    holding the entry of the segment it lands in (None for the floor's
    segments).  ``jumps`` is the entry of the first jump, every piece in
    position order.  A failed check raises RuntimeError naming the
    segment."""

    __slots__ = ("lo", "rows", "base", "base_cum", "label", "pieces", "jumps")

    def __init__(self, rows, base, base_cum, label, start):
        self.lo = tuple(row[0] for row in rows)
        self.rows = rows = tuple(rows)
        self.base = base
        self.base_cum = base_cum
        self.label = label
        top = len(base) - 1
        sums, steps, entries = [], [], []  # per segment
        for s, row in enumerate(rows):
            _check_row(rows, s, start, top, label)
            lo, hi, _, _, first, _, inc_lo, inc_hi = row
            if hi <= top:
                sums.append(base_cum[hi] - base_cum[lo - 1])
                steps.append(None)
                entries.append(None)
                continue
            sums.append(sum(sums[first:first + 3]) + inc_hi - inc_lo + 1)
            steps.append(_steps(row, sum(sums[first:s])))
            entry = _segment_pieces(self, s, steps, entries)
            _check_pieces(self, s, entry, entries)
            entries.append(entry)
        above = [entry for entry in entries if entry]
        self.pieces = tuple(entries)
        self.jumps = (tuple(chain.from_iterable(e[0] for e in above)),
                      tuple(chain.from_iterable(e[1] for e in above)))


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


def _steps(row, delta: int) -> list:
    """One step of the copy recursion at a segment ``row`` whose ``delta``
    is given (see ``_Segments``), cut where the child or the membership in
    the unit-increment block changes: a list of (x, y, child, a, b), one
    per interval [x, y] of the segment, where the step adds a * n + b to
    the cumulative count at n (``a`` is 1 inside the increment block, else
    0)."""
    lo, hi, cut1, cut2, first, shift, inc_lo, inc_hi = row
    edges = sorted({e for e in (cut1, cut2, inc_lo, inc_hi + 1)
                    if lo < e <= hi})
    steps = []
    for x, end in zip([lo] + edges, edges + [hi + 1]):
        child = first + (x >= cut1) + (x >= cut2)
        if x < inc_lo:
            steps.append((x, end - 1, child, 0, delta))
        elif x <= inc_hi:
            steps.append((x, end - 1, child, 1, delta + 1 - inc_lo))
        else:
            steps.append((x, end - 1, child, 0, delta + inc_hi - inc_lo + 1))
    return steps


def _segment_pieces(seg: _Segments, s: int, steps, entries) -> tuple:
    """Two steps of the copy recursion from segment s, above the floor,
    composed into one jump and linked as the descents read it.

    The segment is cut into pieces over which its child, its grandchild and
    the membership in both unit-increment blocks stay constant; a piece is
    (lo, hi, shift, next, a, b): a jump from n in [lo, hi] lands at
    n - shift, in the segment whose entry is ``next`` (None for the floor),
    ``a`` increment blocks hold n and the two steps add a * n + b to the
    cumulative count.  The entry is the pair (the pieces' starts, the
    pieces).  ``steps`` holds the ``_steps`` of s and of each segment below
    it (None in the floor), and ``entries`` the entries of the segments
    below s."""
    rows = seg.rows
    first, shift = rows[s][4:6]
    # per child above the floor, the shift of both steps: one int object
    # for all its pieces
    totals = {c: shift + rows[c][5]
              for c in range(first, first + 3) if steps[c]}
    pieces = []
    for x, y, c, a, b in steps[s]:
        if c not in totals:  # one step reaches the floor
            pieces.append((x, y, shift, None, a, b))
            continue
        # the child's steps, clipped to [x, y] shifted into the child
        total = totals[c]
        for x2, y2, g, a2, b2 in steps[c]:
            x2, y2 = max(x2 + shift, x), min(y2 + shift, y)
            if x2 <= y2:
                pieces.append((x2, y2, total, entries[g], a + a2,
                               b + b2 - a2 * shift))
    return tuple(p[0] for p in pieces), tuple(pieces)


def _check_pieces(seg: _Segments, s: int, entry, entries) -> None:
    """Raise RuntimeError, naming segment s, unless its pieces tile it,
    start where the ``bisect`` column says they do, shift first by the
    segment's own shift into the child they were composed from and then
    by the child's, each land inside one segment t, and each link to
    ``entries[t]`` itself (None for the floor): so that every jump of the
    descents searches the pieces of the segment it lands in."""
    rows, top = seg.rows, len(seg.base) - 1
    lo, hi, cut1, cut2, first, shift = rows[s][:6]
    name = seg.label(s)
    starts, pieces = entry
    if starts != tuple(p[0] for p in pieces):
        raise RuntimeError(f"piece starts of {name} do not match its pieces")
    prev = lo - 1
    for p_lo, p_hi, p_shift, nxt, _, _ in pieces:
        if not prev + 1 == p_lo <= p_hi <= hi:
            raise RuntimeError(f"pieces of {name} do not tile it")
        prev = p_hi
        child = rows[first + (p_lo >= cut1) + (p_lo >= cut2)]
        if not child[0] <= p_lo - shift <= p_hi - shift <= child[1]:
            raise RuntimeError(
                f"a piece of {name} leaves the child it was composed from")
        # two steps, unless the first one reaches the floor
        if p_shift != shift + (child[5] if child[1] > top else 0):
            raise RuntimeError(
                f"a piece of {name} does not shift by its steps")
        # the child, or its first child, starts past the tiling's start,
        # so t >= 0
        t = bisect_right(seg.lo, p_lo - p_shift) - 1
        if p_hi - p_shift > rows[t][1]:
            raise RuntimeError(
                f"a piece of {name} does not land inside one segment")
        if nxt is not entries[t]:
            raise RuntimeError(f"a piece of {name} is not linked to "
                               f"{seg.label(t)}, where it lands")
    if prev != hi:
        raise RuntimeError(f"pieces of {name} do not tile it")


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
    pieces of the segment the previous one landed in; the assert names
    the segment whose pieces were searched."""
    base = seg.base
    if n < len(base):
        return base[n]
    entry, extra = seg.jumps, 0
    while entry is not None:
        starts, cut = entry
        lo, hi, shift, entry, a, _ = cut[bisect_right(starts, n) - 1]
        assert lo <= n <= hi, (seg.label(bisect_right(seg.lo, lo) - 1), n)
        extra += a
        n -= shift
    return base[n] + extra


def _cumulative(seg: _Segments, n: int) -> int:
    """Count ending at or before n: the terms a * n + b of the pieces met
    on the way down plus the floor's prefix sum reached (see ``_point`` and
    ``_segment_pieces``)."""
    base_cum = seg.base_cum
    if n < len(base_cum):
        return base_cum[n]
    entry, total = seg.jumps, 0
    while entry is not None:
        starts, cut = entry
        lo, hi, shift, entry, a, b = cut[bisect_right(starts, n) - 1]
        assert lo <= n <= hi, (seg.label(bisect_right(seg.lo, lo) - 1), n)
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
