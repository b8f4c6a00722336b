"""Fast repeated-square and repeated-cube counting at arbitrary positions.

The tilings come from ``tiling``: one geometry row tuple per segment, the
floor of per-position counts up to position 42761, each segment's ``delta``,
and the copy step stated once as a rule at a point (``_step``), all built
and checked there.  This module adds what makes warm calls fast, and caches
it with the rows (``_SQUARES``, ``_CUBES``).  Both single-point and
cumulative queries walk down the copy recursion two steps per jump: each
segment above the floor is cut into pieces at the positions where either
step changes, and a piece is the jump from any of its positions
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
"Arithmetic and speed").  A descent stops at the floor, whose entries and
prefix sums answer every n up to 42761 before any lookup, with no jump.

A tiling's tables are built on first use, from a checked ``tiling._build``
(``_Segments``): the floor's prefix sums, then one pass over the rows in
tiling order, where a segment comes after its children and after every
segment its jumps land in, cutting each segment above the floor into its
pieces (1 887 square and 645 cube pieces over 204 segments, with their end
pieces and the first jump's table about 500 KB).  They are checked as
they are composed: they tile the segment between its end pieces, start
exactly where a step changes, and each is the jump from its last
position, its link and its terms included.  A mismatch reports the
offending segment and aborts, and nothing is published.  So the first
call of a tiling in a fresh process pays the whole build at any n
(README, "Arithmetic and speed"); a process that wants one cumulative
count reads ``tiling._walk`` instead and builds no piece.  The paper's
square tree, the unit-increment blocks shifted to later occurrences of a
kernel word, is read off the same rows by the tests
(``tests/paper_checks.py``); no command needs it.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate, chain

from .core_word import N_CAP, _arg
from .tiling import _build, _step


# ---------------------------------------------------------------------------
# segment tables, built and self-checked on first use


class _Segments:
    """One tiling's tables for the descents, from a built and checked
    ``tiling._Tiling``, whose ``rows``, ``base`` (the floor), ``label`` and
    ``deltas`` it keeps; segments are numbered in tiling order.
    ``base_cum`` holds the floor's prefix sums as an ``array('I')``: the
    largest, 175 512, needs 4 bytes, and one past the type's range raises
    OverflowError.

    The constructor takes, for each segment above the floor, the positions
    where its step changes (``_edges``) into ``edges``, then cuts it into
    pieces (``_segment_pieces``), which ``_check_pieces`` checks, in one
    pass over the rows in tiling order: every segment the pass reads comes
    before the one it builds, the children and the segments its jumps land
    in.  ``pieces`` holds, per segment, its entry: the pair of its piece
    starts followed by hi + 1, and its pieces between two end pieces, each
    piece linked to the entry of the segment it lands in.  A segment in the
    floor has None in ``deltas``, ``edges`` and ``pieces``.  ``jumps`` is
    the entry of the first jump, laid out the same way over every piece of
    the tiling in position order: the top segment's hi + 1 ends the starts,
    and the lower end piece of the first segment above the floor and the
    upper one of the top segment close the pieces.  A failed check raises
    RuntimeError naming the segment."""

    __slots__ = ("rows", "base", "base_cum", "label", "deltas", "edges",
                 "pieces", "jumps")

    def __init__(self, tiling):
        self.rows = rows = tiling.rows
        self.base = tiling.base
        self.base_cum = array("I", accumulate(tiling.base))
        self.label = tiling.label
        self.deltas = deltas = tiling.deltas
        self.edges = [None if d is None else _edges(row)
                      for row, d in zip(rows, deltas)]
        entries = [None] * len(rows)
        for s, delta in enumerate(deltas):
            if delta is not None:
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


_SQUARES = None  # the square tables, once built and checked
_CUBES = None    # the cube tables, once built and checked


def _square_segments() -> _Segments:
    """Build the square tables and publish them.  Callers reach the tables
    as ``_SQUARES or _square_segments()``."""
    global _SQUARES
    _SQUARES = _Segments(_build("square"))
    return _SQUARES


def _cube_segments() -> _Segments:
    """The cube counterpart of ``_square_segments``."""
    global _CUBES
    _CUBES = _Segments(_build("cube"))
    return _CUBES


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
