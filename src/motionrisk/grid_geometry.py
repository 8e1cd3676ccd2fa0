"""Exact segment geometry on occupancy grids.

Cells are unit squares centered on integer (row, col) coordinates, so cell
boundaries sit on half-integers.  To keep every test exact, points are carried
in *doubled* coordinates: centers become even integers, corners odd integers,
and all blocking decisions reduce to integer arithmetic.  The one convention
that matters everywhere: a segment is blocked only when it crosses the open
interior of an unviable cell; touching a corner or sliding along a cell edge
does not block.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from .world import GridMap

DPoint = Tuple[int, int]  # doubled coordinates: (2*row, 2*col)
FPoint = Tuple[float, float]


def cross(o: DPoint, a: DPoint, b: DPoint) -> int:
    """Orientation of b relative to the directed line o->a (integer exact)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def euclid(a: DPoint, b: DPoint) -> float:
    """Euclidean distance between doubled points, in cell units."""
    return math.hypot(a[0] - b[0], a[1] - b[1]) / 2.0


def _axis_interval(p: int, q: int, lo: int, hi: int):
    """Clip parameter range of p + t*(q-p) to the closed slab [lo, hi].

    Returns (n0, n1, d) meaning t in [n0/d, n1/d] with d > 0, or None when the
    segment runs parallel on or outside the slab (no interior overlap).
    """
    d = q - p
    if d == 0:
        if lo < p < hi:
            return (0, 1, 1)
        return None
    t0, t1 = lo - p, hi - p
    if d < 0:
        t0, t1, d = -t1, -t0, -d
    return (t0, t1, d)


def segment_enters_cell(p: DPoint, q: DPoint, cell: Tuple[int, int]) -> bool:
    """True when segment p->q crosses the open interior of the given cell.

    Exact: corner touches and edge slides report False.
    """
    r, c = cell
    spans = []
    for axis, (lo, hi) in ((0, (2 * r - 1, 2 * r + 1)), (1, (2 * c - 1, 2 * c + 1))):
        iv = _axis_interval(p[axis], q[axis], lo, hi)
        if iv is None:
            return False
        spans.append(iv)
    # Intersect the two rational intervals with [0, 1]; blocked only when the
    # final interval has strictly positive length.
    (a0, a1, ad), (b0, b1, bd) = spans
    lo_n, lo_d = (a0, ad) if a0 * bd >= b0 * ad else (b0, bd)
    hi_n, hi_d = (a1, ad) if a1 * bd <= b1 * ad else (b1, bd)
    if lo_n < 0:
        lo_n, lo_d = 0, 1
    if hi_n > hi_d:
        hi_n, hi_d = 1, 1
    return lo_n * hi_d < hi_n * lo_d


def segment_blocked(p: DPoint, q: DPoint, grid: "GridMap") -> bool:
    """True when the segment crosses the interior of an unviable cell of `grid`.

    Reads the map's viable bytes, as `GridMap.is_viable` does, so a cell
    beyond the grid edge counts as unviable here too.  Walks the cell rows the
    segment spans, from its lower-row end.  In row r the segment stays within
    the doubled rows [y0, y1] of that row's slab, so its columns lie between
    floor(x(y0)) and ceil(x(y1)) (the other way round when it runs toward
    lower columns), both exact integer divisions; only the unviable cells in
    that span are given the exact `segment_enters_cell` test.  The span holds
    every cell whose interior the segment can enter, so the answer is the
    same as testing every unviable cell.  A horizontal segment on an odd
    doubled row runs along cell edges and is never blocked.
    """
    cells, n_rows, n_cols = grid.viable_bytes, grid.n_rows, grid.n_cols
    if p > q:
        p, q = q, p
    pr, pc = p
    qr, qc = q
    dy, dx = qr - pr, qc - pc
    if dy == 0 and pr & 1:
        return False
    # x(y) = pc + n / dy with n = (y - pr) * dx; n0 and n1 belong to the row's
    # lower and upper slab bounds, clipped to the segment's own rows.
    n0 = 0
    for r in range((pr + 1) >> 1, (qr >> 1) + 1):
        y1 = 2 * r + 1
        n1 = ((y1 if y1 < qr else qr) - pr) * dx
        if dy == 0:
            c_lo, c_hi = (pc + 1) >> 1, qc >> 1
        elif dx >= 0:
            c_lo = (pc + n0 // dy + 1) >> 1
            c_hi = (pc - (-n1 // dy)) >> 1
        else:
            c_lo = (pc + n1 // dy + 1) >> 1
            c_hi = (pc - (-n0 // dy)) >> 1
        in_rows, base = 0 <= r < n_rows, r * n_cols
        for c in range(c_lo, c_hi + 1):
            if (not (in_rows and 0 <= c < n_cols and cells[base + c])
                    and segment_enters_cell(p, q, (r, c))):
                return True
        n0 = n1
    return False


def point_in_closed_triangle(pt: DPoint, a: DPoint, b: DPoint, c: DPoint) -> bool:
    """Closed-triangle membership, exact; degenerate triangles accept collinear points."""
    d1 = cross(a, b, pt)
    d2 = cross(b, c, pt)
    d3 = cross(c, a, pt)
    area = cross(a, b, c)
    if area == 0:
        # Degenerate sweep: accept points on the segment spanned by the trio.
        if d1 != 0 or d2 != 0 or d3 != 0:
            return False
        los = [a, b, c]
        rs = [x[0] for x in los]
        cs = [x[1] for x in los]
        return min(rs) <= pt[0] <= max(rs) and min(cs) <= pt[1] <= max(cs)
    if area < 0:
        d1, d2, d3 = -d1, -d2, -d3
    return d1 >= 0 and d2 >= 0 and d3 >= 0


# ---------------------------------------------------------------------------
# Float-domain helpers (visibility rays have irrational endpoints).

_GRAZE_EPS = 1e-9


def _axis_interval_f(p: float, q: float, lo: float, hi: float):
    d = q - p
    if d == 0.0:
        if lo < p < hi:
            return (0.0, 1.0)
        return None
    t0, t1 = (lo - p) / d, (hi - p) / d
    if t0 > t1:
        t0, t1 = t1, t0
    return (t0, t1)


def segment_enters_cell_f(p: FPoint, q: FPoint, cell: Tuple[int, int]) -> bool:
    """Float twin of segment_enters_cell; grazes within ~1e-9 do not block."""
    r, c = cell
    lo_t, hi_t = 0.0, 1.0
    for axis, (lo, hi) in ((0, (r - 0.5, r + 0.5)), (1, (c - 0.5, c + 0.5))):
        iv = _axis_interval_f(p[axis], q[axis], lo, hi)
        if iv is None:
            return False
        lo_t = max(lo_t, iv[0])
        hi_t = min(hi_t, iv[1])
    return hi_t - lo_t > _GRAZE_EPS
