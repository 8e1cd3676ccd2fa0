"""Taut-tether tracking for anchored traverses.

The tether is modelled as a rubber band from the anchor to the robot: a chain
of straight segments deflected only at convex corners of the unviable set.
Corners live on half-integer coordinates, so the whole simulation runs on the
doubled-integer lattice and every blocking/orientation decision is exact.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .grid_geometry import (
    DPoint,
    cross,
    euclid,
    point_in_closed_triangle,
    segment_blocked,
)
from .world import GridMap, State


class TetherError(ValueError):
    """Raised when a tether update cannot be carried out."""


def _state_d(s: State) -> DPoint:
    return (2 * s.row, 2 * s.col)


@dataclass(frozen=True)
class TetherState(object):
    """Taut chain from anchor to head; interior points are wrap contacts."""

    anchor: State
    head: State
    chain: Tuple[DPoint, ...]  # doubled coords, anchor first, head last

    @property
    def contacts(self) -> Tuple[Tuple[float, float], ...]:
        """Wrap corners in map coordinates (half-integer row, col pairs)."""
        return tuple((p[0] / 2.0, p[1] / 2.0) for p in self.chain[1:-1])

    @property
    def contact_count(self) -> int:
        """len(contacts), without building them."""
        return max(0, len(self.chain) - 2)

    @property
    def taut_length(self) -> float:
        """Length of the taut chain, in cell units."""
        return sum(euclid(a, b) for a, b in zip(self.chain, self.chain[1:]))


def start_tether(grid: GridMap, start: State, anchor: Optional[State] = None) -> TetherState:
    """Tether state before any motion; anchor defaults to the start state."""
    anchor = anchor if anchor is not None else start
    for s in (anchor, start):
        if not grid.is_viable(s.row, s.col):
            raise TetherError(f"tether endpoint ({s.row}, {s.col}) must be viable")
    a_d, s_d = _state_d(anchor), _state_d(start)
    if a_d != s_d and segment_blocked(a_d, s_d, grid.unviable_cells()):
        raise TetherError("anchor must have line of sight to the first state")
    chain = (a_d, s_d) if a_d != s_d else (a_d,)
    return TetherState(anchor=anchor, head=start, chain=chain)


def _swept_corners(grid: GridMap, q: DPoint, h_old: DPoint, n: DPoint) -> List[DPoint]:
    """The convex corners other than q and n in the closed triangle (q, h_old, n).

    `grid.convex_corners()` is sorted by row, then column, so bisection finds
    the corners in the triangle's rows, and a column test keeps those in its
    bounding box; only these get the exact `point_in_closed_triangle` test.
    No point outside the bounding box lies in the closed triangle, a
    degenerate (collinear) one included, so the list is that of a scan over
    every corner, in the same order.
    """
    corners = grid.convex_corners()
    r_lo, r_hi = min(q[0], h_old[0], n[0]), max(q[0], h_old[0], n[0])
    c_lo, c_hi = min(q[1], h_old[1], n[1]), max(q[1], h_old[1], n[1])
    return [
        v
        for v in corners[bisect_left(corners, (r_lo,)): bisect_left(corners, (r_hi + 1,))]
        if c_lo <= v[1] <= c_hi and v != q and v != n and point_in_closed_triangle(v, q, h_old, n)
    ]


def _funnel_insert(
    grid: GridMap, q: DPoint, h_old: DPoint, n: DPoint
) -> List[DPoint]:
    """Corners the band wraps while the head sweeps from h_old to n.

    The swept region of a straight head motion is the triangle (q, h_old, n);
    the band settles on the shortest corner chain from q to n inside it.  The
    candidate corners are those of `_swept_corners`, in the map's corner
    order, so the Dijkstra below breaks ties the same way on every map.
    """
    unviable = grid.unviable_cells()
    nodes = [q] + _swept_corners(grid, q, h_old, n) + [n]
    best: Dict[DPoint, Tuple[float, Tuple[DPoint, ...]]] = {}
    heap = [(0.0, (q,))]
    while heap:
        d, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and best[node] <= (d, path):
            continue
        best[node] = (d, path)
        if node == n:
            return list(path[1:-1])
        for v in nodes:
            if v == node or (v in best and v != n):
                continue
            if segment_blocked(node, v, unviable):
                continue
            cand = (d + euclid(node, v), path + (v,))
            if v not in best or cand < best[v]:
                heapq.heappush(heap, cand)
    # Every corner the band can catch on during a straight sweep lies in the
    # closed triangle, so reaching this point means the head motion itself cut
    # through unviable space.
    raise TetherError(
        f"no taut chain for head motion {h_old}->{n}; the step crosses unviable cells"
    )


def advance_tether(grid: GridMap, tether: TetherState, s_next: State) -> TetherState:
    """One head step: slide off straightened corners, wrap newly blocking ones."""
    if not grid.is_viable(s_next.row, s_next.col):
        raise TetherError(f"tether head ({s_next.row}, {s_next.col}) must be viable")
    n = _state_d(s_next)
    orig = list(tether.chain)
    h_old = orig[-1]
    if n == h_old:
        return tether
    unviable = grid.unviable_cells()
    body = orig[:-1]  # anchor plus contacts
    if not body:
        body = [h_old]  # degenerate: anchor == head

    # Release: a contact stops bearing load when the head crosses the line of
    # its supporting segment (bend straightens) and regains sight of the prior
    # chain point.  Bend orientation is read off the pre-step chain.
    while len(body) >= 2:
        c, p = body[-1], body[-2]
        sigma = cross(p, c, orig[len(body)])
        if sigma * cross(p, c, n) <= 0 and not segment_blocked(p, n, unviable):
            body.pop()
        else:
            break

    q = body[-1]
    if q != n and segment_blocked(q, n, unviable):
        body.extend(_funnel_insert(grid, q, h_old, n))
        q = body[-1]

    new_chain = tuple(body) + ((n,) if n != body[-1] else ())
    return TetherState(anchor=tether.anchor, head=s_next, chain=new_chain)


def tether_for_prefix(
    grid: GridMap, prefix: Sequence[State], anchor: Optional[State] = None
) -> TetherState:
    """Fold advance_tether over a traverse prefix."""
    states = list(prefix)
    if not states:
        raise TetherError("prefix must contain at least one state")
    tet = start_tether(grid, states[0], anchor=anchor)
    for s in states[1:]:
        tet = advance_tether(grid, tet, s)
    return tet


def check_tether(grid: GridMap, tether: TetherState) -> None:
    """Assert the chain invariants; raises TetherError on violation."""
    unviable = grid.unviable_cells()
    corners = set(grid.convex_corners())
    chain = tether.chain
    if chain[0] != _state_d(tether.anchor):
        raise TetherError("chain must start at the anchor")
    if chain[-1] != _state_d(tether.head):
        raise TetherError("chain must end at the head")
    for v in chain[1:-1]:
        if v not in corners:
            raise TetherError(f"contact {v} is not a convex corner of the unviable set")
    for a, b in zip(chain, chain[1:]):
        if segment_blocked(a, b, unviable):
            raise TetherError(f"chain segment {a}->{b} crosses an unviable cell")
