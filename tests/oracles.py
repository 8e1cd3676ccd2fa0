"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
algorithms than the library: plain loops instead of array transforms,
Fraction-based exact geometry instead of the integer-interval tests, and a
homotopy-word Dijkstra instead of the incremental release/wrap tether update.
The exceptions are `scan_ray_blocked`, which keeps the library's float cell
test but scans each ray's bounding box in absolute coordinates on every
query, where the library shifts a ray fan traced once from the origin, and
`prefix_risk_matrix`, which calls each element on every whole prefix, where
the library folds the path once, and `serial_monte_carlo_failures`, which
draws the one seeded stream chunk after chunk, where the library jumps a
copy of the generator to each block's start and runs blocks in threads.
"""

import heapq
import math
from fractions import Fraction

import numpy as np

from motionrisk.grid_geometry import segment_enters_cell_f


# ---------------------------------------------------------------------------
# Distance field


def brute_distance_field(viable, cell_size=1.0):
    """Per-cell min center-to-center distance to any unviable cell (inf if none)."""
    n_rows = len(viable)
    n_cols = len(viable[0])
    blocked = [
        (r, c) for r in range(n_rows) for c in range(n_cols) if not viable[r][c]
    ]
    out = [[math.inf] * n_cols for _ in range(n_rows)]
    for r in range(n_rows):
        for c in range(n_cols):
            for br, bc in blocked:
                d = math.hypot(r - br, c - bc) * cell_size
                if d < out[r][c]:
                    out[r][c] = d
    return out


# ---------------------------------------------------------------------------
# Exact segment-vs-cell geometry on the doubled lattice, via Fractions


def _open_interval_hits(p, q, lo, hi):
    """Parameter interval (as Fractions) where p + t*(q-p) lies in (lo, hi)."""
    d = q - p
    if d == 0:
        if lo < p < hi:
            return Fraction(0), Fraction(1)
        return None
    t0 = Fraction(lo - p, d)
    t1 = Fraction(hi - p, d)
    if t0 > t1:
        t0, t1 = t1, t0
    return max(t0, Fraction(0)), min(t1, Fraction(1))


def seg_crosses_cell(p, q, cell):
    """True if segment p->q (doubled coords) passes through the open interior
    of the unit cell `cell` (given in map coords)."""
    r, c = cell
    row_hit = _open_interval_hits(p[0], q[0], 2 * r - 1, 2 * r + 1)
    if row_hit is None:
        return False
    col_hit = _open_interval_hits(p[1], q[1], 2 * c - 1, 2 * c + 1)
    if col_hit is None:
        return False
    lo = max(row_hit[0], col_hit[0])
    hi = min(row_hit[1], col_hit[1])
    return lo < hi


def seg_blocked(p, q, unviable):
    return any(seg_crosses_cell(p, q, cell) for cell in unviable)


def oracle_convex_corners(unviable, n_rows, n_cols):
    """Lattice vertices (doubled odd coords) with exactly one unviable cell
    among the four incident ones; off-grid counts as unviable."""
    unviable = set(unviable)

    def occupied(r, c):
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            return True
        return (r, c) in unviable

    out = set()
    for r in range(n_rows + 1):
        for c in range(n_cols + 1):
            count = sum(
                occupied(rr, cc)
                for rr in (r - 1, r)
                for cc in (c - 1, c)
            )
            if count == 1:
                out.add((2 * r - 1, 2 * c - 1))
    return out


def oracle_pivot_vertices(unviable, n_rows, n_cols):
    """Superset of convex corners: every vertex a taut chain could bend at.

    Besides exactly-one-occupied vertices this includes diagonal pinches (two
    occupied cells touching only at the vertex), where a chain squeezing
    through the gap may wrap either block.
    """
    unviable = set(unviable)

    def occupied(r, c):
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            return True
        return (r, c) in unviable

    out = set()
    for r in range(n_rows + 1):
        for c in range(n_cols + 1):
            quad = [
                occupied(rr, cc)
                for rr in (r - 1, r)
                for cc in (c - 1, c)
            ]
            count = sum(quad)
            diagonal_pinch = count == 2 and quad[0] == quad[3]
            if count == 1 or diagonal_pinch:
                out.add((2 * r - 1, 2 * c - 1))
    return out


# ---------------------------------------------------------------------------
# Homotopy: reduced crossing words against downward rays from cell centers


def reduce_word(items):
    stack = []
    for item in items:
        if stack and stack[-1][0] == item[0] and stack[-1][1] == -item[1]:
            stack.pop()
        else:
            stack.append(item)
    return tuple(stack)


def crossing_word(points, punctures):
    """Reduced word of ray crossings along the polyline (doubled coords).

    Each puncture (an unviable cell) owns a vertical ray going down from a
    point in its interior.  The x offsets are distinct rationals in (0, 1) of
    doubled units, one per puncture index, so no two rays share a line and no
    ray meets a lattice point: crossing order along a segment is unambiguous.
    """
    n = len(punctures)
    raw = []
    for p, q in zip(points, points[1:]):
        if p[1] == q[1]:
            continue  # vertical step crosses no ray (ray x is never an integer)
        seg_hits = []
        for idx, (cr, cc) in enumerate(punctures):
            x = 2 * cc + Fraction(idx + 1, n + 1)
            lo, hi = sorted((p[1], q[1]))
            if not (lo < x < hi):
                continue
            t = (x - p[1]) / Fraction(q[1] - p[1])
            row_at = p[0] + t * (q[0] - p[0])
            if row_at > 2 * cr:
                sign = 1 if q[1] > p[1] else -1
                seg_hits.append((t, idx, sign))
        seg_hits.sort()
        raw.extend((idx, sign) for _, idx, sign in seg_hits)
    return reduce_word(raw)


def shortest_homotopic_chain(unviable, n_rows, n_cols, anchor_d, head_d, target_word):
    """Shortest anchor->head corner chain whose crossing word matches.

    Dijkstra over (point, reduced word) pairs; nodes are the anchor, the head,
    and every convex corner; edges are unblocked straight segments.  Returns
    the chain as a tuple of doubled points, or None.
    """
    punctures = sorted(unviable)
    pivots = sorted(oracle_pivot_vertices(unviable, n_rows, n_cols))
    nodes = [anchor_d] + [v for v in pivots if v not in (anchor_d, head_d)]
    if head_d != anchor_d:
        nodes.append(head_d)
    blocked_memo = {}
    word_memo = {}

    def edge_blocked(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in blocked_memo:
            blocked_memo[key] = seg_blocked(key[0], key[1], punctures)
        return blocked_memo[key]

    def edge_word(a, b):
        if (a, b) not in word_memo:
            word_memo[(a, b)] = crossing_word([a, b], punctures)
        return word_memo[(a, b)]

    cap = len(target_word) + 4
    if anchor_d == head_d and target_word == ():
        return (anchor_d,)
    best = {}
    heap = [(0.0, (anchor_d,), ())]
    while heap:
        dist, path, word = heapq.heappop(heap)
        node = path[-1]
        state = (node, word)
        if state in best and best[state] <= (dist, path):
            continue
        best[state] = (dist, path)
        if node == head_d and word == target_word:
            return path
        for v in nodes:
            if v == node:
                continue
            if edge_blocked(node, v):
                continue
            new_word = reduce_word(word + edge_word(node, v))
            if len(new_word) > cap:
                continue
            d = dist + math.hypot(v[0] - node[0], v[1] - node[1]) / 2.0
            nxt = (v, new_word)
            cand = (d, path + (v,))
            if nxt not in best or cand < best[nxt]:
                heapq.heappush(heap, (cand[0], cand[1], new_word))
    return None


def canonical_chain(chain):
    """Drop interior vertices the chain passes straight through, so two
    renderings of the same geometric path compare equal."""
    pts = list(chain)
    out = [pts[0]]
    i = 1
    while i < len(pts):
        if i + 1 < len(pts):
            a, b, c = out[-1], pts[i], pts[i + 1]
            crossv = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            dot = (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1])
            if crossv == 0 and dot > 0:
                i += 1
                continue
        out.append(pts[i])
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Risk matrix: every element on every whole prefix


def prefix_risk_matrix(grid, path, elements):
    """Rows of element values, entry (i, k) = elements[k] on states[:i + 1].

    Each element gets the full prefix and cuts its own window; a tether
    element refolds its tether from the first state for every prefix.
    """
    states = tuple(path.states)
    return [
        [el.evaluate(grid, states[: i + 1]) for el in elements]
        for i in range(len(states))
    ]


# ---------------------------------------------------------------------------
# Monte Carlo: the one stream, drawn in order


def serial_monte_carlo_failures(matrix, trials, seed, chunk=1 << 16):
    """Failed trials of monte_carlo_risk, one chunk of the stream at a time."""
    probs = matrix.values[matrix.values > 0.0]
    rng = np.random.default_rng(seed)
    failures = 0
    if probs.size:
        done = 0
        while done < trials:
            m = min(chunk, trials - done)
            draws = rng.random((m, probs.size))
            failures += int((draws < probs).any(axis=1).sum())
            done += m
    return failures


# ---------------------------------------------------------------------------
# Planner: plain enumeration of simple paths


def all_simple_paths(is_viable, start, goal, max_states, r_c=1.5):
    """Yield every simple path (tuple of (r, c)) from start to goal."""
    reach = int(math.floor(r_c + 1e-9))
    moves = [
        (dr, dc)
        for dr in range(-reach, reach + 1)
        for dc in range(-reach, reach + 1)
        if (dr, dc) != (0, 0) and math.hypot(dr, dc) <= r_c + 1e-12
    ]

    def walk(path, seen):
        head = path[-1]
        if head == goal:
            yield tuple(path)
            return
        if len(path) >= max_states:
            return
        for dr, dc in moves:
            nxt = (head[0] + dr, head[1] + dc)
            if nxt in seen or not is_viable(*nxt):
                continue
            path.append(nxt)
            seen.add(nxt)
            yield from walk(path, seen)
            path.pop()
            seen.remove(nxt)

    yield from walk([start], {start})


# ---------------------------------------------------------------------------
# Visibility: densely sampled ray marching


def sampled_ray_blocked(viable, origin, tip, samples=4000):
    """Check a ray by dense sampling: blocked if any sample falls strictly
    inside an unviable cell or past the grid edge."""
    n_rows = len(viable)
    n_cols = len(viable[0])
    if not (-0.5 <= tip[0] <= n_rows - 0.5 and -0.5 <= tip[1] <= n_cols - 0.5):
        return True
    for k in range(samples + 1):
        t = k / samples
        r = origin[0] + t * (tip[0] - origin[0])
        c = origin[1] + t * (tip[1] - origin[1])
        cr = int(round(r))
        cc = int(round(c))
        if 0 <= cr < n_rows and 0 <= cc < n_cols and not viable[cr][cc]:
            # Strict interior only: skip samples sitting on a cell boundary.
            if abs(r - cr) < 0.5 - 1e-9 and abs(c - cc) < 0.5 - 1e-9:
                return True
    return False


def scan_ray_blocked(viable, origin, tip):
    """Check a ray by testing every unviable cell in its bounding box.

    Same float cell test and grid-edge rule as the library, so the answer
    must match visibility_fraction ray for ray, not just within sampling error.
    """
    n_rows = len(viable)
    n_cols = len(viable[0])
    r0, c0 = origin
    r1, c1 = tip
    eps = 1e-9
    if not (-0.5 - eps <= r1 <= n_rows - 0.5 + eps):
        return True
    if not (-0.5 - eps <= c1 <= n_cols - 0.5 + eps):
        return True
    lo_r = int(math.floor(min(r0, r1) - 0.5))
    hi_r = int(math.ceil(max(r0, r1) + 0.5))
    lo_c = int(math.floor(min(c0, c1) - 0.5))
    hi_c = int(math.ceil(max(c0, c1) + 0.5))
    for r in range(max(lo_r, 0), min(hi_r, n_rows - 1) + 1):
        for c in range(max(lo_c, 0), min(hi_c, n_cols - 1) + 1):
            if not viable[r][c] and segment_enters_cell_f(origin, tip, (r, c)):
                return True
    return False
