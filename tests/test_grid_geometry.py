"""segment_blocked against the Fraction-based oracle of tests/oracles.py.

segment_blocked reads the map's viable bytes, where a cell beyond the grid
edge counts as unviable, as `GridMap.is_viable` has it; the oracle is given
the map's unviable cells plus every off-grid cell within reach of the
segments tested, so every case here also checks that rule.
"""

import random

import pytest

from motionrisk import load_map
from motionrisk.grid_geometry import segment_blocked

from conftest import random_grid
from oracles import seg_blocked

MARGIN = 3  # half-cells beyond the grid edge that endpoints may reach


def _blocked_cells(g, margin):
    """The oracle's cells: unviable in the grid, or off it within margin half-cells."""
    m = margin // 2 + 1
    return [(r, c) for r in range(-m, g.n_rows + m) for c in range(-m, g.n_cols + m)
            if not g.is_viable(r, c)]


def _map_case(seed):
    rng = random.Random(97000 + seed)
    g = random_grid(rng, rng.randint(1, 12), rng.randint(1, 12),
                    p_block=rng.uniform(0.1, 0.4))
    return rng, g, _blocked_cells(g, MARGIN)


def _point(rng, g, margin=MARGIN):
    return (rng.randint(-margin, 2 * g.n_rows - 2 + margin),
            rng.randint(-margin, 2 * g.n_cols - 2 + margin))


def _assert_agrees(p, q, g, cells):
    want = seg_blocked(p, q, cells)
    assert segment_blocked(p, q, g) == want, (p, q)
    assert segment_blocked(q, p, g) == want, (q, p)


@pytest.mark.parametrize("seed", range(12))
def test_random_segments(seed):
    rng, g, cells = _map_case(seed)
    for _ in range(60):
        _assert_agrees(_point(rng, g), _point(rng, g), g, cells)


@pytest.mark.parametrize("seed", range(12))
def test_lattice_vertex_ties(seed):
    rng, g, cells = _map_case(seed)
    odd = [(r, c) for r in range(-1, 2 * g.n_rows, 2) for c in range(-1, 2 * g.n_cols, 2)]
    for _ in range(30):
        # both endpoints on lattice vertices
        _assert_agrees(rng.choice(odd), rng.choice(odd), g, cells)
        # a segment that passes exactly through a lattice vertex
        v = rng.choice(odd)
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        _assert_agrees((v[0] - a * d[0], v[1] - a * d[1]), (v[0] + b * d[0], v[1] + b * d[1]),
                       g, cells)


@pytest.mark.parametrize("seed", range(12))
def test_axis_parallel_segments_along_edges_and_through_centres(seed):
    rng, g, cells = _map_case(seed)
    # odd doubled rows and columns run along cell edges, even ones through centres
    for row in range(-MARGIN, 2 * g.n_rows - 1 + MARGIN):
        c0, c1 = _point(rng, g)[1], _point(rng, g)[1]
        _assert_agrees((row, c0), (row, c1), g, cells)
    for col in range(-MARGIN, 2 * g.n_cols - 1 + MARGIN):
        r0, r1 = _point(rng, g)[0], _point(rng, g)[0]
        _assert_agrees((r0, col), (r1, col), g, cells)


@pytest.mark.parametrize("seed", range(6))
def test_zero_length_segments(seed):
    # a point strictly inside an unviable cell is blocked; one on a cell edge is not
    _, g, cells = _map_case(seed)
    for r in range(-MARGIN, 2 * g.n_rows - 1 + MARGIN):
        for c in range(-MARGIN, 2 * g.n_cols - 1 + MARGIN):
            _assert_agrees((r, c), (r, c), g, cells)


def test_cells_outside_the_grid_count_as_unviable():
    g = load_map("..\n..\n")
    # one row above the grid, through the centres of the cells (-1, 0) and (-1, 1)
    assert not g.is_viable(-1, 0)
    assert segment_blocked((-2, 0), (-2, 2), g)
    # a diagonal clipping past the grid's corner only through outside cells
    assert segment_blocked((-4, 0), (0, -4), g)
    # along the grid's outer edge, and through the free cells themselves
    assert not segment_blocked((-1, -1), (-1, 3), g)
    assert not segment_blocked((0, 0), (2, 2), g)
    # from a free centre out past the edge
    assert segment_blocked((0, 0), (0, 4), g)
    _assert_agrees((-4, -3), (5, 6), g, _blocked_cells(g, 6))


@pytest.mark.parametrize("seed", range(6))
def test_segments_far_outside_the_grid(seed):
    # off-grid cells block however far out the segment runs
    rng = random.Random(98000 + seed)
    g = random_grid(rng, rng.randint(1, 5), rng.randint(1, 5), p_block=rng.uniform(0.1, 0.4))
    cells = _blocked_cells(g, 9)
    for _ in range(60):
        _assert_agrees(_point(rng, g, 9), _point(rng, g, 9), g, cells)
