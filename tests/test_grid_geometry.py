"""segment_blocked against the Fraction-based oracle of tests/oracles.py.

segment_blocked is given the map's `unviable_cells()`, which lists in-grid
cells only, so a cell outside the grid counts as viable to it; the oracle is
given the same cells, so every case here also checks that rule.
"""

import random

import pytest

from motionrisk import load_map
from motionrisk.grid_geometry import segment_blocked

from conftest import random_grid
from oracles import seg_blocked

MARGIN = 3  # half-cells beyond the grid edge that endpoints may reach


def _map_case(seed):
    rng = random.Random(97000 + seed)
    g = random_grid(rng, rng.randint(1, 12), rng.randint(1, 12),
                    p_block=rng.uniform(0.1, 0.4))
    return rng, g, g.unviable_cells()


def _point(rng, g):
    return (rng.randint(-MARGIN, 2 * g.n_rows - 2 + MARGIN),
            rng.randint(-MARGIN, 2 * g.n_cols - 2 + MARGIN))


def _assert_agrees(p, q, unviable):
    want = seg_blocked(p, q, sorted(unviable))
    assert segment_blocked(p, q, unviable) == want, (p, q)
    assert segment_blocked(q, p, unviable) == want, (q, p)


@pytest.mark.parametrize("seed", range(12))
def test_random_segments(seed):
    rng, g, unviable = _map_case(seed)
    for _ in range(60):
        _assert_agrees(_point(rng, g), _point(rng, g), unviable)


@pytest.mark.parametrize("seed", range(12))
def test_lattice_vertex_ties(seed):
    rng, g, unviable = _map_case(seed)
    odd = [(r, c) for r in range(-1, 2 * g.n_rows, 2) for c in range(-1, 2 * g.n_cols, 2)]
    for _ in range(30):
        # both endpoints on lattice vertices
        _assert_agrees(rng.choice(odd), rng.choice(odd), unviable)
        # a segment that passes exactly through a lattice vertex
        v = rng.choice(odd)
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        _assert_agrees((v[0] - a * d[0], v[1] - a * d[1]), (v[0] + b * d[0], v[1] + b * d[1]),
                       unviable)


@pytest.mark.parametrize("seed", range(12))
def test_axis_parallel_segments_along_edges_and_through_centres(seed):
    rng, g, unviable = _map_case(seed)
    # odd doubled rows and columns run along cell edges, even ones through centres
    for row in range(-MARGIN, 2 * g.n_rows - 1 + MARGIN):
        c0, c1 = _point(rng, g)[1], _point(rng, g)[1]
        _assert_agrees((row, c0), (row, c1), unviable)
    for col in range(-MARGIN, 2 * g.n_cols - 1 + MARGIN):
        r0, r1 = _point(rng, g)[0], _point(rng, g)[0]
        _assert_agrees((r0, col), (r1, col), unviable)


@pytest.mark.parametrize("seed", range(6))
def test_zero_length_segments(seed):
    # a point strictly inside a listed cell is blocked; one on a cell edge is not
    _, g, unviable = _map_case(seed)
    for r in range(-MARGIN, 2 * g.n_rows - 1 + MARGIN):
        for c in range(-MARGIN, 2 * g.n_cols - 1 + MARGIN):
            _assert_agrees((r, c), (r, c), unviable)


def test_cells_outside_the_grid_count_as_viable():
    g = load_map("##\n##\n")
    unviable = g.unviable_cells()
    assert not g.is_viable(-1, 0)
    # one row above the grid, through the centres of the cells (-1, 0) and (-1, 1)
    assert not segment_blocked((-2, -2), (-2, 4), unviable)
    # a diagonal clipping past the grid's corner only through outside cells
    assert not segment_blocked((-4, 0), (0, -4), unviable)
    # the same row one cell lower runs through the blocked cells
    assert segment_blocked((0, -2), (0, 4), unviable)
    _assert_agrees((-4, -3), (5, 6), unviable)


@pytest.mark.parametrize("seed", range(6))
def test_listed_cells_outside_the_grid_block(seed):
    # segment_blocked reads only the set it is given: a listed cell outside
    # any grid blocks like any other
    rng = random.Random(98000 + seed)
    cells = frozenset((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(12))
    for _ in range(60):
        p = (rng.randint(-9, 9), rng.randint(-9, 9))
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        _assert_agrees(p, q, cells)
