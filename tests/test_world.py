import math
import random
import re

import numpy as np
import pytest

from motionrisk import (
    GridMap,
    MapFormatError,
    Path,
    PathValidationError,
    SearchConfig,
    State,
    check_tether,
    distance_transform,
    dump_map,
    evaluate_path,
    load_elements,
    load_map,
    plan_min_risk,
    ray_directions,
    require_valid_path,
    tether_for_prefix,
    validate_path,
    visibility_fraction,
)

from conftest import fixture_map, random_grid
from oracles import (
    brute_distance_field,
    oracle_pivot_vertices,
    sampled_ray_blocked,
    scan_ray_blocked,
)

SQ2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Map parsing


def test_load_dump_round_trip(courtyard_grid):
    text = dump_map(courtyard_grid)
    again = load_map(text)
    assert again == courtyard_grid
    assert dump_map(again) == text


def test_courtyard_layout(courtyard_grid):
    g = courtyard_grid
    assert (g.n_rows, g.n_cols) == (12, 12)
    # border ring plus the single interior pillar
    assert not g.is_viable(0, 0)
    assert not g.is_viable(11, 7)
    assert not g.is_viable(6, 5)
    assert g.is_viable(6, 4)
    assert len(g.unviable_cells()) == 4 * 12 - 4 + 1


def test_load_map_rejects_ragged_rows():
    with pytest.raises(MapFormatError, match="equal length"):
        load_map("..#\n..\n")


def test_load_map_rejects_unknown_character():
    with pytest.raises(MapFormatError, match="unknown map character"):
        load_map("..\n.x\n")


@pytest.mark.parametrize("text, message", [
    ("..\n.x\n", "unknown map character 'x' at row 1, col 1"),
    ("#.\n.\u00e9\n", "unknown map character '\u00e9' at row 1, col 1"),
    (". \n..\n", "unknown map character ' ' at row 0, col 1"),
    (".a\nb.\n", "unknown map character 'a' at row 0, col 1"),
    # a row-by-row scan: whichever fault comes first is reported
    ("..\nx.\n...\n", "unknown map character 'x' at row 1, col 0"),
    ("..\n...\nx.\n", "row 1 has length 3, expected 2 (rows must be equal length)"),
])
def test_load_map_reports_the_first_fault(text, message):
    with pytest.raises(MapFormatError, match=re.escape(message)):
        load_map(text)


def test_load_map_round_trips_random_maps():
    rng = np.random.default_rng(5200)
    for _ in range(50):
        viable = rng.uniform(size=tuple(rng.integers(1, 30, size=2))) < 0.7
        g = load_map(dump_map(GridMap(viable)))
        assert np.array_equal(g.viable, viable)


def test_load_map_rejects_empty_document():
    with pytest.raises(MapFormatError):
        load_map("\n  \n")


def test_load_map_skips_blank_lines():
    g = load_map("..\n\n##\n")
    assert (g.n_rows, g.n_cols) == (2, 2)
    assert not g.is_viable(1, 0)


# ---------------------------------------------------------------------------
# GridMap basics


def test_gridmap_rejects_bad_input():
    with pytest.raises(MapFormatError):
        GridMap(np.zeros((0, 3), dtype=bool))
    with pytest.raises(MapFormatError):
        GridMap(np.ones(4, dtype=bool))
    with pytest.raises(MapFormatError):
        GridMap(np.ones((2, 2), dtype=bool), cell_size=0.0)
    with pytest.raises(MapFormatError):
        GridMap(np.ones((2, 2), dtype=bool), cell_size=-1.0)


@pytest.mark.parametrize("cell_size", [math.nan, math.inf])
def test_gridmap_rejects_a_non_finite_cell_size(cell_size):
    with pytest.raises(MapFormatError, match="cell_size must be a positive finite number"):
        GridMap(np.ones((2, 2), dtype=bool), cell_size=cell_size)


def test_gridmap_is_immutable():
    g = load_map("..\n..\n")
    with pytest.raises(ValueError):
        g.viable[0, 0] = False


def test_gridmap_copies_its_input():
    arr = np.ones((3, 3), dtype=bool)
    g = GridMap(arr)
    arr[1, 1] = False
    assert g.is_viable(1, 1)


def test_is_viable_out_of_bounds_is_false():
    g = load_map("..\n..\n")
    assert not g.is_viable(-1, 0)
    assert not g.is_viable(0, 2)
    assert not g.is_viable(2, 2)


def test_distance_field_is_cached():
    g = load_map("..\n.#\n")
    assert g.distance_field() is g.distance_field()
    with pytest.raises(ValueError):
        g.distance_field()[0, 0] = 9.0


def test_is_viable_matches_the_mask_on_non_square_maps():
    rng = random.Random(11)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        if n_rows == n_cols:
            n_cols += rng.randint(1, 5)
        g = random_grid(rng, n_rows, n_cols, p_block=rng.uniform(0.0, 0.6))
        for r in range(-3, n_rows + 3):
            for c in range(-3, n_cols + 3):
                inside = 0 <= r < n_rows and 0 <= c < n_cols
                assert g.in_bounds(r, c) == inside
                assert g.is_viable(r, c) == (inside and bool(g.viable[r, c])), (r, c)


def test_convex_corners_equal_the_pivot_oracle():
    rng = random.Random(5)
    shapes = [(1, 1), (1, 9), (9, 1), (1, 2), (2, 1), (7, 7), (4, 11)]
    for k in range(400):
        n_rows, n_cols = shapes[k] if k < len(shapes) else (rng.randint(1, 14), rng.randint(1, 14))
        p_block = [0.0, 1.0][k % 2] if k < 2 * len(shapes) else rng.uniform(0.0, 0.7)
        g = GridMap(_seeded_viable(rng, n_rows, n_cols, p_block))
        want = sorted(oracle_pivot_vertices(g.unviable_cells(), n_rows, n_cols))
        assert list(g.convex_corners()) == want, (n_rows, n_cols)
        assert g.convex_corners() is g.convex_corners()


def test_the_map_keeps_only_its_declared_tables():
    """Evaluating, planning and checking tethers fill the map's own tables
    and pin nothing else onto it."""
    g = fixture_map("pillar_courtyard.map")
    declared = set(vars(g))
    elements = load_elements({"elements": [
        {"name": "obstacle_distance", "mapping": {"knots": [[1.0, 0.04], [2.0, 0.01]]}},
        {"name": "visibility", "radius": 3.0, "ray_count": 16,
         "mapping": {"knots": [[0.5, 0.02], [1.0, 0.0]]}},
        {"name": "action_length", "coeff": 0.01},
        {"name": "turn", "coeff": 0.02},
        {"name": "tether_length", "coeff": 0.005, "anchor": [1, 1]},
        {"name": "tether_contacts", "per_contact": 0.03},
    ]})
    states = [State(4, 3), State(5, 4), State(6, 4), State(7, 5), State(7, 6), State(6, 7)]
    evaluate_path(g, Path(tuple(states)), elements)
    for mode in ("exhaustive", "beam"):
        plan_min_risk(g, elements, SearchConfig(State(4, 4), State(8, 6), max_states=7, mode=mode))
    check_tether(g, tether_for_prefix(g, states))
    assert set(vars(g)) == declared
    assert g.distance_field() is g.distance_field()
    assert g.unviable_cells() is g.unviable_cells()


# ---------------------------------------------------------------------------
# Distance transform vs the brute-force oracle


def test_distance_transform_courtyard_hand_values(courtyard_grid):
    d = distance_transform(courtyard_grid)
    assert d[6, 5] == 0.0  # the pillar itself
    assert d[6, 4] == 1.0
    assert d[5, 4] == pytest.approx(SQ2)
    assert d[1, 1] == 1.0  # hugging the border ring
    assert d[3, 3] == pytest.approx(3.0)  # border rows/cols are 3 away, pillar sqrt(13)


def test_distance_transform_all_viable_is_infinite():
    g = load_map("...\n...\n")
    assert np.isinf(distance_transform(g)).all()


def test_distance_transform_scales_with_cell_size():
    text = "....\n.#..\n....\n"
    a = distance_transform(load_map(text, cell_size=1.0))
    b = distance_transform(load_map(text, cell_size=0.25))
    assert np.allclose(b, a * 0.25)


@pytest.mark.parametrize("seed", range(25))
def test_distance_transform_matches_brute_force(seed):
    rng = random.Random(1000 + seed)
    n_rows = rng.randint(1, 16)
    n_cols = rng.randint(1, 16)
    cell = rng.choice([1.0, 0.5, 2.5])
    g = random_grid(rng, n_rows, n_cols, p_block=rng.uniform(0.0, 0.5), cell_size=cell)
    want = brute_distance_field(g.viable.tolist(), cell_size=cell)
    got = distance_transform(g)
    assert got.shape == (n_rows, n_cols)
    for r in range(n_rows):
        for c in range(n_cols):
            if math.isinf(want[r][c]):
                assert np.isinf(got[r, c])
            else:
                assert got[r, c] == pytest.approx(want[r][c], abs=1e-9)


def _seeded_viable(rng, n_rows, n_cols, p_block):
    return np.random.RandomState(rng.randrange(2**32)).random_sample((n_rows, n_cols)) >= p_block


@pytest.mark.parametrize("seed", range(6))
def test_distance_transform_equals_scipy(seed):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = random.Random(4400 + seed)
    sizes = [1, 2, 3, 7, 16, 64, 300]
    for trial in range(60):
        n_rows, n_cols = rng.choice(sizes), rng.choice(sizes)
        if trial % 10 == 0:
            n_rows, n_cols = 1, rng.randint(1, 300)
        if trial % 10 == 1:
            n_rows = n_cols = 300
        viable = _seeded_viable(rng, n_rows, n_cols, rng.choice([0.001, 0.02, 0.2, 0.6, 1.0]))
        if trial % 10 == 2:  # a single obstacle in an open map
            viable = np.ones((n_rows, n_cols), dtype=bool)
            viable[rng.randrange(n_rows), rng.randrange(n_cols)] = False
        if viable.all():
            continue
        cell = rng.choice([1.0, 0.25, 2.5])
        got = distance_transform(GridMap(viable, cell_size=cell))
        want = ndimage.distance_transform_edt(viable) * cell
        assert np.array_equal(got, want), (n_rows, n_cols)


# ---------------------------------------------------------------------------
# States and paths


def test_state_basics():
    s = State(3, 4)
    assert s.as_tuple() == (3, 4)
    assert s == State(3, 4)
    assert s != State(4, 3)


def test_path_prefix_and_iteration(courtyard_left):
    p = courtyard_left
    assert len(p) == 12
    assert p[0] == State(2, 2)
    assert p[-1] == State(9, 10)
    pre = p.prefix(2)
    assert list(pre) == [State(2, 2), State(3, 3), State(4, 4)]
    assert pre.r_c == p.r_c


def test_path_needs_a_state():
    with pytest.raises(PathValidationError):
        Path(())


@pytest.mark.parametrize("r_c", [math.nan, math.inf, -math.inf])
def test_path_rejects_a_non_finite_r_c(r_c):
    with pytest.raises(ValueError, match="r_c must be a finite number"):
        Path((State(0, 0), State(0, 9)), r_c=r_c)


def test_arc_length_left_route(courtyard_left):
    # four diagonal steps and seven axis steps
    assert courtyard_left.arc_length() == pytest.approx(7 + 4 * SQ2)
    assert courtyard_left.arc_length(cell_size=0.5) == pytest.approx((7 + 4 * SQ2) / 2)


def test_validate_path_accepts_the_worked_routes(courtyard_grid, courtyard_left, courtyard_right):
    assert validate_path(courtyard_grid, courtyard_left).ok
    assert validate_path(courtyard_grid, courtyard_right).ok


def test_validate_path_flags_out_of_bounds(courtyard_grid):
    p = Path((State(2, 2), State(2, 1), State(2, 0), State(2, -1)))
    check = validate_path(courtyard_grid, p)
    assert not check.ok
    # (2, 0) is the border wall, flagged before the out-of-grid state
    assert check.index == 2
    assert "unviable" in check.reason


def test_validate_path_flags_unviable_state(courtyard_grid):
    p = Path((State(5, 5), State(6, 5)))
    check = validate_path(courtyard_grid, p)
    assert (check.ok, check.index) == (False, 1)


def test_validate_path_flags_long_step(courtyard_grid):
    p = Path((State(2, 2), State(2, 4)), r_c=1.5)
    check = validate_path(courtyard_grid, p)
    assert not check.ok and check.index == 1
    assert "r_c" in check.reason
    # the same hop is fine once the adjacency radius allows it
    assert validate_path(courtyard_grid, Path((State(2, 2), State(2, 4)), r_c=2.0)).ok


def test_validate_path_allows_revisits_and_pauses(courtyard_grid):
    p = Path((State(2, 2), State(2, 3), State(2, 2), State(2, 2)))
    assert validate_path(courtyard_grid, p).ok


def test_require_valid_path_raises_with_index(courtyard_grid):
    with pytest.raises(PathValidationError) as exc:
        require_valid_path(courtyard_grid, Path((State(2, 2), State(6, 5), State(2, 4))))
    assert exc.value.index == 1


# ---------------------------------------------------------------------------
# Ray fans


@pytest.mark.parametrize("n", [4, 8, 12, 36, 100])
def test_ray_directions_unit_norm_and_count(n):
    dirs = ray_directions(n)
    assert len(dirs) == n
    for dr, dc in dirs:
        assert math.hypot(dr, dc) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 36])
def test_ray_directions_quarter_turn_closure(n):
    # multiples of four must map onto themselves under a 90-degree rotation,
    # bit for bit, so axis-aligned scenes score symmetrically
    dirs = set(ray_directions(n))
    rotated = {(-dc, dr) for dr, dc in dirs}
    assert rotated == dirs


def test_ray_directions_distinct():
    dirs = ray_directions(16)
    assert len(set(dirs)) == 16


# ---------------------------------------------------------------------------
# Visibility


def test_visibility_open_room_is_full():
    g = load_map("\n".join(["." * 5] * 5) + "\n")
    assert visibility_fraction(g, State(2, 2), radius=2.4, ray_count=32) == 1.0
    # tips landing exactly on the outer face still count as inside
    assert visibility_fraction(g, State(2, 2), radius=2.5, ray_count=8) == 1.0


def test_visibility_radius_past_the_walls_is_zero():
    g = load_map("\n".join(["." * 5] * 5) + "\n")
    assert visibility_fraction(g, State(2, 2), radius=10.0, ray_count=24) == 0.0


def test_visibility_half_blocked_cross():
    # origin on the west edge, pillar two cells east: the east ray dies on the
    # pillar, the west ray pokes out of the grid, north/south stay clear
    g = load_map(".....\n.....\n..#..\n.....\n.....\n")
    assert visibility_fraction(g, State(2, 0), radius=1.6, ray_count=4) == 0.5


def test_visibility_validation():
    g = load_map("..\n.#\n")
    with pytest.raises(ValueError, match="radius"):
        visibility_fraction(g, State(0, 0), radius=0.0)
    with pytest.raises(ValueError, match="ray_count"):
        visibility_fraction(g, State(0, 0), ray_count=3)
    with pytest.raises(ValueError, match="viable"):
        visibility_fraction(g, State(1, 1))


def test_visibility_at_caches(courtyard_grid):
    a = courtyard_grid.visibility_at(State(3, 3), 2.0, 16)
    b = courtyard_grid.visibility_at(State(3, 3), 2.0, 16)
    assert a == b
    assert a == visibility_fraction(courtyard_grid, State(3, 3), radius=2.0, ray_count=16)


@pytest.mark.parametrize("seed", range(12))
def test_visibility_matches_sampled_rays(seed):
    rng = random.Random(7700 + seed)
    g = random_grid(rng, rng.randint(4, 10), rng.randint(4, 10), p_block=rng.uniform(0.05, 0.35))
    viable = [
        (r, c) for r in range(g.n_rows) for c in range(g.n_cols) if g.is_viable(r, c)
    ]
    origin_cell = rng.choice(viable)
    radius = rng.uniform(1.0, 6.0)
    ray_count = rng.choice([8, 16, 32])
    got = visibility_fraction(g, State(*origin_cell), radius=radius, ray_count=ray_count)

    origin = (float(origin_cell[0]), float(origin_cell[1]))
    grid_rows = g.viable.tolist()
    clear = 0
    for dr, dc in ray_directions(ray_count):
        tip = (origin[0] + radius * dr, origin[1] + radius * dc)
        if not sampled_ray_blocked(grid_rows, origin, tip):
            clear += 1
    want = clear / ray_count
    # dense sampling can disagree on rays that exactly graze a corner
    assert abs(got - want) <= 2.0 / ray_count + 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_visibility_equals_the_bounding_box_scan(seed):
    # The ray fan traverses each ray once from (0, 0); the scan tests every
    # cell near the ray in absolute coordinates.  They must agree exactly.
    rng = random.Random(9100 + seed)
    sizes = [1, 2, 3, 5, 9, 16, 40, 100, 300]
    queries = 0
    while queries < 256:
        viable = _seeded_viable(rng, rng.choice(sizes), rng.choice(sizes), rng.uniform(0.0, 0.4))
        if not viable.any():
            continue
        g = GridMap(viable)
        rows = viable.tolist()
        free_r, free_c = np.nonzero(viable)
        for _ in range(8):
            i = rng.randrange(len(free_r))
            s = State(int(free_r[i]), int(free_c[i]))
            radius = rng.choice([0.5, 2.5, 5.0, rng.uniform(0.2, 8.0)])
            ray_count = rng.choice([4, 7, 16, 32, 64])
            origin = (float(s.row), float(s.col))
            clear = sum(
                not scan_ray_blocked(rows, origin, (s.row + radius * dr, s.col + radius * dc))
                for dr, dc in ray_directions(ray_count)
            )
            assert visibility_fraction(g, s, radius=radius, ray_count=ray_count) == (
                clear / ray_count
            ), (viable.shape, s, radius, ray_count)
            queries += 1
