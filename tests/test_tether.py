import math
import random

import pytest

from motionrisk import (
    State,
    TetherError,
    TetherState,
    advance_tether,
    check_tether,
    load_map,
    start_tether,
    tether_for_prefix,
)

from motionrisk.grid_geometry import point_in_closed_triangle
from motionrisk.tether import _swept_corners

from conftest import random_grid, random_walk
from oracles import (
    canonical_chain,
    crossing_word,
    seg_blocked,
    shortest_homotopic_chain,
)

SQ2 = math.sqrt(2.0)

PINCH_MAP = ".....\n..#..\n.#...\n.....\n.....\n"


# ---------------------------------------------------------------------------
# Starting state


def test_start_at_anchor_is_a_point():
    g = load_map("...\n...\n")
    tet = start_tether(g, State(1, 1))
    assert tet.chain == ((2, 2),)
    assert tet.contacts == ()
    assert tet.taut_length == 0.0
    assert tet.anchor == tet.head == State(1, 1)


def test_start_away_from_anchor_is_straight():
    g = load_map("....\n....\n")
    tet = start_tether(g, State(1, 3), anchor=State(0, 0))
    assert tet.chain == ((0, 0), (2, 6))
    assert tet.taut_length == pytest.approx(math.hypot(1, 3))


def test_start_rejects_unviable_endpoints():
    g = load_map("..\n.#\n")
    with pytest.raises(TetherError, match="viable"):
        start_tether(g, State(1, 1))
    with pytest.raises(TetherError, match="viable"):
        start_tether(g, State(0, 0), anchor=State(1, 1))


def test_start_requires_line_of_sight():
    g = load_map("...\n.#.\n...\n")
    with pytest.raises(TetherError, match="line of sight"):
        start_tether(g, State(1, 2), anchor=State(1, 0))
    # sliding along the wall face is fine
    tet = start_tether(g, State(0, 2), anchor=State(0, 0))
    assert tet.contacts == ()


def test_prefix_must_be_nonempty(courtyard_grid):
    with pytest.raises(TetherError, match="at least one"):
        tether_for_prefix(courtyard_grid, [])


def test_head_step_into_unviable_raises(courtyard_grid):
    tet = start_tether(courtyard_grid, State(5, 5))
    with pytest.raises(TetherError, match="viable"):
        advance_tether(courtyard_grid, tet, State(6, 5))


def test_head_step_through_a_wall_raises():
    # the step itself is swept as a straight segment; cutting a blocked cell
    # leaves no taut chain and must fail loudly
    g = load_map(".#.\n...\n")
    tet = start_tether(g, State(0, 0))
    with pytest.raises(TetherError, match="crosses unviable"):
        advance_tether(g, tet, State(0, 2))


# ---------------------------------------------------------------------------
# The courtyard routes (worked fixtures)


def test_left_route_contact_schedule(courtyard_grid, courtyard_left):
    states = list(courtyard_left)
    want_counts = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]
    for i in range(len(states)):
        tet = tether_for_prefix(courtyard_grid, states[: i + 1])
        assert len(tet.contacts) == want_counts[i], f"prefix {i}"
        check_tether(courtyard_grid, tet)
    final = tether_for_prefix(courtyard_grid, states)
    # the band catches the lower-left corner of the pillar and keeps it
    assert final.contacts == ((6.5, 4.5),)


def test_right_route_contact_schedule(courtyard_grid, courtyard_right):
    states = list(courtyard_right)
    for i in range(len(states) - 1):
        tet = tether_for_prefix(courtyard_grid, states[: i + 1])
        assert tet.contacts == (), f"prefix {i}"
    final = tether_for_prefix(courtyard_grid, states)
    # upper-right then lower-right corner, in chain order
    assert final.contacts == ((5.5, 5.5), (6.5, 5.5))
    check_tether(courtyard_grid, final)


def test_left_route_contact_appears_entering_the_shadow(courtyard_grid, courtyard_left):
    states = list(courtyard_left)
    before = tether_for_prefix(courtyard_grid, states[:6])
    after = tether_for_prefix(courtyard_grid, states[:7])
    assert before.contacts == ()
    assert after.contacts == ((6.5, 4.5),)
    assert after.taut_length > before.taut_length


def test_backtracking_releases_the_contact(courtyard_grid, courtyard_left):
    states = list(courtyard_left)[:8]  # wrapped state, head at (7, 6)
    walk = states + [State(7, 5), State(7, 4), State(6, 4)]
    tet = tether_for_prefix(courtyard_grid, walk)
    assert tet.contacts == ()
    assert tet.taut_length == pytest.approx(math.hypot(4, 2))


def test_fold_matches_stepwise_advance(courtyard_grid, courtyard_left):
    states = list(courtyard_left)
    tet = start_tether(courtyard_grid, states[0])
    for i, s in enumerate(states[1:], start=2):
        tet = advance_tether(courtyard_grid, tet, s)
        assert tet == tether_for_prefix(courtyard_grid, states[:i])
    assert tet.head == states[-1]


def test_advance_is_a_no_op_when_the_head_stays(courtyard_grid):
    tet = tether_for_prefix(courtyard_grid, [State(2, 2), State(3, 3)])
    assert advance_tether(courtyard_grid, tet, State(3, 3)) is tet


# ---------------------------------------------------------------------------
# Pinch squeezes and windings


def test_pinch_squeeze_wraps_the_shared_vertex():
    g = load_map(PINCH_MAP)
    tet = tether_for_prefix(g, [State(1, 1), State(2, 2), State(2, 3)])
    assert tet.chain == ((2, 2), (3, 3), (4, 6))
    assert tet.contacts == ((1.5, 1.5),)
    assert tet.taut_length == pytest.approx((SQ2 + math.hypot(1, 3)) / 2, abs=1e-12)
    check_tether(g, tet)


def test_full_winding_around_a_block():
    g = load_map(PINCH_MAP)
    ring = [State(1, 1), State(2, 2), State(2, 3), State(1, 3),
            State(0, 2), State(0, 1), State(1, 1)]
    tet = tether_for_prefix(g, ring)
    # head back at the anchor, band looped around the single block
    assert tet.chain == ((2, 2), (3, 3), (3, 5), (1, 5), (1, 3), (2, 2))
    assert tet.contacts == ((1.5, 1.5), (1.5, 2.5), (0.5, 2.5), (0.5, 1.5))
    assert tet.taut_length == pytest.approx(3.0 + SQ2)
    check_tether(g, tet)


def test_retracing_the_ring_unwinds_completely():
    g = load_map(PINCH_MAP)
    ring = [State(1, 1), State(2, 2), State(2, 3), State(1, 3),
            State(0, 2), State(0, 1), State(1, 1)]
    back = ring + ring[-2::-1]
    tet = tether_for_prefix(g, back)
    assert tet.chain == ((2, 2),)
    assert tet.taut_length == 0.0


# ---------------------------------------------------------------------------
# Invariant checker


def test_check_tether_rejects_tampered_chains(courtyard_grid, courtyard_left):
    tet = tether_for_prefix(courtyard_grid, list(courtyard_left))
    bad_anchor = TetherState(State(3, 3), tet.head, tet.chain)
    with pytest.raises(TetherError, match="anchor"):
        check_tether(courtyard_grid, bad_anchor)
    bad_head = TetherState(tet.anchor, State(8, 9), tet.chain)
    with pytest.raises(TetherError, match="head"):
        check_tether(courtyard_grid, bad_head)
    # a mid-air point is not a wrap corner
    padded = (tet.chain[0], (8, 8), *tet.chain[1:])
    with pytest.raises(TetherError, match="corner"):
        check_tether(courtyard_grid, TetherState(tet.anchor, tet.head, padded))
    # a straight run from the anchor to (7, 5) stabs the pillar
    with pytest.raises(TetherError, match="crosses"):
        check_tether(
            courtyard_grid,
            TetherState(State(2, 2), State(7, 5), ((4, 4), (14, 10))),
        )


# ---------------------------------------------------------------------------
# Equivalence with the homotopy oracle on random scenes


def _sweep_case(seed, with_anchor):
    rng = random.Random(seed)
    g = random_grid(rng, rng.randint(3, 8), rng.randint(3, 8),
                    p_block=rng.uniform(0.08, 0.35))
    punct = sorted(g.unviable_cells())

    def clear(a, b):
        return not seg_blocked((2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1]), punct)

    walk = random_walk(g, rng, n_steps=rng.randint(4, 12), clear_step=clear)
    if walk is None or len(walk) < 2:
        return None
    anchor = None
    if with_anchor:
        options = [
            (r, c)
            for r in range(g.n_rows)
            for c in range(g.n_cols)
            if g.is_viable(r, c)
            and not seg_blocked((2 * r, 2 * c), (2 * walk[0].row, 2 * walk[0].col), punct)
        ]
        anchor = State(*rng.choice(options))
    return g, punct, walk, anchor


def _assert_matches_oracle(g, punct, prefix, anchor, folded):
    tet = tether_for_prefix(g, prefix, anchor=anchor)
    assert tet == folded
    check_tether(g, tet)

    a = anchor if anchor is not None else prefix[0]
    poly = [(2 * a.row, 2 * a.col)] + [(2 * s.row, 2 * s.col) for s in prefix]
    target = crossing_word(poly, punct)
    assert crossing_word(list(tet.chain), punct) == target

    want = shortest_homotopic_chain(
        set(punct), g.n_rows, g.n_cols, poly[0], poly[-1], target
    )
    assert want is not None
    assert canonical_chain(tet.chain) == canonical_chain(want)
    want_len = sum(
        math.hypot(p[0] - q[0], p[1] - q[1]) / 2.0 for p, q in zip(want, want[1:])
    )
    assert tet.taut_length == pytest.approx(want_len, abs=1e-9)


def _fold_steps(g, walk, anchor):
    """The tether after every step of the walk, each step's chain checked."""
    tet = start_tether(g, walk[0], anchor=anchor)
    check_tether(g, tet)
    yield tet
    for s in walk[1:]:
        tet = advance_tether(g, tet, s)
        check_tether(g, tet)
        yield tet


@pytest.mark.parametrize("seed", range(40))
def test_tether_matches_shortest_homotopic_chain(seed):
    case = _sweep_case(24000 + seed, with_anchor=False)
    if case is None:
        pytest.skip("degenerate map")
    g, punct, walk, anchor = case
    for i, tet in enumerate(_fold_steps(g, walk, anchor)):
        _assert_matches_oracle(g, punct, walk[: i + 1], anchor, tet)


@pytest.mark.parametrize("seed", range(10))
def test_tether_matches_oracle_with_remote_anchor(seed):
    case = _sweep_case(52000 + seed, with_anchor=True)
    if case is None:
        pytest.skip("degenerate map")
    g, punct, walk, anchor = case
    for i, tet in enumerate(_fold_steps(g, walk, anchor)):
        _assert_matches_oracle(g, punct, walk[: i + 1], anchor, tet)


@pytest.mark.parametrize("seed", range(8))
def test_fold_steps_keep_the_chain_invariants_on_larger_maps(seed):
    rng = random.Random(61000 + seed)
    g = random_grid(rng, rng.randint(10, 20), rng.randint(10, 20),
                    p_block=rng.uniform(0.05, 0.25))
    unviable = g.unviable_cells()

    def clear(a, b):
        return not seg_blocked((2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1]), unviable)

    walk = random_walk(g, rng, n_steps=60, clear_step=clear)
    for i, tet in enumerate(_fold_steps(g, walk, None)):
        assert tet.head == walk[i]


# ---------------------------------------------------------------------------
# Funnel candidates


@pytest.mark.parametrize("seed", range(10))
def test_swept_corners_equal_the_full_corner_scan(seed):
    rng = random.Random(67000 + seed)
    g = random_grid(rng, rng.randint(2, 20), rng.randint(2, 20),
                    p_block=rng.uniform(0.05, 0.3))
    corners = g.convex_corners()
    centres = [(2 * r, 2 * c) for r in range(g.n_rows) for c in range(g.n_cols)]
    anchors = centres + list(corners)
    for _ in range(200):
        q = rng.choice(anchors)
        h_old = rng.choice(centres)
        n = rng.choice(centres)
        triples = [(q, h_old, n)]
        # a degenerate sweep: h_old on the line through q and n
        k = rng.randint(-2, 2)
        triples.append((q, (n[0] + k * (n[0] - q[0]), n[1] + k * (n[1] - q[1])), n))
        for a, b, c in triples:
            want = [v for v in corners
                    if v != a and v != c and point_in_closed_triangle(v, a, b, c)]
            assert _swept_corners(g, a, b, c) == want, (a, b, c)
