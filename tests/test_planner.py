import json
import math
import random

import numpy as np
import pytest

from motionrisk import (
    GridMap,
    Path,
    RiskCategory,
    RiskMatrix,
    SearchConfig,
    State,
    evaluate_path,
    evaluate_risk_matrix,
    load_elements,
    load_map,
    moves_within,
    path_risk,
    plan_additive_baseline,
    plan_min_risk,
)
from motionrisk import compose, elements as elements_module, planner as planner_module

from conftest import (
    FIXTURES, count_calls, fixture_map, fixture_elements, random_grid, unviable_cells,
)
from oracles import all_simple_paths, prefix_risk_matrix, step_clear_test


@pytest.fixture(scope="module")
def pocket():
    return fixture_map("pocket.map"), fixture_elements("pocket.config.json")


# ---------------------------------------------------------------------------
# Configuration and move sets


def test_search_config_defaults_and_validation():
    cfg = SearchConfig(State(0, 0), State(1, 1))
    assert (cfg.r_c, cfg.max_states, cfg.mode) == (1.5, 32, "exhaustive")
    with pytest.raises(ValueError, match="mode"):
        SearchConfig(State(0, 0), State(1, 1), mode="astar")
    with pytest.raises(ValueError, match="max_states"):
        SearchConfig(State(0, 0), State(1, 1), max_states=0)
    with pytest.raises(ValueError, match="beam_width"):
        SearchConfig(State(0, 0), State(1, 1), beam_width=0)


@pytest.mark.parametrize("r_c", [math.nan, math.inf])
def test_search_config_rejects_a_non_finite_r_c(r_c):
    with pytest.raises(ValueError, match="r_c must be a finite number"):
        SearchConfig(State(0, 0), State(1, 1), r_c=r_c)


@pytest.mark.parametrize("r_c", [0.0, -1.5])
def test_search_config_rejects_a_non_positive_r_c(r_c):
    with pytest.raises(ValueError, match="r_c must be a finite number above 0"):
        SearchConfig(State(0, 0), State(1, 1), r_c=r_c)


def test_a_huge_r_c_builds_moves_for_the_grid_diagonal_only(monkeypatch):
    grid, elements = fixture_map("corridor.map"), fixture_elements("corridor.config.json")
    diagonal = math.hypot(grid.n_rows - 1, grid.n_cols - 1)
    plans = {}
    for plan in (plan_min_risk, plan_additive_baseline):
        config = SearchConfig(State(1, 1), State(4, 12), r_c=diagonal + 1.0, max_states=3)
        plans[plan] = plan(grid, elements, config)
    real = planner_module.moves_within

    def capped(r_c):
        assert r_c <= diagonal  # 1e9 would loop over (2e9 + 1)**2 displacements
        return real(r_c)

    monkeypatch.setattr(planner_module, "moves_within", capped)
    for plan, expected in plans.items():
        config = SearchConfig(State(1, 1), State(4, 12), r_c=1e9, max_states=3)
        huge = plan(grid, elements, config)
        assert (huge.path.states, huge.risk) == (expected.path.states, expected.risk)


def test_moves_within_radius():
    king = {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)}
    assert set(moves_within(1.5)) == king
    assert moves_within(1.5) == sorted(king)
    assert set(moves_within(1.0)) == {(-1, 0), (0, -1), (0, 1), (1, 0)}
    # radius 2 adds the straight two-cell hops but not (2, 1) (length sqrt 5)
    assert set(moves_within(2.0)) == king | {(-2, 0), (2, 0), (0, -2), (0, 2)}
    assert len(moves_within(2.5)) == 20  # now (2, 1)-type hops join


# ---------------------------------------------------------------------------
# Infeasibility reporting


def test_unviable_endpoints_are_reported(pocket):
    grid, els = pocket
    bad = SearchConfig(State(2, 2), State(5, 5))  # pillar cell
    res = plan_min_risk(grid, els, bad)
    assert not res.feasible and res.path is None and res.risk is None
    assert "not viable" in res.reason
    res = plan_additive_baseline(grid, els, SearchConfig(State(0, 0), State(2, 2)))
    assert not res.feasible and "not viable" in res.reason


def test_budget_too_small_is_infeasible(pocket):
    grid, els = pocket
    res = plan_min_risk(grid, els, SearchConfig(State(0, 0), State(0, 5), max_states=3))
    assert not res.feasible
    assert "max_states" in res.reason
    res = plan_min_risk(
        grid, els, SearchConfig(State(0, 0), State(0, 5), max_states=3, mode="beam")
    )
    assert not res.feasible


def test_four_connected_steps_need_a_longer_budget(pocket):
    grid, els = pocket
    tight = SearchConfig(State(0, 0), State(5, 5), r_c=1.0, max_states=7)
    assert not plan_min_risk(grid, els, tight).feasible
    roomy = SearchConfig(State(0, 0), State(5, 5), r_c=1.0, max_states=11)
    res = plan_min_risk(grid, els, roomy)
    assert res.feasible and len(res.path.states) == 11
    for a, b in zip(res.path.states, res.path.states[1:]):
        assert abs(a.row - b.row) + abs(a.col - b.col) == 1


def test_start_equals_goal(pocket):
    grid, els = pocket
    res = plan_min_risk(grid, els, SearchConfig(State(4, 0), State(4, 0), max_states=1))
    assert res.feasible
    assert [s.as_tuple() for s in res.path.states] == [(4, 0)]
    assert res.risk == 0.0


@pytest.mark.parametrize("plan", [plan_min_risk, plan_additive_baseline])
def test_a_step_radius_below_one_allows_no_move(pocket, plan):
    grid, els = pocket
    for mode in ("exhaustive", "beam"):
        res = plan(grid, els, SearchConfig(State(0, 0), State(1, 1), r_c=0.5, mode=mode))
        assert (res.feasible, res.path, res.risk) == (False, None, None)
        assert res.reason == "r_c=0.5 allows no move between cells"
    # no move is needed to stay put
    res = plan(grid, els, SearchConfig(State(4, 0), State(4, 0), r_c=0.5, max_states=1))
    assert res.feasible and [s.as_tuple() for s in res.path.states] == [(4, 0)]


# ---------------------------------------------------------------------------
# Pocket map: frozen optima


POCKET_BEST = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 4), (4, 4), (5, 5)]


def test_pocket_exhaustive_optimum(pocket):
    grid, els = pocket
    res = plan_min_risk(grid, els, SearchConfig(State(0, 0), State(5, 5), max_states=7))
    assert res.feasible
    assert [s.as_tuple() for s in res.path.states] == POCKET_BEST
    assert res.risk == pytest.approx(0.47871600000000003, rel=1e-12)
    report = evaluate_path(grid, res.path, els)
    assert report.risk == pytest.approx(res.risk, rel=1e-12)


def test_pocket_beam_matches_exhaustive(pocket):
    grid, els = pocket
    res = plan_min_risk(
        grid, els,
        SearchConfig(State(0, 0), State(5, 5), max_states=7, mode="beam", beam_width=64),
    )
    assert res.feasible
    assert [s.as_tuple() for s in res.path.states] == POCKET_BEST
    assert res.risk == pytest.approx(0.47871600000000003, rel=1e-12)


def test_pocket_additive_baseline(pocket):
    grid, els = pocket
    cfg = SearchConfig(State(0, 0), State(5, 5), max_states=7)
    res = plan_additive_baseline(grid, els, cfg)
    assert res.feasible
    assert [s.as_tuple() for s in res.path.states] == POCKET_BEST
    assert res.risk == pytest.approx(0.4)
    half = plan_additive_baseline(grid, els, cfg, weights={"obstacle_distance": 0.5})
    assert half.risk == pytest.approx(0.2)


def test_additive_baseline_input_errors(pocket):
    grid, els = pocket
    cfg = SearchConfig(State(0, 0), State(5, 5), max_states=7)
    res = plan_additive_baseline(grid, els, cfg, weights={"obstacle_distance": -1.0})
    assert not res.feasible and "non-negative" in res.reason
    tether_only = load_elements(
        json.dumps({"elements": [{"name": "tether_contacts", "per_contact": 0.05}]})
    )
    res = plan_additive_baseline(grid, tether_only, cfg)
    assert not res.feasible and "locale" in res.reason


# ---------------------------------------------------------------------------
# Tie-breaking: risk first, then length, then lexicographic order


def _constant_element(value):
    return load_elements(json.dumps({"elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear", "knots": [[1.0, value]]}}]}))


# The additive baseline merges prefixes by (last cell, length); the merge
# must keep the same winner.
@pytest.mark.parametrize("plan", [plan_min_risk, plan_additive_baseline])
def test_ties_prefer_shorter_then_lexicographic(plan):
    grid = load_map("....\n....\n....\n")
    # all states risk-free: every path ties at zero, so length decides, and a
    # lexicographically smaller but longer path must lose
    res = plan(grid, _constant_element(0.0),
               SearchConfig(State(0, 0), State(2, 3), max_states=6))
    assert res.risk == 0.0
    assert [s.as_tuple() for s in res.path.states] == [(0, 0), (0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("plan, objective", [
    (plan_min_risk, 1.0 - 0.75 ** 4), (plan_additive_baseline, 4 * 0.25)])
def test_equal_risk_same_length_falls_to_order(plan, objective):
    grid = load_map("....\n....\n....\n")
    # constant per-state risk: all four-state routes have identical products and sums
    res = plan(grid, _constant_element(0.25),
               SearchConfig(State(0, 0), State(2, 3), max_states=6))
    assert res.risk == pytest.approx(objective, rel=1e-12)
    assert [s.as_tuple() for s in res.path.states] == [(0, 0), (0, 1), (1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# History dependence: the optimal path need not have optimal prefixes


BELLMAN_MAP = ".......\n.......\n.......\n..##.#.\n.......\n"
BELLMAN_CONFIG = json.dumps({"elements": [
    {"name": "obstacle_distance",
     "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.12], [2.0, 0.0]]}},
    {"name": "tether_contacts", "per_contact": 0.35, "anchor": [4, 5]},
]})


def test_optimal_path_with_suboptimal_prefix():
    # The anchor sits below the wall, so which side of the slits the band
    # threads depends on the approach.  The best route dips through (2, 2)
    # before (1, 3) purely to leave the band in the cheaper class; stepping
    # to (1, 3) directly is cheaper *now* but unrecoverable later.
    grid = load_map(BELLMAN_MAP)
    els = load_elements(BELLMAN_CONFIG)
    res = plan_min_risk(grid, els, SearchConfig(State(1, 2), State(1, 6), max_states=6))
    assert [s.as_tuple() for s in res.path.states] == [
        (1, 2), (2, 2), (1, 3), (0, 4), (0, 5), (1, 6)]
    assert res.risk == pytest.approx(0.8978944249999999, rel=1e-12)

    prefix = Path(res.path.states[:3], r_c=1.5)
    prefix_risk = evaluate_path(grid, prefix, els).risk
    assert prefix_risk == pytest.approx(0.6282, rel=1e-12)
    to_mid = plan_min_risk(grid, els, SearchConfig(State(1, 2), State(1, 3), max_states=3))
    assert [s.as_tuple() for s in to_mid.path.states] == [(1, 2), (1, 3)]
    assert to_mid.risk == pytest.approx(0.35, rel=1e-12)
    assert to_mid.risk < prefix_risk - 1e-3  # the prefix is strictly suboptimal

    # and no completion of that cheaper prefix beats the planner's choice
    best_direct = min(
        evaluate_path(grid, Path(tuple(State(*t) for t in sts), r_c=1.5), els).risk
        for sts in all_simple_paths(grid, (1, 2), (1, 6), 6)
        if tuple(sts[:2]) == ((1, 2), (1, 3))
    )
    assert best_direct == pytest.approx(0.960133888, rel=1e-12)
    assert res.risk < best_direct - 1e-3


def test_beam_handles_the_history_trap_at_full_width():
    grid = load_map(BELLMAN_MAP)
    els = load_elements(BELLMAN_CONFIG)
    res = plan_min_risk(
        grid, els,
        SearchConfig(State(1, 2), State(1, 6), max_states=6, mode="beam", beam_width=64),
    )
    assert res.feasible
    assert res.risk == pytest.approx(0.8978944249999999, rel=1e-12)


# ---------------------------------------------------------------------------
# Exhaustive planner against brute enumeration


def _sweep_elements(rng):
    doc = {"elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear",
                     "knots": [[1.0, rng.uniform(0.05, 0.3)], [2.0, 0.0]]}}]}
    if rng.random() < 0.6:
        doc["elements"].append(
            {"name": "tether_contacts", "per_contact": rng.uniform(0.05, 0.3)})
    if rng.random() < 0.4:
        doc["elements"].append({"name": "turn", "coeff": rng.uniform(0.01, 0.05)})
    return load_elements(json.dumps(doc))


def _brute_cases(n_seeds, n_wide):
    """(seed, r_c) cases: every seed at king moves, the first n_wide also at
    r_c 2.3, where a hop can skip a cell and the step test decides."""
    return ([pytest.param(seed, 1.5, id=str(seed)) for seed in range(n_seeds)]
            + [pytest.param(seed, 2.3, id=f"{seed}-rc2.3") for seed in range(n_wide)])


def _brute_budget(start, goal, r_c):
    """One state more than the fewest a path needs (floor(r_c) cells per axis a step)."""
    cheby = max(abs(start[0] - goal[0]), abs(start[1] - goal[1]))
    return 2 + -(-cheby // math.floor(r_c))


@pytest.mark.parametrize("seed, r_c", _brute_cases(40, 12))
def test_exhaustive_matches_brute_enumeration(seed, r_c):
    rng = random.Random(7100 + seed)
    grid = random_grid(rng, rng.randint(4, 6), rng.randint(4, 6), p_block=0.15)
    viable = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
              if grid.is_viable(r, c)]
    rng.shuffle(viable)
    start = goal = None
    for a in viable:
        for b in viable:
            if max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 3:
                start, goal = a, b
                break
        if start:
            break
    if start is None:
        pytest.skip("no well-separated endpoint pair on this map")
    max_states = _brute_budget(start, goal, r_c)
    els = _sweep_elements(rng)

    ranked = []
    for sts in all_simple_paths(grid, start, goal, max_states, r_c=r_c):
        path = Path(tuple(State(r, c) for r, c in sts), r_c=r_c)
        risk = evaluate_path(grid, path, els).risk
        ranked.append((risk, len(sts), tuple(sts)))
    res = plan_min_risk(
        grid, els, SearchConfig(State(*start), State(*goal), r_c=r_c, max_states=max_states))
    if not ranked:
        assert not res.feasible
        return
    ranked.sort()
    assert res.feasible
    assert res.risk == pytest.approx(ranked[0][0], rel=1e-11, abs=1e-12)
    runner_up = next((r for r, _, _ in ranked if r > ranked[0][0] + 1e-9), None)
    if runner_up is not None and len([r for r, _, _ in ranked if r <= ranked[0][0] + 1e-9]) == 1:
        assert tuple(s.as_tuple() for s in res.path.states) == ranked[0][2]


def _assert_risk_never_rises(grid, els, start, goal, budgets, r_c=1.5):
    risks = []
    for max_states in budgets:
        res = plan_min_risk(grid, els, SearchConfig(
            State(*start), State(*goal), r_c=r_c, max_states=max_states))
        risks.append(res.risk if res.feasible else None)
    feasible = [r for r in risks if r is not None]
    # once a budget admits a plan every larger one does, at no higher risk
    assert risks[len(risks) - len(feasible):] == feasible
    assert all(b <= a for a, b in zip(feasible, feasible[1:])), risks
    return feasible


@pytest.mark.parametrize("start, goal", [((2, 8), (8, 4)), ((9, 7), (3, 3)), ((5, 7), (8, 2))])
def test_exhaustive_risk_never_rises_with_budget_on_the_courtyard(
        courtyard_grid, courtyard_elements, start, goal):
    fewest = 1 + max(abs(start[0] - goal[0]), abs(start[1] - goal[1]))
    risks = _assert_risk_never_rises(
        courtyard_grid, courtyard_elements, start, goal, range(fewest, fewest + 5))
    assert risks[-1] < risks[0]  # the detours the larger budgets allow pay off


@pytest.mark.parametrize("seed", range(24))
def test_exhaustive_risk_never_rises_with_budget(seed):
    rng = random.Random(7400 + seed)
    grid = random_grid(rng, rng.randint(4, 6), rng.randint(4, 6), p_block=0.15)
    viable = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
              if grid.is_viable(r, c)]
    if len(viable) < 2:
        pytest.skip("fewer than two viable cells on this map")
    start, goal = rng.sample(viable, 2)
    fewest = 1 + max(abs(start[0] - goal[0]), abs(start[1] - goal[1]))
    _assert_risk_never_rises(grid, _sweep_elements(rng), start, goal,
                             range(fewest, fewest + 5), r_c=rng.choice([1.0, 1.5]))


@pytest.mark.parametrize("seed, r_c", _brute_cases(8, 8))
def test_additive_matches_brute_enumeration(seed, r_c):
    rng = random.Random(7700 + seed)
    grid = random_grid(rng, rng.randint(4, 6), rng.randint(4, 6), p_block=0.15)
    viable = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
              if grid.is_viable(r, c)]
    pairs = [(a, b) for a in viable for b in viable
             if max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 3]
    if not pairs:
        pytest.skip("no well-separated endpoint pair on this map")
    start, goal = pairs[rng.randrange(len(pairs))]
    max_states = _brute_budget(start, goal, r_c)
    els = _sweep_elements(rng)
    locale = [e for e in els if e.category is RiskCategory.LOCALE]

    def cost(sts):
        return sum(e.evaluate(grid, (State(r, c),)) for r, c in sts for e in locale)

    costs = [cost(sts)
             for sts in all_simple_paths(grid, start, goal, max_states, r_c=r_c)]
    res = plan_additive_baseline(
        grid, els, SearchConfig(State(*start), State(*goal), r_c=r_c, max_states=max_states))
    if not costs:
        assert not res.feasible
        return
    assert res.feasible
    assert res.risk == pytest.approx(min(costs), rel=1e-11, abs=1e-12)
    assert cost([s.as_tuple() for s in res.path.states]) == pytest.approx(
        res.risk, rel=1e-11, abs=1e-12)


def test_additive_objective_is_the_additive_path_cost_of_the_plan():
    # The objective is additive_path_cost of the plan's locale matrix, the
    # number `compare` prints, not the search's running sum, which can differ
    # from it in the last bits.
    rng = random.Random(7900)
    els = load_elements(json.dumps({"elements": [
        {"name": "obstacle_distance", "mapping": {"kind": "piecewise-linear",
         "knots": [[1.0, 0.05], [1.5, 0.03], [2.0, 0.011], [3.0, 0.0]]}},
        {"name": "visibility", "radius": 3.0, "ray_count": 16, "mapping": {
            "kind": "piecewise-linear", "knots": [[0.0, 0.07], [0.6, 0.013], [1.0, 0.001]]}},
        {"name": "turn", "coeff": 0.03}]}))
    locale = [e for e in els if e.category is RiskCategory.LOCALE]
    feasible = 0
    for i in range(60):
        grid = random_grid(rng, rng.randint(4, 10), rng.randint(4, 10), p_block=0.15)
        viable = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols)
                  if grid.is_viable(r, c)]
        if len(viable) < 2:
            continue
        start, goal = rng.sample(viable, 2)
        weights = {e.name: rng.uniform(0.2, 3.0) for e in locale} if i % 2 else None
        config = SearchConfig(State(*start), State(*goal), r_c=rng.choice([1.0, 1.5, 2.3]),
                              max_states=rng.randint(3, 12))
        res = plan_additive_baseline(grid, els, config, weights=weights)
        if res.feasible:
            feasible += 1
            matrix = compose.evaluate_risk_matrix(grid, res.path, locale)
            assert res.risk == compose.additive_path_cost(matrix, weights)
    assert feasible >= 20


@pytest.mark.parametrize("config", [
    "pillar_courtyard.config.json", "pillar_courtyard_anchored.config.json"])
def test_plans_with_hops_that_skip_a_cell_never_cross_the_pillar(courtyard_grid, config):
    # r_c 2.3 lists hops past the pillar; the move table drops those that
    # cross it, so no plan cuts a wall and no tether fold meets such a step.
    els = fixture_elements(config)
    clear_step = step_clear_test(unviable_cells(courtyard_grid))
    viable = [(r, c) for r in range(12) for c in range(12) if courtyard_grid.is_viable(r, c)]
    # the anchored config's anchor must see the start
    starts = [cell for cell in viable if clear_step((1, 1), cell)]
    rng = random.Random(7950)
    feasible = 0
    for _ in range(16):
        start, goal = rng.choice(starts), rng.choice(viable)
        for plan, mode in [(plan_min_risk, "exhaustive"), (plan_min_risk, "beam"),
                           (plan_additive_baseline, "exhaustive")]:
            config = SearchConfig(State(*start), State(*goal), r_c=2.3,
                                  max_states=rng.choice([5, 6]), mode=mode)
            res = plan(courtyard_grid, els, config)
            if res.feasible:
                feasible += 1
                cells = [s.as_tuple() for s in res.path]
                assert all(clear_step(a, b) for a, b in zip(cells, cells[1:])), cells
    assert feasible >= 20


@pytest.mark.parametrize("plan, mode", [
    (plan_min_risk, "exhaustive"), (plan_min_risk, "beam"), (plan_additive_baseline, "exhaustive")])
def test_each_cell_lists_its_moves_once_per_plan(monkeypatch, courtyard_grid, plan, mode):
    doc = json.loads((FIXTURES / "pillar_courtyard.config.json").read_text())
    doc["elements"] = [e for e in doc["elements"] if not e["name"].startswith("tether")]
    els = load_elements(json.dumps(doc))
    grid = courtyard_grid
    n_viable = sum(grid.is_viable(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols))
    counts = {"viable": 0}
    count_calls(monkeypatch, GridMap, "is_viable", counts, "viable")
    config = SearchConfig(State(2, 2), State(9, 10), max_states=12, mode=mode)
    assert plan(grid, els, config).feasible
    # two endpoint checks, eight king moves per expanded cell, and the final
    # validate_path of the plan's states
    assert counts["viable"] <= 2 + 8 * n_viable + config.max_states


# ---------------------------------------------------------------------------
# The planner grows rows with the shared fold


def _two_tether_config(second_anchor):
    tether = {"name": "tether_length", "coeff": 0.01}
    contacts = {"name": "tether_contacts", "per_contact": 0.05}
    if second_anchor is not None:
        contacts["anchor"] = second_anchor
    return load_elements(json.dumps({"elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.05], [2.0, 0.0]]}},
        tether, {"name": "turn", "coeff": 0.02}, contacts,
    ]}))


@pytest.mark.parametrize("mode", ["exhaustive", "beam"])
@pytest.mark.parametrize("second_anchor, slots", [(None, 1), ([9, 2], 2)])
def test_planner_advances_each_tether_transition_once_per_fold(
        monkeypatch, courtyard_grid, mode, second_anchor, slots):
    # Every (anchor, chain, next cell) a fold's steps ask for is advanced
    # exactly once by that fold, however many prefixes share it.
    els = _two_tether_config(second_anchor)
    asked, advanced = [], []
    counts = {"step": 0, "refold": 0}
    real_step, real_advance = compose.RowFold.step, compose.advance_tether
    current = []

    def step(fold, carry, s):
        counts["step"] += 1
        asked.extend((fold, tet.anchor, tet.chain, s) for tet in carry[0])
        current.append(fold)
        try:
            return real_step(fold, carry, s)
        finally:
            current.pop()

    def advance(grid, tether, s):
        advanced.append((current[-1], tether.anchor, tether.chain, s))
        return real_advance(grid, tether, s)

    monkeypatch.setattr(compose.RowFold, "step", step)
    monkeypatch.setattr(compose, "advance_tether", advance)
    count_calls(monkeypatch, elements_module, "tether_for_prefix", counts, "refold")
    res = plan_min_risk(courtyard_grid, els,
                        SearchConfig(State(2, 2), State(9, 10), max_states=10, mode=mode))
    assert res.feasible
    assert counts["step"] > len(res.path)
    assert len(advanced) == len(set(advanced))
    assert set(advanced) == set(asked)
    assert len(advanced) < slots * counts["step"]
    assert counts["refold"] == 0

    assert res.risk == evaluate_path(courtyard_grid, res.path, els).risk
    oracle = RiskMatrix(tuple(e.name for e in els), tuple(e.category for e in els),
                        np.array(prefix_risk_matrix(courtyard_grid, res.path, els)))
    assert res.risk == path_risk(oracle)


def test_an_anchor_at_the_first_state_is_read_apart_from_the_default_anchor(
        courtyard_grid, courtyard_left):
    # An anchor of None and an explicit anchor at the first state give equal
    # chains, but each has its own readers: the fold must not serve one
    # slot's hazards to the other.
    first, last = courtyard_left.states[0], courtyard_left.states[-1]
    els = load_elements(json.dumps({"elements": [
        {"name": "tether_length", "coeff": 0.01},
        {"name": "turn", "coeff": 0.02},
        {"name": "tether_contacts", "per_contact": 0.05, "anchor": list(first.as_tuple())},
    ]}))
    got = evaluate_risk_matrix(courtyard_grid, courtyard_left, els)
    assert got.values.tolist() == prefix_risk_matrix(courtyard_grid, courtyard_left, els)
    assert got.column("tether_length").tolist() != got.column("tether_contacts").tolist()

    res = plan_min_risk(courtyard_grid, els, SearchConfig(first, last, max_states=10))
    assert res.feasible
    oracle = RiskMatrix(tuple(e.name for e in els), tuple(e.category for e in els),
                        np.array(prefix_risk_matrix(courtyard_grid, res.path, els)))
    assert res.risk == path_risk(oracle)
