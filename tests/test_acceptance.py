"""Acceptance gate: one test per shipped guarantee, each a single pass/fail line
under -v.  Tolerances are stated inline next to each assertion."""

import json
import math
import random
import time
import warnings

import numpy as np
import pytest

from motionrisk import (
    Path,
    RiskCategory,
    RiskMatrix,
    SearchConfig,
    State,
    additive_path_cost,
    evaluate_path,
    evaluate_risk_matrix,
    load_elements,
    monte_carlo_risk,
    path_risk,
    plan_min_risk,
    state_finish_prob,
)
from motionrisk.cli import main
from motionrisk.tether import check_tether, tether_for_prefix

from conftest import (
    fixture_elements, fixture_map, fixture_path, random_grid, random_walk, unviable_cells,
)
from oracles import (
    all_simple_paths,
    brute_distance_field,
    canonical_chain,
    crossing_word,
    seg_blocked,
    shortest_homotopic_chain,
)


@pytest.fixture(scope="module")
def courtyard():
    grid = fixture_map("pillar_courtyard.map")
    elements = fixture_elements("pillar_courtyard.config.json")
    path = fixture_path("pillar_courtyard_left.path")
    return grid, elements, path


def test_criterion_1_worked_example_golden(courtyard):
    grid, elements, path = courtyard
    report = evaluate_path(grid, path, elements)

    row = tuple(report.matrix.values[6])
    assert row == (0.04, 0.04, 0.03)
    assert f"{report.state_finish[6]:.2f}" == "0.89"
    displays = [f"{v:.2f}" for v in report.state_finish]
    assert displays == ["0.99", "1.00", "1.00", "0.96", "0.96", "0.98",
                        "0.89", "0.95", "0.97", "0.97", "0.94", "0.93"]
    assert abs(report.finish_prob - 0.62) <= 0.005
    assert abs(report.risk - 0.38) <= 0.005

    elapsed = min(
        _timed(lambda: evaluate_path(grid, path, elements)) for _ in range(5)
    )
    assert elapsed < 0.010  # seconds, warm caches


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_state_composition_exact():
    naive = (1 - 0.04) * (1 - 0.04) * (1 - 0.03)
    got = state_finish_prob([0.04, 0.04, 0.03])
    assert got == pytest.approx(naive, rel=1e-12)
    assert got == pytest.approx(0.893952, abs=1e-15)
    assert f"{got:.2f}" == "0.89"
    # A tempting transcription slip quotes this product as 0.893088; no real
    # probabilities produce that value here (0.96 * 0.96 * 0.97 = 0.893952,
    # and 0.893088 has a prime factor larger than any admissible numerator).
    assert got != 0.893088
    note = ("state composition: 0.96 * 0.96 * 0.97 = 0.893952 (displays 0.89); "
            "the sometimes-quoted 0.893088 is not attainable and is treated as a misprint")
    warnings.warn(note)
    print(note)


def test_criterion_3_monte_carlo_oracle(courtyard):
    grid, elements, path = courtyard
    report = evaluate_path(grid, path, elements)
    hits = 0
    first_elapsed = None
    for seed in range(100):
        t0 = time.perf_counter()
        mc = monte_carlo_risk(report.matrix, trials=1_000_000, seed=seed)
        if first_elapsed is None:
            first_elapsed = time.perf_counter() - t0
        if abs(mc.estimate - report.risk) <= 3.0 * mc.stderr:
            hits += 1
    assert hits >= 99, f"only {hits}/100 seeds within 3 standard errors"
    assert first_elapsed < 5.0  # seconds per million-trial run


def test_criterion_4_tether_path_dependence(courtyard):
    grid, elements, _ = courtyard
    left = fixture_path("pillar_courtyard_left_to_pillar.path")
    right = fixture_path("pillar_courtyard_right.path")
    assert left.states[-1] == right.states[-1]

    left_tether = tether_for_prefix(grid, left.states)
    right_tether = tether_for_prefix(grid, right.states)
    assert len(left_tether.contacts) == 1
    assert len(right_tether.contacts) == 2

    left_risk = evaluate_path(grid, left, elements).risk
    right_risk = evaluate_path(grid, right, elements).risk
    assert left_risk == pytest.approx(0.20301811238465606, rel=1e-12)
    assert right_risk == pytest.approx(0.22477643985069562, rel=1e-12)
    assert right_risk > left_risk  # strictly riskier around the far side


def _rank_pair(map_name, config_name, path_a, path_b):
    grid = fixture_map(map_name)
    elements = fixture_elements(config_name)
    locale = [e for e in elements if e.category is RiskCategory.LOCALE]
    out = {}
    for name in (path_a, path_b):
        path = fixture_path(f"{name}.path")
        out[name] = (
            evaluate_path(grid, path, elements).risk,
            additive_path_cost(evaluate_risk_matrix(grid, path, locale)),
        )
    return out


def test_criterion_5_ranking_reversals(capsys):
    ranks = _rank_pair("squeeze_detour.map", "squeeze_detour.config.json",
                       "squeeze", "detour")
    assert ranks["squeeze"][0] == pytest.approx(0.76478788377, rel=1e-12)
    assert ranks["detour"][0] == pytest.approx(0.7569918244742424, rel=1e-12)
    assert ranks["squeeze"][1] == pytest.approx(1.26, rel=1e-12)
    assert ranks["detour"][1] == pytest.approx(1.35, rel=1e-12)
    # risk prefers the detour, the additive sum prefers the squeeze
    assert ranks["detour"][0] < ranks["squeeze"][0]
    assert ranks["squeeze"][1] < ranks["detour"][1]

    ranks = _rank_pair("corridor.map", "corridor.config.json", "straight", "twisty")
    assert ranks["straight"][0] == pytest.approx(0.4012630607616211, rel=1e-12)
    assert ranks["twisty"][0] == pytest.approx(0.7395331288287317, rel=1e-12)
    # risk prefers the straight run, the additive sum prefers the twisty one
    assert ranks["straight"][0] < ranks["twisty"][0]
    assert ranks["twisty"][1] < ranks["straight"][1]

    from conftest import FIXTURES
    code = main([
        "compare",
        "--map", str(FIXTURES / "squeeze_detour.map"),
        "--config", str(FIXTURES / "squeeze_detour.config.json"),
        "--path", str(FIXTURES / "squeeze.path"),
        "--path", str(FIXTURES / "detour.path"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "WARNING: additive ranking disagrees with risk ranking" in out


def test_criterion_6_risk_bounded_additive_not(courtyard):
    values = np.full((1000, 1), 0.001)
    matrix = RiskMatrix(("hazard",), (RiskCategory.LOCALE,), values)
    assert path_risk(matrix) == pytest.approx(1.0 - 0.999 ** 1000, abs=1e-9)
    assert additive_path_cost(matrix) == pytest.approx(1.0, abs=1e-9)

    # every shipped fixture keeps risk inside [0, 1] while additive cost roams
    cases = [
        ("pillar_courtyard", ["pillar_courtyard_left", "pillar_courtyard_right",
                              "pillar_courtyard_left_to_pillar"]),
        ("squeeze_detour", ["squeeze", "detour"]),
        ("corridor", ["straight", "twisty"]),
    ]
    saw_unbounded = False
    for stem, path_names in cases:
        grid = fixture_map(f"{stem}.map")
        elements = fixture_elements(f"{stem}.config.json")
        locale = [e for e in elements if e.category is RiskCategory.LOCALE]
        for name in path_names:
            path = fixture_path(f"{name}.path")
            risk = evaluate_path(grid, path, elements).risk
            assert 0.0 <= risk <= 1.0
            cost = additive_path_cost(evaluate_risk_matrix(grid, path, locale))
            if cost > 1.0:
                saw_unbounded = True
    assert saw_unbounded  # at least one fixture exhibits cost above any probability


def test_criterion_7_oracle_equivalence_under_60s():
    t_start = time.perf_counter()

    # distance fields against the quadratic brute force, maps up to 16 x 16
    for seed in range(15):
        rng = random.Random(81000 + seed)
        g = random_grid(rng, rng.randint(4, 16), rng.randint(4, 16),
                        p_block=rng.uniform(0.05, 0.3), cell_size=rng.choice([1.0, 0.5]))
        viable = np.array([[g.is_viable(r, c) for c in range(g.n_cols)]
                           for r in range(g.n_rows)])
        assert np.allclose(g.distance_field(),
                           brute_distance_field(viable, g.cell_size), atol=1e-9)

    # taut tether chains against the shortest-homotopic-chain oracle
    checked = 0
    for seed in range(10):
        rng = random.Random(83000 + seed)
        g = random_grid(rng, rng.randint(6, 16), rng.randint(6, 16),
                        p_block=rng.uniform(0.08, 0.2))
        punct = sorted(unviable_cells(g))

        def clear(a, b):
            return not seg_blocked((2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1]), punct)

        walk = random_walk(g, rng, n_steps=rng.randint(5, 10), clear_step=clear)
        if walk is None or len(walk) < 2:
            continue
        for i in range(len(walk)):
            prefix = walk[: i + 1]
            tet = tether_for_prefix(g, prefix)
            check_tether(g, tet)
            poly = [(2 * prefix[0].row, 2 * prefix[0].col)]
            poly += [(2 * s.row, 2 * s.col) for s in prefix]
            target = crossing_word(poly, punct)
            assert crossing_word(list(tet.chain), punct) == target
            want = shortest_homotopic_chain(
                set(punct), g.n_rows, g.n_cols, poly[0], poly[-1], target)
            assert canonical_chain(tet.chain) == canonical_chain(want)
            want_len = sum(math.hypot(p[0] - q[0], p[1] - q[1]) / 2.0
                           for p, q in zip(want, want[1:]))
            assert tet.taut_length == pytest.approx(want_len, abs=1e-9)
            checked += 1
    assert checked >= 40

    # exhaustive planner against full path enumeration, maps up to 6 x 6
    elements = load_elements(json.dumps({"elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.15], [2.0, 0.0]]}},
        {"name": "tether_contacts", "per_contact": 0.1},
        {"name": "turn", "coeff": 0.03}]}))
    compared = 0
    for seed in range(8):
        rng = random.Random(85000 + seed)
        g = random_grid(rng, rng.randint(4, 6), rng.randint(4, 6), p_block=0.15)
        viable = [(r, c) for r in range(g.n_rows) for c in range(g.n_cols)
                  if g.is_viable(r, c)]
        pairs = [(a, b) for a in viable for b in viable
                 if max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 3]
        if not pairs:
            continue
        start, goal = pairs[rng.randrange(len(pairs))]
        max_states = max(abs(start[0] - goal[0]), abs(start[1] - goal[1])) + 2
        risks = [
            evaluate_path(
                g, Path(tuple(State(r, c) for r, c in sts), r_c=1.5), elements).risk
            for sts in all_simple_paths(g, start, goal, max_states)
        ]
        res = plan_min_risk(
            g, elements, SearchConfig(State(*start), State(*goal), max_states=max_states))
        if risks:
            assert res.feasible
            assert res.risk == pytest.approx(min(risks), rel=1e-11, abs=1e-12)
            compared += 1
        else:
            assert not res.feasible
    assert compared >= 4

    assert time.perf_counter() - t_start < 60.0


def test_criterion_8_history_invariance_1000_cases_each():
    specs = [
        ({"name": "obstacle_distance",
          "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.2], [2.5, 0.0]]}}, 1),
        ({"name": "visibility",
          "mapping": {"knots": [[0.0, 0.5], [1.0, 0.0]]},
          "radius": 2.0, "ray_count": 8}, 1),
        ({"name": "turn", "coeff": 0.05}, 3),
        ({"name": "action_length", "coeff": 0.02}, 3),
    ]
    for spec, window in specs:
        element = load_elements(json.dumps({"elements": [spec]}))[0]
        rng = random.Random(88000)
        violations = 0
        cases = 0
        while cases < 1000:
            g = random_grid(rng, rng.randint(4, 8), rng.randint(4, 8),
                            p_block=rng.uniform(0.0, 0.25))
            walk = random_walk(g, rng, n_steps=rng.randint(window, 8),
                               clear_step=lambda a, b: True)
            if walk is None or len(walk) < window:
                continue
            prefix = tuple(walk)
            if element.evaluate(g, prefix) != element.evaluate(g, prefix[-window:]):
                violations += 1
            cases += 1
        assert violations == 0, f"{element.name}: {violations} violations"
