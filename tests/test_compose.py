import math
import random
import re

import numpy as np
import pytest

from motionrisk import (
    DomainError,
    MonteCarloResult,
    PathValidationError,
    RiskCategory,
    RiskElement,
    RiskMapping,
    RiskMatrix,
    State,
    Path,
    TetherError,
    action_length_risk,
    additive_path_cost,
    evaluate_path,
    evaluate_risk_matrix,
    monte_carlo_risk,
    obstacle_distance_risk,
    path_finish_prob,
    path_risk,
    state_finish_prob,
    tether_contact_risk,
    tether_length_risk,
    turn_risk,
)
from motionrisk import compose, elements as elements_module

from conftest import count_calls, random_grid, random_walk
from oracles import prefix_risk_matrix, serial_monte_carlo_failures

# Frozen expectations for the courtyard left route.  Derived independently:
# distances and contacts counted on the map drawing, each row multiplied out
# by hand, then pinned at full float precision.
LEFT_STATE_FINISH = [
    0.993,
    0.9975,
    0.9975,
    0.9556824192281212,
    0.96,
    0.9835,
    0.893952,
    0.953995,
    0.967575,
    0.967575,
    0.9359663070917322,
    0.9312,
]
LEFT_FINISH = 0.6203931729262526
LEFT_RISK = 0.3796068270737474
LEFT_DIST = [0.007, 0.0025, 0.0025, 0.0165, 0.04, 0.0165,
             0.04, 0.0165, 0.0025, 0.0025, 0.007, 0.04]
TURN_DIAG = 0.04 / math.sqrt(2.0)
LEFT_TURN = [0.0, 0.0, 0.0, TURN_DIAG, 0.0, 0.0, 0.04, 0.0, 0.0, 0.0, TURN_DIAG, 0.0]
LEFT_CONTACT = [0.0] * 6 + [0.03] * 6


# ---------------------------------------------------------------------------
# Single-state composition


def test_worked_state_composition():
    # the three-element state everyone squints at: 0.96 * 0.96 * 0.97
    naive = (1 - 0.04) * (1 - 0.04) * (1 - 0.03)
    got = state_finish_prob([0.04, 0.04, 0.03])
    assert naive == pytest.approx(0.893952, abs=1e-15)
    assert got == pytest.approx(naive, rel=1e-12)
    assert f"{got:.2f}" == "0.89"


def test_state_finish_prob_edge_cases():
    assert state_finish_prob([]) == 1.0
    assert state_finish_prob([0.0, 0.0]) == 1.0
    assert state_finish_prob([1.0, 0.0]) == 0.0
    assert state_finish_prob([0.5]) == pytest.approx(0.5)


def test_state_finish_prob_validation():
    with pytest.raises(DomainError):
        state_finish_prob([[0.1, 0.2]])
    with pytest.raises(DomainError):
        state_finish_prob([-0.1])
    with pytest.raises(DomainError):
        state_finish_prob([1.1])
    with pytest.raises(DomainError):
        state_finish_prob([float("nan")])


@pytest.mark.parametrize("seed", range(10))
def test_log_domain_matches_naive_product(seed):
    rng = random.Random(3300 + seed)
    risks = [rng.uniform(0.0, 0.9) for _ in range(rng.randint(1, 40))]
    naive = 1.0
    for r in risks:
        naive *= 1.0 - r
    assert state_finish_prob(risks) == pytest.approx(naive, rel=1e-12)


# ---------------------------------------------------------------------------
# RiskMatrix


def _matrix(values, cats=None, names=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    names = tuple(names or (f"e{k}" for k in range(n)))
    cats = tuple(cats or [RiskCategory.LOCALE] * n)
    return RiskMatrix(names, cats, values)


def test_matrix_accessors():
    m = _matrix([[0.1, 0.2], [0.0, 0.5]], names=("a", "b"))
    assert m.n_states == 2
    assert m.column("b").tolist() == [0.2, 0.5]
    assert m.state_finish_probs() == pytest.approx([0.9 * 0.8, 0.5])


def test_state_finish_probs_equal_the_scalar_rows():
    rng = np.random.default_rng(4100)
    for _ in range(300):
        n, k = rng.integers(1, 40), rng.integers(1, 12)
        values = rng.uniform(0.0, 1.0, size=(n, k)) ** rng.uniform(0.2, 5.0)
        values[rng.uniform(size=(n, k)) < 0.05] = 1.0
        values[rng.uniform(size=(n, k)) < 0.2] = 0.0
        m = _matrix(values)
        expected = [state_finish_prob(row) for row in m.values]
        assert m.state_finish_probs().tolist() == expected


def test_matrix_is_read_only():
    m = _matrix([[0.1]])
    with pytest.raises(ValueError):
        m.values[0, 0] = 0.9


def test_matrix_validation():
    with pytest.raises(DomainError):
        RiskMatrix(("a",), (RiskCategory.LOCALE,), np.array([0.1, 0.2]))  # 1D
    with pytest.raises(DomainError):
        RiskMatrix(("a",), (RiskCategory.LOCALE,), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        RiskMatrix(("a", "b"), (RiskCategory.LOCALE,), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        _matrix([[1.5]])
    with pytest.raises(DomainError):
        _matrix([[-0.1]])
    with pytest.raises(DomainError):
        _matrix([[float("inf")]])


def test_path_probability_short_circuits_on_certain_failure():
    m = _matrix([[0.2], [1.0], [0.1]])
    assert path_finish_prob(m) == 0.0
    assert path_risk(m) == 1.0


# ---------------------------------------------------------------------------
# The courtyard left route, end to end


@pytest.fixture(scope="module")
def left_report(courtyard_grid, courtyard_elements, courtyard_left):
    return evaluate_path(courtyard_grid, courtyard_left, courtyard_elements)


def test_left_route_matrix_columns(left_report):
    m = left_report.matrix
    assert m.n_states == 12
    assert m.element_names == ("obstacle_distance", "turn", "tether_contacts")
    assert m.column("obstacle_distance").tolist() == LEFT_DIST
    assert m.column("turn").tolist() == pytest.approx(LEFT_TURN, abs=1e-15)
    assert m.column("tether_contacts").tolist() == LEFT_CONTACT


def test_left_route_worked_state_row(left_report):
    # state 6 sits beside the pillar, mid-turn, with the band wrapped
    row = left_report.matrix.values[6]
    assert row.tolist() == [0.04, 0.04, 0.03]
    assert left_report.state_finish[6] == pytest.approx(0.893952, rel=1e-12)


def test_left_route_state_finish_trace(left_report):
    assert left_report.state_finish == pytest.approx(LEFT_STATE_FINISH, abs=1e-12)
    displays = [f"{v:.2f}" for v in left_report.state_finish]
    assert displays == ["0.99", "1.00", "1.00", "0.96", "0.96", "0.98",
                        "0.89", "0.95", "0.97", "0.97", "0.94", "0.93"]


def test_left_route_totals(left_report):
    assert left_report.finish_prob == pytest.approx(LEFT_FINISH, abs=1e-12)
    assert left_report.risk == pytest.approx(LEFT_RISK, abs=1e-12)
    assert left_report.risk == 1.0 - left_report.finish_prob
    product = 1.0
    for v in left_report.state_finish:
        product *= v
    assert left_report.finish_prob == pytest.approx(product, rel=1e-12)


def test_evaluate_rejects_bad_input(courtyard_grid, courtyard_elements, courtyard_left):
    with pytest.raises(ValueError, match="at least one"):
        evaluate_risk_matrix(courtyard_grid, courtyard_left, [])
    bad = Path((State(2, 2), State(6, 5)))
    with pytest.raises(PathValidationError):
        evaluate_risk_matrix(courtyard_grid, bad, courtyard_elements)


# ---------------------------------------------------------------------------
# The row fold against the per-prefix evaluation


def _prefix_probe():
    """Traverse element with no tether reader: it needs the whole prefix."""

    def fn(grid, states):
        return min(1.0, 0.004 * len(states) + 0.1 * len(set(states)) / len(states))

    return RiskElement("probe", RiskCategory.TRAVERSE, (), fn)


def _sweep_elements(rng, walk, viable):
    def anchor():
        pick = rng.random()
        if pick < 0.3:
            return None
        if pick < 0.45:
            return walk[0]
        return State(*rng.choice(viable))

    first = anchor()
    second = first if rng.random() < 0.5 else anchor()
    mapping = RiskMapping("piecewise-linear", ((1.0, rng.uniform(0.05, 0.3)), (2.5, 0.0)))
    els = [
        obstacle_distance_risk(mapping),
        action_length_risk(rng.uniform(0.0, 0.05)),
        turn_risk(rng.uniform(0.0, 0.05)),
        tether_length_risk(rng.uniform(0.001, 0.05), anchor=first),
        tether_contact_risk(rng.uniform(0.01, 0.3), anchor=second),
    ]
    if rng.random() < 0.5:
        els.append(_prefix_probe())
    rng.shuffle(els)
    return els


def test_fold_equals_the_per_prefix_evaluation():
    # Random maps, king-move walks and anchors: shared and separate anchors,
    # anchors without line of sight, and a prefix-reading probe element.
    rng = random.Random(6600)
    compared = refused = 0
    while compared < 240:
        g = random_grid(rng, rng.randint(3, 9), rng.randint(3, 9),
                        p_block=rng.uniform(0.05, 0.3))
        walk = random_walk(g, rng, n_steps=rng.randint(0, 15), clear_step=lambda a, b: True)
        if walk is None:
            continue
        viable = [(r, c) for r in range(g.n_rows) for c in range(g.n_cols)
                  if g.is_viable(r, c)]
        els = _sweep_elements(rng, walk, viable)
        path = Path(tuple(walk))
        try:
            expected = prefix_risk_matrix(g, path, els)
        except TetherError as exc:
            with pytest.raises(TetherError, match=re.escape(str(exc))):
                evaluate_risk_matrix(g, path, els)
            refused += 1
            continue
        got = evaluate_risk_matrix(g, path, els)
        assert got.values.tolist() == expected
        assert got.element_names == tuple(e.name for e in els)
        compared += 1
    assert refused > 0


def test_fold_carries_the_widest_window_its_elements_see(courtyard_grid, courtyard_left):
    mapping = RiskMapping("step-table", ((0.0, 0.1),))
    locale = [obstacle_distance_risk(mapping), tether_length_risk(0.01)]
    n = len(courtyard_left)
    for elements, want in (
        (locale, [1] * n),
        (locale + [turn_risk()], [1, 2] + [3] * (n - 2)),
        (locale + [turn_risk(), _prefix_probe()], list(range(1, n + 1))),
    ):
        fold = compose.RowFold(courtyard_grid, elements)
        carry, _ = fold.start(courtyard_left.states[0])
        sizes = [len(carry[1])]
        for s in courtyard_left.states[1:]:
            carry, _ = fold.step(carry, s)
            sizes.append(len(carry[1]))
        assert sizes == want


def _counting(monkeypatch):
    counts = {"start": 0, "advance": 0, "refold": 0}
    count_calls(monkeypatch, compose, "start_tether", counts, "start")
    count_calls(monkeypatch, compose, "advance_tether", counts, "advance")
    count_calls(monkeypatch, elements_module, "tether_for_prefix", counts, "refold")
    return counts


def test_fold_advances_each_anchor_once_per_state(monkeypatch, courtyard_grid, courtyard_left):
    counts = _counting(monkeypatch)
    n = len(courtyard_left)
    shared = [tether_length_risk(0.01), turn_risk(), tether_contact_risk(0.03)]
    evaluate_risk_matrix(courtyard_grid, courtyard_left, shared)
    assert counts == {"start": 1, "advance": n - 1, "refold": 0}

    counts.update(start=0, advance=0)
    split = [tether_length_risk(0.01), tether_contact_risk(0.03, anchor=State(9, 2))]
    evaluate_risk_matrix(courtyard_grid, courtyard_left, split)
    assert counts == {"start": 2, "advance": 2 * (n - 1), "refold": 0}


def test_fold_checks_tether_hazards(courtyard_grid, courtyard_left):
    el = tether_length_risk(0.01)
    bad = RiskElement("bad", RiskCategory.TRAVERSE, (), el.fn,
                      el.tether._replace(hazard=lambda grid, tet: 1.5))
    with pytest.raises(ValueError, match="'bad' produced 1.5 outside"):
        evaluate_risk_matrix(courtyard_grid, courtyard_left, [bad])


# ---------------------------------------------------------------------------
# Additive baseline


def _locale_matrix(left_report):
    return RiskMatrix(
        ("obstacle_distance",),
        (RiskCategory.LOCALE,),
        left_report.matrix.column("obstacle_distance").reshape(-1, 1),
    )


def test_additive_cost_sums_locale_column(left_report):
    m = _locale_matrix(left_report)
    assert additive_path_cost(m) == pytest.approx(0.1935)


def test_additive_cost_weights(left_report):
    m = _locale_matrix(left_report)
    assert additive_path_cost(m, weights={"obstacle_distance": 2.0}) == pytest.approx(0.387)
    assert additive_path_cost(m, weights=[0.5]) == pytest.approx(0.09675)
    # unknown names fall back to weight one
    assert additive_path_cost(m, weights={"other": 9.0}) == pytest.approx(0.1935)


def test_additive_cost_normalizers(left_report):
    m = _locale_matrix(left_report)
    squared = additive_path_cost(m, normalizers={"obstacle_distance": lambda v: v * v})
    assert squared == pytest.approx(sum(v * v for v in LEFT_DIST))


def test_additive_cost_rejects_history_dependent_columns(left_report):
    with pytest.raises(ValueError, match="locale-only"):
        additive_path_cost(left_report.matrix)


def test_additive_cost_rejects_bad_weights(left_report):
    m = _locale_matrix(left_report)
    with pytest.raises(ValueError, match="one weight"):
        additive_path_cost(m, weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        additive_path_cost(m, weights=[-1.0])


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


def test_monte_carlo_is_deterministic_and_chunk_invariant(left_report):
    a = monte_carlo_risk(left_report.matrix, 5000, seed=11)
    b = monte_carlo_risk(left_report.matrix, 5000, seed=11)
    c = monte_carlo_risk(left_report.matrix, 5000, seed=11, chunk=257)
    assert a == b == c
    d = monte_carlo_risk(left_report.matrix, 5000, seed=12)
    assert d.estimate != a.estimate  # different stream


def test_monte_carlo_agrees_with_closed_form(left_report):
    mc = monte_carlo_risk(left_report.matrix, 200_000, seed=7)
    assert mc.trials == 200_000
    assert mc.estimate == mc.failures / mc.trials
    assert abs(mc.estimate - left_report.risk) <= 3.0 * mc.stderr


def test_monte_carlo_degenerate_matrices():
    zero = _matrix([[0.0, 0.0], [0.0, 0.0]])
    mc = monte_carlo_risk(zero, 1000, seed=0)
    assert (mc.estimate, mc.stderr, mc.failures) == (0.0, 0.0, 0)
    doomed = _matrix([[0.3], [1.0]])
    mc = monte_carlo_risk(doomed, 1000, seed=0)
    assert mc.estimate == 1.0


def test_monte_carlo_validation(left_report):
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_risk(left_report.matrix, 0, seed=1)
    for kwargs, name in [
        (dict(trials=10.5, seed=1), "trials"),
        (dict(trials=True, seed=1), "trials"),
        (dict(trials="10", seed=1), "trials"),
        (dict(trials=10, seed=-1), "seed"),
        (dict(trials=10, seed=1.0), "seed"),
        (dict(trials=10, seed=None), "seed"),
        (dict(trials=10, seed=1, chunk=0), "chunk"),
        (dict(trials=10, seed=1, chunk=-3), "chunk"),
        (dict(trials=10, seed=1, chunk=2.0), "chunk"),
    ]:
        with pytest.raises(ValueError, match=name):
            monte_carlo_risk(left_report.matrix, **kwargs)
    mc = monte_carlo_risk(left_report.matrix, np.int64(10), seed=np.uint32(1))
    assert type(mc.trials) is int and type(mc.seed) is int


def _mc_sweep_matrix(rng):
    shape = (rng.randint(1, 6), rng.randint(1, 5))
    if rng.random() < 0.1:
        return _matrix(np.zeros(shape).tolist())

    def entry():
        if rng.random() < 0.03:
            return 1.0
        return rng.choice((0.0, rng.random(), rng.random() * 0.05))

    return _matrix([[entry() for _ in range(shape[1])] for _ in range(shape[0])])


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_monte_carlo_equals_the_serial_stream(monkeypatch, cpus):
    monkeypatch.setattr(compose, "_usable_cpus", lambda: cpus)
    rng = random.Random(8000 + cpus)
    cases = [(_matrix([[0.0]]), 7, 1), (_matrix([[1.0]]), 5, 3), (_matrix([[0.2, 0.0, 0.7]]), 2, 1),
             (_matrix([[0.1], [0.3]]), 1, 1 << 13), (_matrix([[0.1, 0.02], [0.3, 0.0]]), 20_000, 1 << 13)]
    while len(cases) < 200:
        trials = rng.choice((1, 2, rng.randint(1, 50), rng.randint(100, 5000)))
        chunk = rng.choice((1, rng.randint(1, 64), rng.randint(65, 3000)))
        cases.append((_mc_sweep_matrix(rng), trials, chunk))
    for i, (matrix, trials, chunk) in enumerate(cases):
        seed = rng.randrange(2**32)
        mc = monte_carlo_risk(matrix, trials, seed=seed, chunk=chunk)
        want = serial_monte_carlo_failures(matrix, trials, seed)
        assert mc.failures == want, (i, matrix.values.tolist(), trials, seed, chunk)
        assert (mc.trials, mc.seed, mc.estimate) == (trials, seed, want / trials)


def test_monte_carlo_golden_counts(left_report):
    golden = {0: 379665, 7: 378525, 42: 379012}
    got = {s: monte_carlo_risk(left_report.matrix, 1_000_000, seed=s).failures for s in golden}
    assert got == golden


def test_monte_carlo_result_is_plain_data():
    r = MonteCarloResult(0.5, 0.01, 100, 3, 50)
    assert r.estimate == 0.5 and r.seed == 3
