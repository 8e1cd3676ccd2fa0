"""Planning: minimize full-history path risk, or the additive locale baseline.

Path risk is history-dependent (tether elements see the whole prefix), so the
principle of optimality fails and the risk planner cannot relax per-state like
Dijkstra.  The exhaustive mode walks all simple paths with a monotone bound:
a prefix already riskier than the incumbent can never improve by growing.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .compose import RowFold, evaluate_path
from .elements import RiskCategory, RiskElement
from .world import GridMap, Path, State


@dataclass(frozen=True)
class SearchConfig(object):
    """What to plan: endpoints, step radius, size cap, and search mode."""

    start: State
    goal: State
    r_c: float = 1.5
    max_states: int = 32
    mode: str = "exhaustive"  # or "beam"
    beam_width: int = 64

    def __post_init__(self):
        if self.mode not in ("exhaustive", "beam"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")


@dataclass(frozen=True)
class PlanResult(object):
    feasible: bool
    path: Optional[Path]
    risk: Optional[float]
    reason: str = ""


def moves_within(r_c: float) -> List[Tuple[int, int]]:
    """Integer displacements reachable in one step, sorted for determinism."""
    reach = int(math.floor(r_c + 1e-9))
    out = []
    for dr in range(-reach, reach + 1):
        for dc in range(-reach, reach + 1):
            if (dr, dc) != (0, 0) and math.hypot(dr, dc) <= r_c + 1e-12:
                out.append((dr, dc))
    return sorted(out)


def _row_log_finish(row: Sequence[float]) -> float:
    total = 0.0
    for r in row:
        if r >= 1.0:
            return -math.inf
        total += math.log1p(-r)
    return total


def _neighbors(grid: GridMap, s: State, moves) -> List[State]:
    out = []
    for dr, dc in moves:
        r, c = s.row + dr, s.col + dc
        if grid.is_viable(r, c):
            out.append(State(r, c))
    return out


def _steps_lower_bound(a: State, b: State, reach: int) -> int:
    """Minimum number of moves between two states: Chebyshev distance over
    the per-axis reach.  Admissible, so pruning with it never loses paths."""
    cheby = max(abs(a.row - b.row), abs(a.col - b.col))
    return -(-cheby // reach)


def plan_min_risk(
    grid: GridMap, elements: Sequence[RiskElement], config: SearchConfig
) -> PlanResult:
    """Find the path whose full-history risk is minimal.

    Exhaustive mode guarantees the optimum over simple paths with at most
    max_states states; ties fall to shorter, then lexicographically smaller
    paths.  Beam mode keeps the best beam_width prefixes per length instead.
    """
    for s in (config.start, config.goal):
        if not grid.is_viable(s.row, s.col):
            return PlanResult(False, None, None, f"endpoint ({s.row}, {s.col}) is not viable")
    if config.mode == "beam":
        return _plan_beam(grid, elements, config)
    fold = RowFold(grid, elements)
    moves = moves_within(config.r_c)
    reach = max(1, int(math.floor(config.r_c + 1e-9)))
    carry0, row0 = fold.start(config.start)
    best: List[Optional[Tuple]] = [None]  # (risk, length, states, log_finish)

    def consider(states: Tuple[State, ...], log_finish: float):
        risk = 1.0 - math.exp(log_finish) if log_finish > -math.inf else 1.0
        key = (risk, len(states), tuple(s.as_tuple() for s in states))
        if best[0] is None or key < best[0][:3]:
            best[0] = key + (log_finish,)

    def dfs(states: Tuple[State, ...], carry, log_finish: float, visited):
        # Appending states can only shrink the finish probability, so a prefix
        # already strictly riskier than the incumbent is hopeless.  Equal-risk
        # prefixes survive: they may still win a tie on length or order.
        if best[0] is not None and log_finish < best[0][3]:
            return
        if states[-1] == config.goal:
            # A simple path can never come back, so stop extending here.
            consider(states, log_finish)
            return
        budget = config.max_states - len(states)
        if budget < 1:
            return
        for nxt in _neighbors(grid, states[-1], moves):
            if nxt in visited:
                continue
            if 1 + _steps_lower_bound(nxt, config.goal, reach) > budget:
                continue
            new_carry, row = fold.step(carry, nxt)
            new_log = log_finish + _row_log_finish(row)
            visited.add(nxt)
            dfs(states + (nxt,), new_carry, new_log, visited)
            visited.remove(nxt)

    if _steps_lower_bound(config.start, config.goal, reach) <= config.max_states - 1:
        dfs((config.start,), carry0, _row_log_finish(row0), {config.start})
    if best[0] is None:
        return PlanResult(False, None, None, "no path to the goal within max_states")
    path = Path(tuple(State(r, c) for r, c in best[0][2]), r_c=config.r_c)
    report = evaluate_path(grid, path, elements)
    return PlanResult(True, path, report.risk)


def _plan_beam(
    grid: GridMap, elements: Sequence[RiskElement], config: SearchConfig
) -> PlanResult:
    fold = RowFold(grid, elements)
    moves = moves_within(config.r_c)
    reach = max(1, int(math.floor(config.r_c + 1e-9)))
    carry0, row0 = fold.start(config.start)
    # Beam entries: (state tuple, fold carry, log_finish); completed kept aside.
    frontier = [((config.start,), carry0, _row_log_finish(row0))]
    done: List[Tuple] = []

    def key(entry):
        states, _, log_finish = entry
        return (-log_finish, len(states), tuple(s.as_tuple() for s in states))

    while frontier:
        grown = []
        for states, carry, log_finish in frontier:
            if states[-1] == config.goal:
                done.append((1.0 - math.exp(log_finish), len(states),
                             tuple(s.as_tuple() for s in states)))
                continue  # a simple path cannot revisit the goal
            budget = config.max_states - len(states)
            if budget < 1:
                continue
            for nxt in _neighbors(grid, states[-1], moves):
                if nxt in states:
                    continue
                # Keep only prefixes that can still reach the goal in time.
                if 1 + _steps_lower_bound(nxt, config.goal, reach) > budget:
                    continue
                new_carry, row = fold.step(carry, nxt)
                grown.append((states + (nxt,), new_carry, log_finish + _row_log_finish(row)))
        grown.sort(key=key)
        frontier = grown[: config.beam_width]
    if not done:
        return PlanResult(False, None, None, "beam search found no path within max_states")
    risk, _, states = min(done)
    path = Path(tuple(State(r, c) for r, c in states), r_c=config.r_c)
    report = evaluate_path(grid, path, elements)
    return PlanResult(True, path, report.risk)


def plan_additive_baseline(
    grid: GridMap,
    elements: Sequence[RiskElement],
    config: SearchConfig,
    weights: Optional[Dict[str, float]] = None,
) -> PlanResult:
    """Minimize the summed locale cost with uniform-cost search.

    Additivity makes the per-state cost history-free, so a layered Dijkstra
    over (state, steps-used) is exact, max_states cap included.
    """
    locale = [e for e in elements if e.category is RiskCategory.LOCALE]
    if not locale:
        return PlanResult(False, None, None, "additive baseline needs at least one locale element")
    for s in (config.start, config.goal):
        if not grid.is_viable(s.row, s.col):
            return PlanResult(False, None, None, f"endpoint ({s.row}, {s.col}) is not viable")
    w = {e.name: 1.0 for e in locale}
    if weights:
        for name, value in weights.items():
            if value < 0:
                return PlanResult(False, None, None, "weights must be non-negative")
            if name in w:
                w[name] = float(value)
    cost_cache: Dict[State, float] = {}

    def state_cost(s: State) -> float:
        if s not in cost_cache:
            cost_cache[s] = sum(w[e.name] * e.evaluate(grid, (s,)) for e in locale)
        return cost_cache[s]

    moves = moves_within(config.r_c)
    reach = max(1, int(math.floor(config.r_c + 1e-9)))
    heap = [(state_cost(config.start), 1, (config.start.as_tuple(),), config.start)]
    seen = set()
    while heap:
        cost, used, trail, s = heapq.heappop(heap)
        if (s, used) in seen:
            continue
        seen.add((s, used))
        if s == config.goal:
            path = Path(tuple(State(r, c) for r, c in trail), r_c=config.r_c)
            return PlanResult(True, path, cost)
        budget = config.max_states - used
        for nxt in _neighbors(grid, s, moves):
            if nxt.as_tuple() in trail:
                continue
            if 1 + _steps_lower_bound(nxt, config.goal, reach) > budget:
                continue
            heapq.heappush(
                heap, (cost + state_cost(nxt), used + 1, trail + (nxt.as_tuple(),), nxt)
            )
    return PlanResult(False, None, None, "no path to the goal within max_states")
