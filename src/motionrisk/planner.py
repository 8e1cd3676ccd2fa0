"""Planning: minimize full-history path risk, or the additive locale baseline.

Path risk is history-dependent (tether elements see the whole prefix), so the
principle of optimality fails and the risk planner cannot merge prefixes by
state like Dijkstra.  Risk still never falls as a prefix grows, so the
exhaustive mode is a uniform-cost search over prefixes instead of states: the
first goal prefix it pops is optimal.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
        if not (math.isfinite(self.r_c) and self.r_c > 0):
            raise ValueError(f"r_c must be a finite number above 0, got {self.r_c}")
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


def _moves_and_reach(grid: GridMap, r_c: float) -> Tuple[List[Tuple[int, int]], int]:
    """moves_within(r_c) and its per-axis reach, with r_c capped at the grid's
    diagonal: no longer hop lands inside the grid, so the plans stay the same."""
    r_c = min(r_c, math.hypot(grid.n_rows - 1, grid.n_cols - 1))
    return moves_within(r_c), max(1, int(math.floor(r_c + 1e-9)))


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


def _risk(log_finish: float) -> float:
    return 1.0 - math.exp(log_finish)


# A prefix under search: (trail of (row, col) cells, fold carry, log finish).
Trail = Tuple[Tuple[int, int], ...]
Prefix = Tuple[Trail, object, float]
Children = Callable[[Trail, object, float], Iterator[Prefix]]


def plan_min_risk(
    grid: GridMap, elements: Sequence[RiskElement], config: SearchConfig
) -> PlanResult:
    """Find the path whose full-history risk is minimal.

    Exhaustive mode is a best-first search over prefixes.  It returns the
    minimum of (risk, length, lexicographic states) over simple paths with at
    most max_states states, so ties fall to shorter, then lexicographically
    smaller paths.  Its memory grows with the frontier of open prefixes.
    Beam mode keeps the best beam_width prefixes per length instead.
    """
    for s in (config.start, config.goal):
        if not grid.is_viable(s.row, s.col):
            return PlanResult(False, None, None, f"endpoint ({s.row}, {s.col}) is not viable")
    fold = RowFold(grid, elements)
    moves, reach = _moves_and_reach(grid, config.r_c)

    def children(trail: Trail, carry, log_finish: float) -> Iterator[Prefix]:
        """Every simple one-step extension that can still reach the goal in time."""
        budget = config.max_states - len(trail)
        if budget < 1:
            return
        for nxt in _neighbors(grid, State(*trail[-1]), moves):
            cell = nxt.as_tuple()
            if cell in trail or 1 + _steps_lower_bound(nxt, config.goal, reach) > budget:
                continue
            new_carry, row = fold.step(carry, nxt)
            yield trail + (cell,), new_carry, log_finish + _row_log_finish(row)

    carry0, row0 = fold.start(config.start)
    root = ((config.start.as_tuple(),), carry0, _row_log_finish(row0))
    goal = config.goal.as_tuple()
    if config.mode == "beam":
        trail = _beam(root, children, goal, config.beam_width)
        reason = "beam search found no path within max_states"
    else:
        trail = _best_first(root, children, goal)
        reason = "no path to the goal within max_states"
    if trail is None:
        return PlanResult(False, None, None, reason)
    path = Path(tuple(State(*cell) for cell in trail), r_c=config.r_c)
    return PlanResult(True, path, evaluate_path(grid, path, elements).risk)


def _best_first(root: Prefix, children: Children, goal: Tuple[int, int]) -> Optional[Trail]:
    """Uniform-cost search over prefixes, keyed (risk, length, trail).

    Appending a state multiplies the finish probability by a factor in
    [0, 1], so risk never falls as a prefix grows, and a longer prefix sorts
    after its own prefixes.  The first goal prefix popped is therefore the
    minimum of the key over all goal paths, ties included.  A simple path
    cannot revisit the goal, so goal prefixes are never extended, and a child
    strictly riskier than a goal prefix already pushed cannot win, so it is
    not pushed: the frontier holds only prefixes that may still win.
    """
    heap = [(_risk(root[2]), 1) + root]
    goal_risk = math.inf  # of the cheapest goal prefix pushed so far
    while heap:
        _, _, trail, carry, log_finish = heapq.heappop(heap)
        if trail[-1] == goal:
            return trail
        for child in children(trail, carry, log_finish):
            risk = _risk(child[2])
            if risk > goal_risk:
                continue
            if child[0][-1] == goal:
                goal_risk = risk
            heapq.heappush(heap, (risk, len(child[0])) + child)
    return None


def _beam(
    root: Prefix, children: Children, goal: Tuple[int, int], width: int
) -> Optional[Trail]:
    """Length-layered beam: keep the width lowest-risk prefixes per length."""
    frontier = [root]
    done: List[Tuple] = []
    while frontier:
        grown = []
        for trail, carry, log_finish in frontier:
            if trail[-1] == goal:
                done.append((_risk(log_finish), len(trail), trail))
                continue  # a simple path cannot revisit the goal
            grown.extend(children(trail, carry, log_finish))
        grown.sort(key=lambda p: (-p[2], len(p[0]), p[0]))
        frontier = grown[:width]
    return min(done)[2] if done else None


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

    moves, reach = _moves_and_reach(grid, config.r_c)
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
