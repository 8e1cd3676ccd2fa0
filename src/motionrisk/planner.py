"""Planning: minimize full-history path risk, or the additive locale baseline.

Both planners run one search core, `_plan`.  Path risk is history-dependent
(tether elements see the whole prefix), so the principle of optimality fails
and the risk planner cannot merge prefixes by state like Dijkstra.  Risk still
never falls as a prefix grows, so the exhaustive mode is a uniform-cost search
over prefixes: the first goal prefix it pops is optimal.  The additive cost is
history-free, so the same search merges prefixes by (last cell, length).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .compose import RowFold, additive_path_cost, evaluate_path, evaluate_risk_matrix
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


def _logged(fold_fn):
    """A RowFold start or step that gives its row's log finish probability."""
    def term(*args):
        carry, row = fold_fn(*args)
        return carry, _row_log_finish(row)
    return term


def _steps_lower_bound(a: State, b: State, reach: int) -> int:
    """Minimum number of moves between two states: Chebyshev distance over
    the per-axis reach.  Admissible, so pruning with it never loses paths."""
    cheby = max(abs(a.row - b.row), abs(a.col - b.col))
    return -(-cheby // reach)


def _risk(log_finish: float) -> float:
    return 1.0 - math.exp(log_finish)


# A prefix under search: (trail of (row, col) cells, objective carry, value).
Trail = Tuple[Tuple[int, int], ...]
Prefix = Tuple[Trail, object, float]
Children = Callable[[Trail, object, float], Iterator[Prefix]]


def _plan(grid: GridMap, config: SearchConfig, first, step, report, search, reason) -> PlanResult:
    """Endpoint and move checks, then search(root, children, goal cell).  first(state)
    and step(carry, state) give (carry, term), a prefix's value sums its states'
    terms, and report(path) gives the plan's objective."""
    for s in (config.start, config.goal):
        if not grid.is_viable(s.row, s.col):
            return PlanResult(False, None, None, f"endpoint ({s.row}, {s.col}) is not viable")
    moves, reach = _moves_and_reach(grid, config.r_c)
    if not moves and config.start != config.goal:
        return PlanResult(False, None, None, f"r_c={config.r_c} allows no move between cells")
    table = {}  # cell -> its viable moves: (cell, State, fewest states to the goal)

    def children(trail: Trail, carry, value: float) -> Iterator[Prefix]:
        """Every simple one-step extension that can still reach the goal in time."""
        budget = config.max_states - len(trail)
        if budget < 1:
            return
        here = trail[-1]
        if here not in table:
            table[here] = []
            for dr, dc in moves:
                nxt = State(here[0] + dr, here[1] + dc)
                if grid.is_viable(nxt.row, nxt.col):
                    need = 1 + _steps_lower_bound(nxt, config.goal, reach)
                    table[here].append((nxt.as_tuple(), nxt, need))
        for cell, nxt, need in table[here]:
            if need <= budget and cell not in trail:
                new_carry, term = step(carry, nxt)
                yield trail + (cell,), new_carry, value + term

    carry0, value0 = first(config.start)
    trail = search(((config.start.as_tuple(),), carry0, value0), children, config.goal.as_tuple())
    if trail is None:
        return PlanResult(False, None, None, reason)
    path = Path(tuple(State(*cell) for cell in trail), r_c=config.r_c)
    return PlanResult(True, path, report(path))


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
    fold = RowFold(grid, elements)
    if config.mode == "beam":
        search = partial(_beam, width=config.beam_width)
        reason = "beam search found no path within max_states"
    else:
        search = partial(_best_first, key=_risk, merge=False)
        reason = "no path to the goal within max_states"
    return _plan(grid, config, _logged(fold.start), _logged(fold.step),
                 lambda path: evaluate_path(grid, path, elements).risk, search, reason)


def _best_first(root: Prefix, children: Children, goal: Tuple[int, int],
                key: Callable[[float], float], merge: bool) -> Optional[Trail]:
    """Uniform-cost search over prefixes, keyed (key(value), length, trail).

    Appending a state never lowers the key (risk, or a sum of non-negative
    costs), and a longer prefix sorts after its own prefixes, so the first goal
    prefix popped is the minimum of the key over all goal paths, ties included.
    Goal prefixes are never extended (a simple path cannot revisit the goal),
    and a child keyed above a goal prefix already pushed cannot win.  With
    `merge`, for a history-free cost only, just the first prefix popped per
    (last cell, length) is extended.
    """
    heap = [(key(root[2]), 1) + root]
    goal_key = math.inf  # of the cheapest goal prefix pushed so far
    expanded = set()  # (last cell, length) of the prefixes extended, when merging
    while heap:
        _, length, trail, carry, value = heapq.heappop(heap)
        if trail[-1] == goal:
            return trail
        if merge:
            if (trail[-1], length) in expanded:
                continue
            expanded.add((trail[-1], length))
        for child in children(trail, carry, value):
            child_key = key(child[2])
            if child_key > goal_key:
                continue
            if child[0][-1] == goal:
                goal_key = child_key
            heapq.heappush(heap, (child_key, len(child[0])) + child)
    return None


def _beam(root: Prefix, children: Children, goal: Tuple[int, int], width: int) -> Optional[Trail]:
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
    """Minimize the summed locale cost with the same best-first search.

    Additivity makes the per-state cost history-free, so prefixes are merged
    by (last cell, length): a layered Dijkstra over (state, steps-used), exact
    with the max_states cap, and with the same tie rule as plan_min_risk.
    mode and beam_width are ignored.  The reported cost is additive_path_cost
    of the plan's locale matrix, as `compare` computes it.
    """
    locale = [e for e in elements if e.category is RiskCategory.LOCALE]
    if not locale:
        return PlanResult(False, None, None, "additive baseline needs at least one locale element")
    weights = weights or {}
    if any(value < 0 for value in weights.values()):
        return PlanResult(False, None, None, "weights must be non-negative")
    w = {e.name: float(weights.get(e.name, 1.0)) for e in locale}

    @lru_cache(maxsize=None)
    def state_cost(carry: None, s: State) -> Tuple[None, float]:
        return None, sum(w[e.name] * e.evaluate(grid, (s,)) for e in locale)

    return _plan(grid, config, partial(state_cost, None), state_cost,
                 lambda path: additive_path_cost(evaluate_risk_matrix(grid, path, locale), w),
                 partial(_best_first, key=lambda cost: cost, merge=True),
                 "no path to the goal within max_states")
