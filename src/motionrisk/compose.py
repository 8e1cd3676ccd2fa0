"""Composing per-state element risks into path-level finish probabilities.

A path finishes only if every state finishes, and a state finishes only if
every element passes, with elements conditionally independent given the
traverse history.  Products of survival probabilities are evaluated in the
log domain so long paths of small risks keep full precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .elements import RiskCategory, RiskElement
from .tether import TetherState, advance_tether, start_tether
from .world import GridMap, Path, State, require_valid_path


class DomainError(ValueError):
    """Raised when probabilities leave [0, 1]."""


@dataclass(frozen=True)
class RiskMatrix(object):
    """Per-state, per-element failure probabilities for one evaluated path."""

    element_names: Tuple[str, ...]
    categories: Tuple[RiskCategory, ...]
    values: np.ndarray  # shape (n_states, n_elements)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DomainError("risk matrix must be 2D (states x elements)")
        if vals.shape[1] != len(self.element_names):
            raise DomainError("one column per element expected")
        if len(self.categories) != len(self.element_names):
            raise DomainError("one category per element expected")
        if np.any(~np.isfinite(vals)) or np.any(vals < 0.0) or np.any(vals > 1.0):
            raise DomainError("risk matrix entries must lie in [0, 1]")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.element_names.index(name)]

    def state_finish_probs(self) -> np.ndarray:
        """Per-state probability that every element passes.

        One log-domain reduction per row, as state_finish_prob makes: a row
        holding 1.0 sums to -inf and finishes with probability 0.
        """
        with np.errstate(divide="ignore"):
            return np.exp(np.log1p(-self.values).sum(axis=1))


def state_finish_prob(element_risks: Sequence[float]) -> float:
    """Probability a single state finishes: product of (1 - r_k), log-domain."""
    risks = np.asarray(element_risks, dtype=float)
    if risks.ndim != 1:
        raise DomainError("element risks must be a flat sequence")
    if np.any(~np.isfinite(risks)) or np.any(risks < 0.0) or np.any(risks > 1.0):
        raise DomainError("element risks must lie in [0, 1]")
    if np.any(risks >= 1.0):
        return 0.0
    return float(np.exp(np.log1p(-risks).sum()))


def path_finish_prob(matrix: RiskMatrix) -> float:
    """Probability the whole path finishes: product over all entries."""
    vals = matrix.values
    if np.any(vals >= 1.0):
        return 0.0
    return float(np.exp(np.log1p(-vals).sum()))


def path_risk(matrix: RiskMatrix) -> float:
    """Probability of not finishing the path."""
    return 1.0 - path_finish_prob(matrix)


Carry = Tuple[Tuple[TetherState, ...], Tuple[State, ...]]


class RowFold(object):
    """Evaluates a path one state at a time from a carried summary of its prefix.

    The carry is (tethers, recent).  `tethers` holds one TetherState per
    distinct anchor among the elements' tether readers, advanced once per
    state and read by every element with that anchor.  `recent` holds the
    states the other elements see: the widest window their categories'
    history_depth allows, or the whole prefix when one of them (a traverse
    element without a tether reader) may see it all.  RiskElement.evaluate
    cuts each category's window from it, so every entry equals evaluating the
    element on the full prefix.
    """

    def __init__(self, grid: GridMap, elements: Sequence[RiskElement]):
        self.grid = grid
        self.elements = tuple(elements)
        anchors: List[Optional[State]] = []
        slots: List[Optional[int]] = []
        for el in self.elements:
            if el.tether is None:
                slots.append(None)
                continue
            if el.tether.anchor not in anchors:
                anchors.append(el.tether.anchor)
            slots.append(anchors.index(el.tether.anchor))
        self._anchors = tuple(anchors)
        self._slots = tuple(slots)
        depths = [el.category.history_depth for el in self.elements if el.tether is None]
        # The latest states `recent` keeps, the new one included: the widest
        # window of an element that reads it, or all of them.
        self._window = slice(None) if None in depths else slice(-1 - max(depths, default=0), None)

    def start(self, s0: State) -> Tuple[Carry, List[float]]:
        tethers = tuple(start_tether(self.grid, s0, anchor=a) for a in self._anchors)
        return self._row(tethers, (s0,))

    def step(self, carry: Carry, s: State) -> Tuple[Carry, List[float]]:
        tethers, recent = carry
        tethers = tuple(advance_tether(self.grid, tet, s) for tet in tethers)
        return self._row(tethers, (recent + (s,))[self._window])

    def _row(
        self, tethers: Tuple[TetherState, ...], recent: Tuple[State, ...]
    ) -> Tuple[Carry, List[float]]:
        grid = self.grid
        row = [
            el.evaluate(grid, recent) if slot is None else el.read_tether(grid, tethers[slot])
            for el, slot in zip(self.elements, self._slots)
        ]
        return (tethers, recent), row


def evaluate_risk_matrix(
    grid: GridMap, path: Path, elements: Sequence[RiskElement]
) -> RiskMatrix:
    """Evaluate every element on every prefix of a validated path.

    Entry (i, k) sees only the history its element's category permits.  The
    rows come from one RowFold pass, so each tether is advanced once per state.
    """
    if not elements:
        raise ValueError("at least one risk element is required")
    require_valid_path(grid, path)
    fold = RowFold(grid, elements)
    carry, row = fold.start(path.states[0])
    rows = [row]
    for s in path.states[1:]:
        carry, row = fold.step(carry, s)
        rows.append(row)
    return RiskMatrix(
        element_names=tuple(e.name for e in elements),
        categories=tuple(e.category for e in elements),
        values=np.array(rows, dtype=float),
    )


@dataclass(frozen=True)
class PathRiskReport(object):
    """Everything a caller needs to present one evaluated path."""

    path: Path
    matrix: RiskMatrix
    state_finish: Tuple[float, ...]
    finish_prob: float
    risk: float


def evaluate_path(grid: GridMap, path: Path, elements: Sequence[RiskElement]) -> PathRiskReport:
    matrix = evaluate_risk_matrix(grid, path, elements)
    return PathRiskReport(
        path=path,
        matrix=matrix,
        state_finish=tuple(matrix.state_finish_probs().tolist()),
        finish_prob=path_finish_prob(matrix),
        risk=path_risk(matrix),
    )


def additive_path_cost(
    matrix: RiskMatrix,
    weights: Optional[Union[Mapping[str, float], Sequence[float]]] = None,
    normalizers: Optional[Mapping[str, Callable[[float], float]]] = None,
) -> float:
    """Conventional additive baseline: weighted sum of locale costs per state.

    Only locale columns are meaningful without history, so any other category
    is rejected.  Normalizers default to identity.
    """
    for name, cat in zip(matrix.element_names, matrix.categories):
        if cat is not RiskCategory.LOCALE:
            raise ValueError(
                f"additive baseline is locale-only; element {name!r} is {cat.value}"
            )
    if weights is None:
        w = np.ones(len(matrix.element_names))
    elif isinstance(weights, Mapping):
        w = np.array([float(weights.get(n, 1.0)) for n in matrix.element_names])
    else:
        w = np.asarray(list(weights), dtype=float)
        if w.shape != (len(matrix.element_names),):
            raise ValueError("one weight per element expected")
    if np.any(w < 0.0):
        raise ValueError("weights must be non-negative")
    vals = matrix.values
    if normalizers:
        vals = vals.copy()
        for k, name in enumerate(matrix.element_names):
            fn = normalizers.get(name)
            if fn is not None:
                vals[:, k] = [fn(v) for v in vals[:, k]]
    return float((vals * w).sum())


@dataclass(frozen=True)
class MonteCarloResult(object):
    estimate: float
    stderr: float
    trials: int
    seed: int
    failures: int


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _require_count(name: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def monte_carlo_risk(
    matrix: RiskMatrix, trials: int, seed: int, chunk: int = 1 << 13
) -> MonteCarloResult:
    """Estimate path risk by simulating Bernoulli survival per state and element.

    A trial fails when any (state, element) draw lands below its risk entry.
    Only nonzero entries consume draws.  With n nonzero entries in row-major
    order, trial t compares entry j with double t*n + j of PCG64(seed), the
    stream of numpy.random.default_rng(seed).  Trials are cut into blocks of
    `chunk` rows; each block jumps a copy of the seeded generator ahead to its
    first double (PCG64.advance, O(log n)), so blocks run on up to one thread
    per usable CPU and the failures are identical for any chunk and CPU count.
    """
    trials = _require_count("trials", trials, 1)
    seed = _require_count("seed", seed, 0)
    chunk = _require_count("chunk", chunk, 1)
    probs = matrix.values[matrix.values > 0.0]
    failures = 0
    if probs.size:
        failures = _count_failures(probs, trials, seed, chunk)
    estimate = failures / trials
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / trials))
    return MonteCarloResult(estimate, stderr, trials, seed, failures)


def _count_failures(probs: np.ndarray, trials: int, seed: int, chunk: int) -> int:
    n = probs.size
    origin = np.random.PCG64(seed).state
    starts = range(0, trials, chunk)
    workers = min(_usable_cpus(), len(starts))

    def stripe(w: int) -> int:
        # Worker w takes blocks w, w + workers, ... into one reused buffer.
        bits = np.random.PCG64(seed)
        gen = np.random.Generator(bits)
        buf = np.empty((min(chunk, trials), n))
        count = 0
        for first in starts[w::workers]:
            bits.state = origin
            bits.advance(first * n)
            draws = gen.random(out=buf[: min(chunk, trials - first)])
            hit = draws[:, 0] < probs[0]
            for j in range(1, n):
                hit |= draws[:, j] < probs[j]
            count += np.count_nonzero(hit)
        return count

    if workers == 1:
        return stripe(0)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return sum(pool.map(stripe, range(workers)))
