"""Span tracing of motionrisk from outside the library.

The tracer replaces each public function named in SPANS with a wrapper that
records a span (name, start, end, parent) every call, and each function in
LEAVES with a wrapper that only counts calls and, where asked, adds up their
time.  Leaves are the hot geometry tests: a span per call would cost more
than the test itself.  Spans live in flat arrays in memory and are written out
once, when the run ends.

A function is patched at every name it is looked up under, since
``motionrisk.tether.segment_blocked`` and ``motionrisk.grid_geometry.
segment_blocked`` are separate bindings of one function.  Install the tracer
before ``load_elements``: tether elements bind ``tether_for_prefix`` when
they are built.
"""

from __future__ import annotations

import importlib
import pathlib
import time
from array import array
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

MODULES = ("world", "grid_geometry", "elements", "tether", "compose", "planner", "cli")

# Span name -> (defining module, attribute).  "elements.evaluate" gets its
# category appended, e.g. "elements.evaluate.traverse".
SPANS = {
    "world.load_map": ("world", "load_map"),
    "world.distance_transform": ("world", "distance_transform"),
    "world.visibility_fraction": ("world", "visibility_fraction"),
    "world.validate_path": ("world", "validate_path"),
    "elements.evaluate": ("elements", "RiskElement.evaluate"),
    "tether.start_tether": ("tether", "start_tether"),
    "tether.advance_tether": ("tether", "advance_tether"),
    "tether.tether_for_prefix": ("tether", "tether_for_prefix"),
    "compose.evaluate_path": ("compose", "evaluate_path"),
    "compose.evaluate_risk_matrix": ("compose", "evaluate_risk_matrix"),
    "compose.additive_path_cost": ("compose", "additive_path_cost"),
    "compose.monte_carlo_risk": ("compose", "monte_carlo_risk"),
    "planner.plan_min_risk": ("planner", "plan_min_risk"),
    "cli.main": ("cli", "main"),
}

# Leaf name -> (defining module, attribute, timed).
LEAVES = {
    "grid_geometry.segment_blocked": ("grid_geometry", "segment_blocked", True),
    "grid_geometry.point_in_closed_triangle": ("grid_geometry", "point_in_closed_triangle", True),
    "grid_geometry.segment_enters_cell_f": ("grid_geometry", "segment_enters_cell_f", False),
    "world.visibility_at": ("world", "GridMap.visibility_at", False),
}

REQUEST = "request"


class Tracer(object):
    """Records spans in flat arrays; span i's parent is an index or -1."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.leaf_time = array("d")  # time of timed leaves called directly inside the span
        self.stack: List[int] = []
        self.leaves: Dict[str, List[float]] = {}  # name -> [calls, seconds]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.leaf_time.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def span(self, fn: Callable, name: Union[str, Callable[[tuple], str]]) -> Callable:
        """Wrap fn so every call is a span; `name` may compute it from the arguments."""
        open_, close = self.open, self.close
        if isinstance(name, str):
            def wrapper(*args, **kwargs):
                idx = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = open_(name(args))
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        return wrapper

    def leaf(self, fn: Callable, name: str, timed: bool) -> Callable:
        """Wrap fn to count calls and, if timed, charge their time to the open span."""
        acc = self.leaves.setdefault(name, [0, 0.0])
        clock, stack, leaf_time = self.clock, self.stack, self.leaf_time
        if not timed:
            def counter(*args, **kwargs):
                acc[0] += 1
                return fn(*args, **kwargs)
            return counter

        def timer(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += 1
                acc[1] += dt
                if stack:
                    leaf_time[stack[-1]] += dt
        return timer

    def mark(self) -> Tuple[int, Dict[str, List[float]]]:
        """Position to summarise from: span count and a copy of the leaf totals."""
        return len(self.start), {k: list(v) for k, v in self.leaves.items()}

    def summary(self, since: Tuple[int, Dict[str, List[float]]]) -> Dict[str, Dict[str, float]]:
        """Per name: calls, inclusive seconds, self seconds, for spans since a mark.

        Also "tether.*": the time of tether spans not nested in another tether span.
        """
        first, leaves0 = since
        arrays = self.arrays()
        selfs = self_times(arrays["parent"], arrays["start"], arrays["end"], arrays["leaf_time"])
        ids = arrays["name_id"][first:]
        dur = (arrays["end"] - arrays["start"])[first:]
        selfs = selfs[first:]
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=selfs, minlength=k)
        out = {
            name: {"calls": float(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }
        for name, (n, s) in self.leaves.items():
            n0, s0 = leaves0.get(name, (0, 0.0))
            out[name] = {"calls": float(n - n0), "s": s - s0, "self_s": s - s0}
        is_tether = np.array([n.startswith("tether.") for n in self.names] + [False], dtype=bool)
        parents = arrays["parent"][first:]
        outer = is_tether[ids] & ~is_tether[np.where(parents >= 0, arrays["name_id"][parents], k)]
        out["tether.*"] = {"calls": float(outer.sum()), "s": float(dur[outer].sum())}
        return out

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "leaf_time": np.frombuffer(self.leaf_time, dtype=np.float64).copy(),
        }

    def write(self, path: pathlib.Path) -> None:
        """Save every span and the leaf totals as a compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        leaves = sorted(self.leaves)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            leaf_names=np.array(leaves),
            leaf_totals=np.array([self.leaves[n] for n in leaves], dtype=float).reshape(-1, 2),
            **self.arrays(),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray,
               leaf_time: np.ndarray) -> np.ndarray:
    """Each span's duration minus its child spans' durations and its own leaf time."""
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - children - leaf_time


def _resolve(module, attr: str):
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every lookup site of the traced functions; returns the undo."""
    mods = {m: importlib.import_module(f"motionrisk.{m}") for m in MODULES}
    lookup_sites = [importlib.import_module("motionrisk")] + list(mods.values())
    undo: List[Tuple[object, str, object]] = []

    def patch(module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        owner, name = _resolve(mods[module_name], attr)
        original = getattr(owner, name)
        wrapper = make(original)
        if owner is not mods[module_name]:  # a method: patch the class
            undo.append((owner, name, original))
            setattr(owner, name, wrapper)
            return
        for site in lookup_sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    undo.append((site, key, original))
                    setattr(site, key, wrapper)

    for span_name, (module_name, attr) in SPANS.items():
        if span_name == "elements.evaluate":
            def by_category(args, _prefix=span_name):
                return f"{_prefix}.{args[0].category.value}"
            patch(module_name, attr, lambda fn: tracer.span(fn, by_category))
        else:
            patch(module_name, attr, lambda fn, n=span_name: tracer.span(fn, n))
    for leaf_name, (module_name, attr, timed) in LEAVES.items():
        patch(module_name, attr, lambda fn, n=leaf_name, t=timed: tracer.leaf(fn, n, t))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore
