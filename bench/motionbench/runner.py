"""Run one workload: generate inputs, set up, time a closed loop, check outputs.

The loop is one client in one process with no threads: it sends the next
request only when the previous one has returned.  Latency is measured per
request; outputs are checked after the timed loop, so checking costs no
measured time.  With tracing on, the run is split in two halves, untraced
then traced, so the tracing overhead comes out of the same run.
"""

from __future__ import annotations

import json
import pathlib
import resource
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import inputs, tracing
from .workloads import WORKLOADS, Library, Workload

# Set-up is repeated at least SETUPS_MIN times and until SETUP_SECONDS have
# been spent, so that millisecond set-ups get a steady median too.
SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 3, 50, 1.5
REFERENCE_SEED = 0
TAIL_BEYOND = 10

# (name, unit, better) of every metric, in the order they are printed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("tether.advance_tether.calls", "calls/req", "lower"),
    ("tether.advance_tether.s", "s/req", "lower"),
    ("tether.tether_for_prefix.calls", "calls/req", "lower"),
    ("tether.advances_per_state", "ratio", "lower"),
    ("tether.request_share", "share", "lower"),
    ("grid_geometry.segment_blocked.calls", "calls/req", "lower"),
    ("grid_geometry.segment_blocked.s", "s/req", "lower"),
    ("grid_geometry.point_in_closed_triangle.calls", "calls/req", "lower"),
    ("grid_geometry.point_in_closed_triangle.s", "s/req", "lower"),
    ("grid_geometry.segment_enters_cell_f.calls", "calls/req", "lower"),
    ("world.visibility_fraction.calls", "calls/req", "lower"),
    ("world.visibility_fraction.s", "s/req", "lower"),
    ("world.visibility_fraction.request_share", "share", "lower"),
    ("world.visibility_cache_hit_ratio", "ratio", "higher"),
    ("world.load_map.s", "s/req", "lower"),
    ("world.distance_transform.s", "s/req", "lower"),
    ("world.validate_path.s", "s/req", "lower"),
    ("elements.evaluate.locale.calls", "calls/req", "lower"),
    ("elements.evaluate.locale.s", "s/req", "lower"),
    ("elements.evaluate.action.calls", "calls/req", "lower"),
    ("elements.evaluate.action.s", "s/req", "lower"),
    ("elements.evaluate.traverse.calls", "calls/req", "lower"),
    ("elements.evaluate.traverse.s", "s/req", "lower"),
    ("planner.plan_min_risk.s", "s/req", "lower"),
    ("planner.plan_min_risk.self_s", "s/req", "lower"),
    ("planner.advance_tether_per_plan", "calls/plan", "lower"),
    ("compose.evaluate_risk_matrix.self_s", "s/req", "lower"),
    ("compose.evaluate_path.self_s", "s/req", "lower"),
    ("compose.additive_path_cost.s", "s/req", "lower"),
    ("compose.monte_carlo_risk.s", "s/req", "lower"),
    ("compose.monte_carlo_risk.request_share", "share", "higher"),
    ("cli.main.self_s", "s/req", "lower"),
    ("plan_excess_risk", "probability", "lower"),
    ("trace.request_s", "s/req", "lower"),
    ("trace.requests_per_s", "1/s", "higher"),
    ("trace.untraced_requests_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class Loop(object):
    """Latencies and outputs of one timed closed loop."""

    def __init__(self, latencies: List[float], outputs: List[Tuple[int, object]], wall: float):
        self.latencies = latencies
        self.outputs = outputs
        self.wall = wall

    @property
    def requests_per_s(self) -> float:
        return len(self.latencies) / self.wall


def timed_loop(work: Workload, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Loop:
    """Send requests back to back until `seconds` have passed; at least one is sent.

    Requests cycle over the inputs in order, except that the first
    `work.lead` inputs are sent once, at the start of the run.
    """
    clock = time.perf_counter
    count, lead = work.count(), work.lead
    latencies: List[float] = []
    outputs: List[Tuple[int, object]] = []
    t_begin = clock()
    deadline = t_begin + seconds
    i = 0
    while True:
        key = i if i < count else lead + (i - lead) % (count - lead)
        span = tracer.open(tracing.REQUEST) if tracer else None
        t0 = clock()
        try:
            out = work.request(key)
        except Exception as exc:  # a failed request is counted, not fatal
            out = exc
        t1 = clock()
        if tracer:
            tracer.close(span)
        latencies.append(t1 - t0)
        outputs.append((key, out))
        i += 1
        if t1 >= deadline:
            return Loop(latencies, outputs, t1 - t_begin)


def tail(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and its value.

    That is the (n - TAIL_BEYOND)-th smallest sample; with too few samples it is the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(cls, mr: Library, root: pathlib.Path, manifest: dict) -> Tuple[Workload, float]:
    t0 = time.perf_counter()
    work = cls(mr, root, manifest)
    work.setup()
    return work, time.perf_counter() - t0


def layer_metrics(summary: Dict[str, Dict[str, float]], loop: Loop, work: Workload,
                  untraced: Loop) -> Dict[str, float]:
    """Per-layer metrics of a traced loop, per request where the unit says so."""
    n = len(loop.latencies)

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    request_s = get(tracing.REQUEST, "s")
    advances = get("tether.advance_tether", "calls")
    states = sum(work.tether_states(key) for key, _ in loop.outputs)
    vis_lookups = get("world.visibility_at", "calls")
    out: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if unit in ("calls/req", "s/req"):
            base, field = name.rsplit(".", 1)
            out[name] = get(base, field) / n
    out.update({
        "tether.advances_per_state": ratio(advances, states),
        "tether.request_share": ratio(get("tether.*", "s"), request_s),
        "world.visibility_fraction.request_share": ratio(get("world.visibility_fraction", "s"), request_s),
        "world.visibility_cache_hit_ratio": ratio(vis_lookups - get("world.visibility_fraction", "calls"), vis_lookups),
        "planner.advance_tether_per_plan": ratio(advances, get("planner.plan_min_risk", "calls")),
        "compose.monte_carlo_risk.request_share": ratio(get("compose.monte_carlo_risk", "s"), request_s),
        "trace.request_s": request_s / n,
        "trace.requests_per_s": loop.requests_per_s,
        "trace.untraced_requests_per_s": untraced.requests_per_s,
        "trace.overhead": ratio(untraced.requests_per_s, loop.requests_per_s),
    })
    out.update(work.extra_metrics(loop.outputs))
    out.setdefault("plan_excess_risk", 0.0)
    return {name: out[name] for name, _, _ in PER_LAYER}


def load_reference(path: pathlib.Path, workload: str, seed: int, size: str) -> Optional[dict]:
    """Reference outputs recorded from the seed commit, for the default seed only."""
    if size != "full" or seed != REFERENCE_SEED or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload)


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: pathlib.Path,
        size: str = "full", reference: Optional[dict] = None,
        trace_file: Optional[pathlib.Path] = None) -> dict:
    """Run one workload and return its result, including the human-readable notes."""
    cls = WORKLOADS[workload]
    manifest = inputs.generate(workload, seed, out_dir, size)
    mr = Library()
    notes: List[str] = [f"workload {workload}: {inputs.WHY[workload]}",
                        f"seed {seed}, size {size}, {seconds:g} s measured, trace {int(trace)}"]
    if not trace:
        setups: List[float] = []
        while len(setups) < SETUPS_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUPS_MAX):
            work, dt = _setup(cls, mr, out_dir, manifest)
            setups.append(dt)
        loop = timed_loop(work, seconds)
        verdicts = work.check(loop.outputs, reference)
        pct, tail_s = tail(loop.latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "requests_per_s": loop.requests_per_s,
            "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        notes.append(f"setup_s is the median of {len(setups)} set-ups, "
                     f"{min(setups):.4f} to {max(setups):.4f} s")
        notes.append(f"latency_tail_ms is p{pct:.1f} of {len(loop.latencies)} requests "
                     f"({min(TAIL_BEYOND, len(loop.latencies))} beyond it)")
        extra = work.extra_metrics(loop.outputs)
        units = dict((n, u) for n, u, _ in END_TO_END)
    else:
        work, _ = _setup(cls, mr, out_dir, manifest)
        untraced = timed_loop(work, seconds / 2)
        verdicts = work.check(untraced.outputs, reference)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            work, _ = _setup(cls, mr, out_dir, manifest)
            mark = tracer.mark()
            loop = timed_loop(work, seconds / 2, tracer)
            summary = tracer.summary(mark)
        finally:
            restore()
        verdicts += work.check(loop.outputs, reference)
        metrics = layer_metrics(summary, loop, work, untraced)
        if trace_file is not None:
            tracer.write(trace_file)
            notes.append(f"{len(tracer.start)} spans written to {trace_file}")
        extra = {}
        units = dict((n, u) for n, u, _ in PER_LAYER)
    failures = [v for v in verdicts if v is not None]
    attempted = len(verdicts)
    notes.append(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} requests)")
    notes += [f"{k} {v:.6g}" for k, v in extra.items()]
    notes += [f"FAILED: {v}" for v in failures[:20]]
    for name, value in metrics.items():
        notes.append(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
    }
