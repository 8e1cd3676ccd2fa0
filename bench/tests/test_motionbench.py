"""Tests of the benchmark itself: metric names, output checks, self time."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from motionbench import inputs, runner, tracing  # noqa: E402
from motionbench.workloads import WORKLOADS, Library  # noqa: E402


def test_benchmark_json_lists_every_metric_and_workload():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(inputs.WHY.items())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(runner.PER_LAYER)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in runner.END_TO_END}
    for name, unit, _ in runner.END_TO_END:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_ratio 0 ") for line in lines)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    result = runner.run(workload, 3, 0.2, True, tmp_path / "in", size="tiny",
                        trace_file=tmp_path / "trace.npz")
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in runner.PER_LAYER]
    saved = np.load(tmp_path / "trace.npz")
    assert len(saved["start"]) == len(saved["parent"]) > 0
    # The tracer is gone again once the run returns.
    import motionrisk.grid_geometry
    import motionrisk.tether
    assert motionrisk.tether.segment_blocked is motionrisk.grid_geometry.segment_blocked


# Each tamper makes one reference value wrong in a way its check must catch.
TAMPER = {
    "eval_tether": lambda ref: ref.__setitem__("0", ref["0"] * (1 + 1e-9)),
    "compare_cold": lambda ref: ref["0"].__setitem__("risk_ranking", ref["0"]["risk_ranking"][::-1]),
    "plan_courtyard": lambda ref: ref["0"].__setitem__("path", ref["0"]["path"][::-1]),
    "simulate_mc": lambda ref: ref["0"].__setitem__("estimate", ref["0"]["estimate"] + 1e-6),
}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_a_wrong_reference_value_is_a_failure(workload, tmp_path):
    manifest = inputs.generate(workload, 3, tmp_path, "tiny")
    work = WORKLOADS[workload](Library(), tmp_path, manifest)
    work.setup()
    outputs = [(k, work.request(k)) for k in range(work.count())]
    reference = work.record(outputs)
    assert work.check(outputs, reference) == [None] * len(outputs)
    TAMPER[workload](reference)
    verdicts = work.check(outputs, reference)
    assert verdicts[0] is not None
    assert verdicts[1:] == [None] * (len(outputs) - 1)


def test_reference_file_covers_every_input_of_the_default_seed(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    assert sorted(reference) == sorted(inputs.WORKLOADS)
    for workload in inputs.WORKLOADS:
        manifest = inputs.generate(workload, runner.REFERENCE_SEED, tmp_path / workload)
        work = WORKLOADS[workload](Library(), tmp_path / workload, manifest)
        if workload == "plan_courtyard":
            count = len(json.loads((tmp_path / workload / manifest["queries"]).read_text()))
        else:
            count = len(manifest.get("walks") or manifest.get("requests") or manifest["rng_seeds"])
        assert sorted(reference[workload], key=int) == [str(k) for k in range(count)], workload
        assert work.name == workload


def test_inputs_depend_on_the_seed_only(tmp_path):
    a = inputs.generate("eval_tether", 5, tmp_path / "a", "tiny")
    b = inputs.generate("eval_tether", 5, tmp_path / "b", "tiny")
    c = inputs.generate("eval_tether", 6, tmp_path / "c", "tiny")
    read = lambda d, m: [(d / f).read_text() for f in m["maps"] + m["walks"]]  # noqa: E731
    assert read(tmp_path / "a", a) == read(tmp_path / "b", b)
    assert read(tmp_path / "a", a) != read(tmp_path / "c", c)


def test_plan_queries_lead_with_the_beam_defect(tmp_path):
    manifest = inputs.generate("plan_courtyard", 11, tmp_path)
    queries = json.loads((tmp_path / manifest["queries"]).read_text())
    start, goal, max_states = inputs.DEFECT_QUERY
    defect = {"start": list(start), "goal": list(goal), "max_states": max_states}
    assert queries[:2] == [dict(defect, mode="exhaustive"), dict(defect, mode="beam")]


def test_self_time_subtracts_children_and_leaves():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b ran 1.5 s of leaves.
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    leaf = np.array([0.0, 0.0, 0.0, 1.5])
    assert tracing.self_times(parent, start, end, leaf).tolist() == [3.0, 2.0, 1.0, 2.5]


def test_tracer_summary_on_a_scripted_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.leaf(lambda: None, "grid_geometry.segment_blocked", timed=True)
    inner = tracer.span(lambda: leaf(), "tether.advance_tether")
    outer = tracer.span(lambda: [inner(), inner()], "compose.evaluate_path")
    mark = tracer.mark()
    outer()
    s = tracer.summary(mark)
    # Ticks: outer opens 0; inner opens 1, leaf 2-3, inner closes 4; again 5..8; outer closes 9.
    assert s["compose.evaluate_path"] == {"calls": 1.0, "s": 9.0, "self_s": 3.0}
    assert s["tether.advance_tether"] == {"calls": 2.0, "s": 6.0, "self_s": 4.0}
    assert s["grid_geometry.segment_blocked"]["calls"] == 2.0
    assert s["tether.*"]["s"] == 6.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert runner.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert runner.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_lead_inputs_are_sent_once_at_the_start_of_a_run():
    class Echo(object):
        lead = 2

        def count(self):
            return 5

        def request(self, key):
            return key

    keys = [key for key, _ in runner.timed_loop(Echo(), 0.01).outputs]
    assert keys[:7] == [0, 1, 2, 3, 4, 2, 3]
    assert 0 not in keys[2:] and 1 not in keys[2:]


def test_install_patches_every_lookup_site_and_restores():
    import motionrisk.grid_geometry as gg
    import motionrisk.tether as tether

    original = gg.segment_blocked
    restore = tracing.install(tracing.Tracer())
    try:
        assert tether.segment_blocked is not original
        assert gg.segment_blocked is tether.segment_blocked
    finally:
        restore()
    assert tether.segment_blocked is original and gg.segment_blocked is original
