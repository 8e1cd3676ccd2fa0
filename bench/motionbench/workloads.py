"""The four workloads: set-up, one request, and the checks on its outputs.

Each workload reads the files the generator wrote and calls motionrisk
through module attributes (``mr.compose.evaluate_path``), so a traced run
sees every call.  A request returns plain data; `check` turns the outputs of
a run into one verdict per request (None when it passed), and `record` turns
them into the reference that later runs of the same seed must reproduce.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import math
import pathlib
from typing import Dict, List, Optional, Sequence, Tuple

REL_TOL = 1e-12
MC_SIGMAS = 5.0


class Library(object):
    """The motionrisk modules, looked up by attribute at call time."""

    def __init__(self):
        for name in ("world", "elements", "tether", "compose", "planner", "cli"):
            setattr(self, name, importlib.import_module(f"motionrisk.{name}"))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _risk_ok(r) -> bool:
    return isinstance(r, float) and math.isfinite(r) and 0.0 <= r <= 1.0


class Workload(object):
    """One workload over the inputs in `root`, described by `manifest`."""

    name = ""
    # Inputs sent once, at the start of a run; the loop then cycles over the rest.
    lead = 0

    def __init__(self, mr: Library, root: pathlib.Path, manifest: dict):
        self.mr = mr
        self.root = root
        self.manifest = manifest

    def read(self, name: str) -> str:
        return (self.root / name).read_text()

    def parse_path(self, name: str):
        return self.mr.cli.parse_path_text(self.read(name))

    def setup(self) -> None:
        """Load inputs and warm caches; timed as set-up."""
        raise NotImplementedError

    def count(self) -> int:
        """Distinct requests; request i of a run uses input i % count()."""
        raise NotImplementedError

    def request(self, key: int):
        raise NotImplementedError

    def tether_states(self, key: int) -> int:
        """States evaluated by request `key` times tether elements (0 if not a path evaluation)."""
        return 0

    def check(self, outputs: Sequence[Tuple[int, object]], reference: Optional[dict]) -> List[Optional[str]]:
        """One verdict per (key, output): None, or why the output is wrong."""
        first: Dict[int, object] = {}
        verdicts = []
        for key, out in outputs:
            if isinstance(out, BaseException):
                verdicts.append(f"request {key} raised {type(out).__name__}: {out}")
                continue
            problem = self.check_one(key, out)
            if problem is None and reference is not None:
                ref = reference.get(str(key))
                problem = f"request {key} has no reference" if ref is None else self.compare(key, out, ref)
            if problem is None and key in first and first[key] != out:
                problem = f"request {key} gave a different output on a repeat"
            first.setdefault(key, out)
            verdicts.append(problem)
        return verdicts

    def check_one(self, key: int, out) -> Optional[str]:
        raise NotImplementedError

    def compare(self, key: int, out, ref) -> Optional[str]:
        raise NotImplementedError

    def record(self, outputs: Sequence[Tuple[int, object]]) -> dict:
        return {str(key): copy.deepcopy(self.as_reference(out)) for key, out in outputs}

    def as_reference(self, out):
        return out

    def extra_metrics(self, outputs: Sequence[Tuple[int, object]]) -> Dict[str, float]:
        return {}


class EvalTether(Workload):
    name = "eval_tether"

    def setup(self) -> None:
        mr = self.mr
        grids = [mr.world.load_map(self.read(name)) for name in self.manifest["maps"]]
        self.elements = mr.elements.load_elements(self.read(self.manifest["config"]))
        self.walks = [self.parse_path(name) for name in self.manifest["walks"]]
        self.grids = [grids[m] for m in self.manifest["walk_maps"]]
        locale = [e for e in self.elements if e.category is mr.elements.RiskCategory.LOCALE]
        self.n_tether = sum(e.category is mr.elements.RiskCategory.TRAVERSE for e in self.elements)
        # Warm-up: distance field and visibility of every visited cell, and the
        # tether's obstacle caches, so requests see warm caches.
        for grid, walk in zip(self.grids, self.walks):
            mr.compose.evaluate_path(grid, walk, locale)
            mr.compose.evaluate_path(grid, walk.prefix(1), self.elements)

    def count(self) -> int:
        return len(self.walks)

    def request(self, key: int) -> float:
        return self.mr.compose.evaluate_path(self.grids[key], self.walks[key], self.elements).risk

    def tether_states(self, key: int) -> int:
        return len(self.walks[key]) * self.n_tether

    def check_one(self, key, risk):
        return None if _risk_ok(risk) else f"walk {key}: risk {risk!r} is not in [0, 1]"

    def compare(self, key, risk, ref):
        return None if _close(risk, ref) else f"walk {key}: risk {risk!r}, reference {ref!r}"


class CompareCold(Workload):
    name = "compare_cold"

    def setup(self) -> None:
        config = str(self.root / self.manifest["config"])
        self.argvs = []
        for req in self.manifest["requests"]:
            argv = ["compare", "--map", str(self.root / req["map"]), "--config", config]
            for p in req["paths"]:
                argv += ["--path", str(self.root / p)]
            self.argvs.append(argv + ["--format", "json"])
        self.request(0)  # warm-up: imports, argparse and numpy paths

    def count(self) -> int:
        return len(self.argvs)

    def request(self, key: int) -> Tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mr.cli.main(self.argvs[key])
        return code, out.getvalue() + err.getvalue()

    def _payload(self, out):
        code, text = out
        if code != 0:
            raise ValueError(f"exit code {code}: {text.strip()[:200]}")
        doc = json.loads(text)
        # Path names are the files passed in; keep them relative to the inputs.
        prefix = str(self.root) + "/"
        strip = lambda name: name[len(prefix):] if name.startswith(prefix) else name  # noqa: E731
        for entry in doc["paths"]:
            entry["name"] = strip(entry["name"])
        for key in ("risk_ranking", "additive_ranking"):
            doc[key] = [strip(n) for n in doc[key]]
        return doc

    def check_one(self, key, out):
        try:
            doc = self._payload(out)
        except (ValueError, KeyError, TypeError) as exc:
            return f"map {key}: {exc}"
        names = sorted(e["name"] for e in doc["paths"])
        if sorted(doc["risk_ranking"]) != names or sorted(doc["additive_ranking"]) != names:
            return f"map {key}: rankings are not permutations of the paths"
        if not all(_risk_ok(float(e["risk"])) for e in doc["paths"]):
            return f"map {key}: a risk is outside [0, 1]"
        if doc["rankings_agree"] != (doc["risk_ranking"] == doc["additive_ranking"]):
            return f"map {key}: rankings_agree contradicts the rankings"
        return None

    def compare(self, key, out, ref):
        doc = self._payload(out)
        for k in ("risk_ranking", "additive_ranking", "rankings_agree"):
            if doc[k] != ref[k]:
                return f"map {key}: {k} is {doc[k]!r}, reference {ref[k]!r}"
        if len(doc["paths"]) != len(ref["paths"]):
            return f"map {key}: {len(doc['paths'])} paths, reference {len(ref['paths'])}"
        for got, want in zip(doc["paths"], ref["paths"]):
            for k in ("risk", "finish_prob", "additive_cost"):
                if got["name"] != want["name"] or not _close(float(got[k]), float(want[k])):
                    return f"map {key}: {got['name']} {k} {got[k]!r}, reference {want[k]!r}"
        return None

    def as_reference(self, out):
        return self._payload(out)


class PlanCourtyard(Workload):
    name = "plan_courtyard"
    # The beam-defect triple, planned both ways, leads every run once: its
    # exhaustive plan costs as much as fifty others, and repeating it with
    # each pass would make the tail depend on how many passes a run made.
    lead = 2

    def setup(self) -> None:
        mr = self.mr
        State = mr.world.State
        self.grid = mr.world.load_map(self.read(self.manifest["map"]))
        self.elements = mr.elements.load_elements(self.read(self.manifest["config"]))
        self.queries = json.loads(self.read(self.manifest["queries"]))
        self.configs = [
            mr.planner.SearchConfig(State(*q["start"]), State(*q["goal"]),
                                    max_states=q["max_states"], mode=q["mode"])
            for q in self.queries
        ]
        for mode in ("exhaustive", "beam"):  # warm-up: the cheapest crossing
            mr.planner.plan_min_risk(
                self.grid, self.elements,
                mr.planner.SearchConfig(State(2, 2), State(9, 10), max_states=9, mode=mode))
        self._exact: Dict[tuple, float] = {}

    def count(self) -> int:
        return len(self.configs)

    def request(self, key: int):
        res = self.mr.planner.plan_min_risk(self.grid, self.elements, self.configs[key])
        path = [list(s.as_tuple()) for s in res.path] if res.feasible else None
        return {"feasible": res.feasible, "path": path, "risk": res.risk}

    def _evaluated(self, path) -> float:
        key = tuple(map(tuple, path))
        if key not in self._exact:
            mr = self.mr
            p = mr.world.Path(tuple(mr.world.State(r, c) for r, c in path))
            self._exact[key] = mr.compose.evaluate_path(self.grid, p, self.elements).risk
        return self._exact[key]

    def check_one(self, key, out):
        q = self.queries[key]
        if not out["feasible"]:
            return f"query {key}: no plan"
        path, risk = out["path"], out["risk"]
        if path[0] != q["start"] or path[-1] != q["goal"] or len(path) > q["max_states"]:
            return f"query {key}: plan does not join start to goal within max_states"
        if not _risk_ok(risk) or not _close(risk, self._evaluated(path)):
            return f"query {key}: plan risk {risk!r} is not evaluate_path of its path"
        return None

    def check(self, outputs, reference):
        verdicts = super().check(outputs, reference)
        best = self._by_triple(outputs)
        for i, (key, out) in enumerate(outputs):
            pair = best.get(self._triple(key), {})
            if verdicts[i] is None and len(pair) == 2 and pair["beam"] < pair["exhaustive"] * (1 - REL_TOL):
                verdicts[i] = f"query {key}: beam risk {pair['beam']!r} beats exhaustive {pair['exhaustive']!r}"
        return verdicts

    def compare(self, key, out, ref):
        if out["path"] != ref["path"] or not _close(out["risk"], ref["risk"]):
            return f"query {key}: plan {out['path']} risk {out['risk']!r}, reference {ref['path']} {ref['risk']!r}"
        return None

    def _triple(self, key: int):
        q = self.queries[key]
        return (tuple(q["start"]), tuple(q["goal"]), q["max_states"])

    def _by_triple(self, outputs) -> Dict[tuple, Dict[str, float]]:
        best: Dict[tuple, Dict[str, float]] = {}
        for key, out in outputs:
            if isinstance(out, dict) and out.get("feasible"):
                best.setdefault(self._triple(key), {})[self.queries[key]["mode"]] = out["risk"]
        return best

    def extra_metrics(self, outputs):
        """plan_excess_risk: mean beam minus exhaustive risk over triples planned both ways."""
        gaps = [p["beam"] - p["exhaustive"] for p in self._by_triple(outputs).values() if len(p) == 2]
        return {"plan_excess_risk": sum(gaps) / len(gaps) if gaps else 0.0}


class SimulateMC(Workload):
    name = "simulate_mc"

    def setup(self) -> None:
        mr = self.mr
        grid = mr.world.load_map(self.read(self.manifest["map"]))
        elements = mr.elements.load_elements(self.read(self.manifest["config"]))
        report = mr.compose.evaluate_path(grid, self.parse_path(self.manifest["path"]), elements)
        self.matrix, self.exact = report.matrix, report.risk
        self.seeds = self.manifest["rng_seeds"]
        self.trials = self.manifest["trials"]
        self.request(0)  # warm-up

    def count(self) -> int:
        return len(self.seeds)

    def request(self, key: int):
        mc = self.mr.compose.monte_carlo_risk(self.matrix, trials=self.trials, seed=self.seeds[key])
        return {"estimate": mc.estimate, "stderr": mc.stderr}

    def check_one(self, key, out):
        est, se = out["estimate"], out["stderr"]
        if not _risk_ok(est) or abs(est - self.exact) > MC_SIGMAS * se:
            return f"seed {key}: estimate {est!r} is not within {MC_SIGMAS} standard errors of {self.exact!r}"
        return None

    def compare(self, key, out, ref):
        return None if _close(out["estimate"], ref["estimate"]) else (
            f"seed {key}: estimate {out['estimate']!r}, reference {ref['estimate']!r}")


WORKLOADS = {w.name: w for w in (EvalTether, CompareCold, PlanCourtyard, SimulateMC)}
