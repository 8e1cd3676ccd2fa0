"""Rebuild motionbench/plan_pool.json, the query pool of the plan_courtyard workload.

Exhaustive planning cost varies twenty-fold between queries of the same
length and budget, so a plain random query list would make every seed a
different benchmark.  This script samples candidate (start, goal, max_states)
triples on the courtyard, costs each one by the number of tether advances
its exhaustive and beam plans make (a count, so the pool does not depend on
the machine), redraws any dearer than MAX_ADVANCES, and splits the sorted
candidates into equal bins.  The input generator then draws one triple per
bin, so every seed gets the same spread of query costs.

    python3 bench/make_plan_pool.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import motionrisk.planner as planner  # noqa: E402
from motionrisk import SearchConfig, State, load_elements, load_map  # noqa: E402
from motionbench import inputs  # noqa: E402

CANDIDATES = 240
BINS = 24
# Dearer candidates are redrawn: one would outweigh the rest of a run.
MAX_ADVANCES = 6000
POOL_SEED = 20190906


def main() -> None:
    grid = load_map(inputs.COURTYARD_MAP)
    elements = load_elements(inputs.COURTYARD_CONFIG)
    free = [(r, c) for r in range(grid.n_rows) for c in range(grid.n_cols) if grid.is_viable(r, c)]
    rng = random.Random(POOL_SEED)
    advances = [0]
    original = planner.advance_tether

    def counting(*args):
        advances[0] += 1
        return original(*args)

    planner.advance_tether = counting
    seen = {inputs.DEFECT_QUERY}
    costed = []
    while len(costed) < CANDIDATES:
        a, b = rng.sample(free, 2)
        span = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        if not 6 <= span <= 9:
            continue
        triple = (a, b, span + 1 + rng.randint(1, 3))
        if triple in seen:
            continue
        seen.add(triple)
        advances[0] = 0
        for mode in ("exhaustive", "beam"):
            planner.plan_min_risk(
                grid, elements,
                SearchConfig(State(*a), State(*b), max_states=triple[2], mode=mode),
            )
        if advances[0] <= MAX_ADVANCES:
            costed.append((advances[0], triple))
    planner.advance_tether = original
    costed.sort()
    size = CANDIDATES // BINS
    bins = [
        [{"start": list(a), "goal": list(b), "max_states": m, "advances": n}
         for n, (a, b, m) in costed[k * size:(k + 1) * size]]
        for k in range(BINS)
    ]
    doc = {"pool_seed": POOL_SEED, "max_advances": MAX_ADVANCES,
           "cost": "tether advances of exhaustive + beam", "bins": bins}
    (BENCH / "motionbench" / "plan_pool.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
