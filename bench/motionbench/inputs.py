"""Seeded input generator for the benchmark workloads.

Everything a workload feeds the program is made here from the seed, before
anything is timed, and written as the files a user would hand to motionrisk:
ASCII maps, element-config JSON, path files and query lists.  This module
uses the standard library only, so the inputs never depend on the code under
test.

    python3 bench/motionbench/inputs.py --workload eval_tether --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
from typing import Dict, List, Sequence, Set, Tuple

Cell = Tuple[int, int]

WORKLOADS = ("eval_tether", "compare_cold", "plan_courtyard", "simulate_mc")

WHY = {
    "eval_tether": "evaluate_path with warm caches on long curling walks: nearly all time is "
    "the quadratic tether refold, where a single-fold evaluator and a lattice-walk kernel must show",
    "compare_cold": "motionrisk compare on fresh 64x64 maps without tether elements: map parsing, "
    "distance transform and cold visibility dominate, and tether changes must not move it",
    "plan_courtyard": "plan_min_risk in exhaustive and beam mode on the courtyard, beam defect "
    "included: search bookkeeping and many short segment tests on a tiny map",
    "simulate_mc": "monte_carlo_risk with 1M trials on the courtyard-left matrix: the only "
    "workload where the sampler is the work",
}

COURTYARD_MAP = """\
############
#..........#
#..........#
#..........#
#..........#
#..........#
#....#.....#
#..........#
#..........#
#..........#
#..........#
############
"""

COURTYARD_CONFIG = {
    "elements": [
        {
            "name": "obstacle_distance",
            "mapping": {
                "kind": "piecewise-linear",
                "knots": [[1.0, 0.04], [1.4142135623730951, 0.0165], [2.0, 0.007], [2.2, 0.0025]],
            },
        },
        {"name": "turn", "coeff": 0.028284271247461898},
        {"name": "tether_contacts", "per_contact": 0.03},
    ]
}

# The twelve-state traverse passing the courtyard pillar on its left.
COURTYARD_LEFT = [
    (2, 2), (3, 3), (4, 4), (5, 4), (6, 4), (7, 4),
    (7, 5), (7, 6), (7, 7), (7, 8), (8, 9), (9, 10),
]

# At 17 states, beam planning returns risk 0.1618 where exhaustive finds 0.1186.
DEFECT_QUERY = ((2, 2), (9, 10), 17)

# Six elements with hazards small enough that a long walk's risk stays well inside (0, 1).
TETHER_CONFIG = {
    "elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.004], [2.0, 0.001], [3.0, 0.0]]}},
        {"name": "visibility", "radius": 5.0, "ray_count": 32,
         "mapping": {"kind": "piecewise-linear", "knots": [[0.5, 0.004], [1.0, 0.0]]}},
        {"name": "action_length", "coeff": 0.001},
        {"name": "turn", "coeff": 0.001},
        {"name": "tether_length", "coeff": 0.00005},
        {"name": "tether_contacts", "per_contact": 0.0005},
    ]
}

COMPARE_CONFIG = {
    "elements": [
        {"name": "obstacle_distance",
         "mapping": {"kind": "piecewise-linear", "knots": [[1.0, 0.02], [2.0, 0.005], [3.0, 0.0]]}},
        {"name": "visibility", "radius": 5.0, "ray_count": 32,
         "mapping": {"kind": "piecewise-linear", "knots": [[0.5, 0.02], [1.0, 0.0]]}},
        {"name": "action_length", "coeff": 0.005},
        {"name": "turn", "coeff": 0.005},
    ]
}

# Per size: map sides, map and walk counts and lengths, query bins, trials.
# Every eval_tether walk has the same length: with a mix of lengths, the p50
# and tail of a run depended on which walks it reached.  Its walks are spread
# over several maps, so that no single map's pillar jitter sets the cost of
# every request of a run.
SIZES = {
    "full": {
        "tether_side": 48, "tether_maps": 4, "tether_walks": 6, "tether_length": 72,
        "compare_side": 64, "compare_maps": 16, "compare_walks": 8, "compare_length": 30,
        "plan_bins": None, "plan_per_bin": 6, "plan_defect": DEFECT_QUERY,
        "mc_trials": 1_000_000, "mc_seeds": 16,
    },
    "tiny": {
        "tether_side": 16, "tether_maps": 1, "tether_walks": 2, "tether_length": 12,
        "compare_side": 16, "compare_maps": 2, "compare_walks": 3, "compare_length": 8,
        "plan_bins": 1, "plan_per_bin": 1, "plan_defect": ((2, 2), (9, 10), 9),
        "mc_trials": 20_000, "mc_seeds": 2,
    },
}

# King moves in rotational order, so heading +-1 is a 45-degree turn.
MOVES = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))

TURN_EVERY = 8

POOL_FILE = pathlib.Path(__file__).resolve().parent / "plan_pool.json"


def random_map(rng: random.Random, side: int) -> Set[Cell]:
    """Blocked cells of a side x side map: exactly one cell in 25, placed uniformly."""
    cells = [(r, c) for r in range(side) for c in range(side)]
    return set(rng.sample(cells, round(side * side / 25)))


def pillar_map(rng: random.Random, side: int) -> Set[Cell]:
    """Blocked cells of a side x side map: one pillar per 5 x 5 tile, jittered
    by up to a cell, so one cell in 25 is blocked and spread evenly.

    Even spacing keeps the rate at which a circling walk's tether wraps a
    corner, and so the cost of a walk, nearly the same for every seed.
    """
    blocked = set()
    for r0 in range(2, side, 5):
        for c0 in range(2, side, 5):
            r, c = r0 + rng.randint(-1, 1), c0 + rng.randint(-1, 1)
            if r < side and c < side:
                blocked.add((r, c))
    return blocked


def map_text(blocked: Set[Cell], side: int) -> str:
    return "".join(
        "".join("#" if (r, c) in blocked else "." for c in range(side)) + "\n"
        for r in range(side)
    )


def _step_ok(blocked: Set[Cell], side: int, r: int, c: int, dr: int, dc: int) -> bool:
    r2, c2 = r + dr, c + dc
    if not (0 <= r2 < side and 0 <= c2 < side) or (r2, c2) in blocked:
        return False
    # No corner cutting: a diagonal step needs both side cells free.
    return not (dr and dc and ((r + dr, c) in blocked or (r, c + dc) in blocked))


def curling_walk(rng: random.Random, blocked: Set[Cell], side: int, length: int) -> List[Cell]:
    """A king-move walk that turns 45 degrees the same way every TURN_EVERY
    steps, so it circles and its tether sweeps across obstacle corners.

    A fixed turn rate keeps the number of wraps per walk, and so its cost,
    much steadier than random turning does.
    """
    free = [(r, c) for r in range(side) for c in range(side) if (r, c) not in blocked]
    r, c = rng.choice(free)
    heading, spin = rng.randrange(8), rng.choice((-1, 1))
    out = [(r, c)]
    while len(out) < length:
        if len(out) % TURN_EVERY == 0:
            heading = (heading + spin) % 8
        for turn in (0, spin, -spin, 2 * spin, -2 * spin, 3 * spin, -3 * spin, 4):
            dr, dc = MOVES[(heading + turn) % 8]
            if _step_ok(blocked, side, r, c, dr, dc):
                heading = (heading + turn) % 8
                r, c = r + dr, c + dc
                out.append((r, c))
                break
        else:
            return curling_walk(rng, blocked, side, length)  # walled-in start: redraw
    return out


def path_text(states: Sequence[Cell]) -> str:
    return "".join(f"{r} {c}\n" for r, c in states)


def _write(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _eval_tether(rng: random.Random, out: pathlib.Path, size: dict) -> dict:
    side = size["tether_side"]
    _write(out / "config.json", json.dumps(TETHER_CONFIG, indent=1))
    maps, walks, walk_maps = [], [], []
    for m in range(size["tether_maps"]):
        blocked = pillar_map(rng, side)
        maps.append(f"maps/m{m}.map")
        _write(out / maps[-1], map_text(blocked, side))
        for w in range(size["tether_walks"]):
            name = f"walks/m{m}_w{w}.path"
            _write(out / name, path_text(curling_walk(rng, blocked, side, size["tether_length"])))
            walks.append(name)
            walk_maps.append(m)
    return {"maps": maps, "config": "config.json", "walks": walks, "walk_maps": walk_maps}


def _compare_cold(rng: random.Random, out: pathlib.Path, size: dict) -> dict:
    side = size["compare_side"]
    _write(out / "config.json", json.dumps(COMPARE_CONFIG, indent=1))
    requests = []
    for m in range(size["compare_maps"]):
        blocked = random_map(rng, side)
        map_name = f"maps/m{m:02d}.map"
        _write(out / map_name, map_text(blocked, side))
        paths = []
        for w in range(size["compare_walks"]):
            name = f"paths/m{m:02d}_w{w}.path"
            _write(out / name, path_text(curling_walk(rng, blocked, side, size["compare_length"])))
            paths.append(name)
        requests.append({"map": map_name, "paths": paths})
    return {"config": "config.json", "requests": requests}


def _courtyard_files(out: pathlib.Path) -> None:
    _write(out / "courtyard.map", COURTYARD_MAP)
    _write(out / "courtyard.config.json", json.dumps(COURTYARD_CONFIG, indent=1))


def _plan_courtyard(rng: random.Random, out: pathlib.Path, size: dict) -> dict:
    _courtyard_files(out)
    bins = json.loads(POOL_FILE.read_text())["bins"]
    if size["plan_bins"] is not None:
        bins = bins[: size["plan_bins"]]
    start, goal, max_states = size["plan_defect"]
    triples = [{"start": list(start), "goal": list(goal), "max_states": max_states}]
    picked = [dict(t) for b in bins for t in rng.sample(b, size["plan_per_bin"])]
    rng.shuffle(picked)
    triples += [{k: t[k] for k in ("start", "goal", "max_states")} for t in picked]
    # The defect triple leads, so every run plans it in both modes.
    queries = [dict(t, mode=mode) for t in triples for mode in ("exhaustive", "beam")]
    _write(out / "queries.json", json.dumps(queries, indent=1))
    return {"map": "courtyard.map", "config": "courtyard.config.json", "queries": "queries.json"}


def _simulate_mc(rng: random.Random, out: pathlib.Path, size: dict) -> dict:
    _courtyard_files(out)
    _write(out / "courtyard_left.path", path_text(COURTYARD_LEFT))
    seeds = [rng.randrange(2**32) for _ in range(size["mc_seeds"])]
    return {"map": "courtyard.map", "config": "courtyard.config.json",
            "path": "courtyard_left.path", "trials": size["mc_trials"], "rng_seeds": seeds}


_GENERATORS = {
    "eval_tether": _eval_tether,
    "compare_cold": _compare_cold,
    "plan_courtyard": _plan_courtyard,
    "simulate_mc": _simulate_mc,
}


def generate(workload: str, seed: int, out: pathlib.Path, size: str = "full") -> Dict:
    """Write the inputs of one workload under `out` and return its manifest."""
    # A string seed hashes the same in every process, unlike a tuple.
    rng = random.Random(f"{workload}:{seed}")
    manifest = _GENERATORS[workload](rng, out, SIZES[size])
    manifest.update(workload=workload, seed=seed, size=size, why=WHY[workload])
    _write(out / "manifest.json", json.dumps(manifest, indent=1))
    _write(out / "WHY.txt", f"{workload}: {WHY[workload]}\n")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out, args.size)


if __name__ == "__main__":
    main()
