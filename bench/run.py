"""Benchmark entry point for motionrisk.

    python3 bench/run.py --workload eval_tether --seed 0 --seconds 20 --trace 0

Runs one workload against the library in ``src/`` of this checkout and
prints notes, then one JSON line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Exits 1 when an output check
fails and 2 when the library cannot be found.  Generated inputs and span
files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"


def import_library() -> None:
    """Import motionrisk from this checkout's src/, or exit 2."""
    if not (SRC / "motionrisk" / "__init__.py").is_file():
        print(f"run.py: no motionrisk package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # One client, no threads: keep numpy's BLAS from starting a thread pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import motionrisk

    if not pathlib.Path(motionrisk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"run.py: imported motionrisk from {motionrisk.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from motionbench import inputs

    parser = argparse.ArgumentParser(description="Benchmark one motionrisk workload.")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="'tiny' shrinks every input, for smoke tests")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_library()
    from motionbench import runner

    out = ROOT / ".bench_out"
    result = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=out / f"{args.workload}-{args.size}-s{args.seed}",
        size=args.size,
        reference=runner.load_reference(REFERENCE, args.workload, args.seed, args.size),
        trace_file=out / f"trace-{args.workload}.npz",
    )
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
