"""Record bench/reference.json: every output of the default seed, once.

Runs each request of each workload one time, untimed, checks the outputs'
invariants, and writes them as the reference that runs with the default seed
must reproduce.  Record from a commit whose numbers are trusted; the file in
the repository was recorded from the library as first benchmarked.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from motionbench import inputs, runner  # noqa: E402
from motionbench.workloads import WORKLOADS, Library  # noqa: E402


def main() -> int:
    mr = Library()
    reference = {}
    for name in inputs.WORKLOADS:
        root = BENCH.parent / ".bench_out" / f"reference-{name}"
        manifest = inputs.generate(name, runner.REFERENCE_SEED, root)
        work = WORKLOADS[name](mr, root, manifest)
        work.setup()
        outputs = [(key, work.request(key)) for key in range(work.count())]
        problems = [v for v in work.check(outputs, None) if v is not None]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = work.record(outputs)
        print(f"{name}: {len(outputs)} outputs", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
