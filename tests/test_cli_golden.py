"""Golden CLI outputs: stdout, stderr and exit code of every command and
format, byte for byte.

The cases run from fixtures/ with relative file names, so the golden file is
the same on every machine.  After a deliberate output change, rewrite it with

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff of tests/cli_golden.json.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from motionrisk.cli import main

from conftest import FIXTURES

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

COURTYARD = ["--map", "pillar_courtyard.map", "--config", "pillar_courtyard.config.json"]
# turn and an anchored tether_length: a configured anchor and no locale element
ANCHORED = ["--map", "pillar_courtyard.map", "--config", "pillar_courtyard_anchored.config.json"]
CORRIDOR = ["--map", "corridor.map", "--config", "corridor.config.json"]
LEFT = "pillar_courtyard_left.path"
LEFT_TO_PILLAR = "pillar_courtyard_left_to_pillar.path"
RIGHT = "pillar_courtyard_right.path"
FORMATS = ("table", "csv", "json")


def _cases():
    for fmt in FORMATS:
        f = ["--format", fmt]
        yield ["eval", *COURTYARD, "--path", LEFT, *f]
        yield ["eval", *COURTYARD, "--path", LEFT, "--tether", *f]
        yield ["eval", *ANCHORED, "--path", LEFT, "--tether", *f]
        yield ["eval", *CORRIDOR, "--path", "twisty.path", "--tether", *f]
        yield ["compare", *CORRIDOR, "--path", "straight.path", "--path", "twisty.path", *f]
        yield ["compare", *COURTYARD, "--path", LEFT_TO_PILLAR, "--path", RIGHT,
               "--path", LEFT, *f]
        for planner in ("risk", "additive"):
            for mode in ("exhaustive", "beam"):
                yield ["plan", *COURTYARD, "--start", "2,2", "--goal", "9,10",
                       "--planner", planner, "--mode", mode, "--beam-width", "8", *f]
        yield ["plan", *COURTYARD, "--start", "2,2", "--goal", "9,10", "--max-states", "5", *f]
        yield ["plan", *COURTYARD, "--start", "2,2", "--goal", "6,5", *f]
        yield ["simulate", *COURTYARD, "--path", LEFT, "--trials", "5000", "--seed", "3", *f]
    yield ["render", *COURTYARD, "--path", RIGHT, "--tether"]
    # input errors: every path is parsed before any is evaluated, and before
    # compare looks for locale elements
    yield ["compare", *COURTYARD, "--path", "straight.path", "--path", "corridor.map"]
    yield ["compare", *ANCHORED, "--path", LEFT, "--path", "corridor.map"]
    yield ["compare", *COURTYARD, "--path", "straight.path", "--path", LEFT]
    yield ["compare", *ANCHORED, "--path", LEFT, "--path", RIGHT]
    yield ["compare", *COURTYARD, "--path", LEFT]
    yield ["eval", *COURTYARD, "--path", "missing.path"]
    yield ["eval", "--map", "pillar_courtyard.config.json",
           "--config", "pillar_courtyard.config.json", "--path", LEFT]
    yield ["eval", "--map", "pillar_courtyard.map", "--config", "corridor.map", "--path", LEFT]
    yield ["plan", *COURTYARD, "--start", "2", "--goal", "9,10"]
    yield ["plan", *COURTYARD, "--start", "2,2", "--goal", "9,10", "--max-states", "0"]
    yield ["simulate", *COURTYARD, "--path", LEFT, "--trials", "0"]


CASES = {" ".join(argv): argv for argv in _cases()}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", list(CASES))
def test_cli_output_matches_golden(key, golden, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert _run(CASES[key]) == golden[key]


if __name__ == "__main__":
    os.chdir(FIXTURES)
    recorded = {key: _run(argv) for key, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
