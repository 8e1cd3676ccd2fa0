import json
import re
import shutil
import subprocess

import pytest

from motionrisk import State, load_map, render_svg, tether_for_prefix
from motionrisk.cli import main, parse_path_text

from conftest import FIXTURES

MAP = str(FIXTURES / "pillar_courtyard.map")
CONFIG = str(FIXTURES / "pillar_courtyard.config.json")
LEFT = str(FIXTURES / "pillar_courtyard_left.path")
LEFT_TO_PILLAR = str(FIXTURES / "pillar_courtyard_left_to_pillar.path")
RIGHT = str(FIXTURES / "pillar_courtyard_right.path")
POCKET_MAP = str(FIXTURES / "pocket.map")
POCKET_CONFIG = str(FIXTURES / "pocket.config.json")
SQUEEZE_MAP = str(FIXTURES / "squeeze_detour.map")
SQUEEZE_CONFIG = str(FIXTURES / "squeeze_detour.config.json")
SQUEEZE = str(FIXTURES / "squeeze.path")
DETOUR = str(FIXTURES / "detour.path")


@pytest.fixture()
def run(capsys):
    def call(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


# ---------------------------------------------------------------------------
# eval


def test_eval_table(run):
    code, out, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", LEFT)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].split() == [
        "state", "row", "col", "obstacle_distance", "turn", "tether_contacts", "finish"]
    # the state beside the pillar: all three elements active at two decimals
    assert lines[7].split() == ["6", "7", "5", "0.04", "0.04", "0.03", "0.89"]
    assert "finish probability: 0.62" in out
    assert "risk:               0.38" in out


def test_eval_json(run):
    code, out, err = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["obstacle_distance", "turn", "tether_contacts"]
    assert len(doc["states"]) == 12 and doc["states"][6] == [7, 5]
    assert doc["matrix"][6] == [0.04, 0.04, 0.03]
    assert doc["matrix"][3] == [0.0165, 0.0283, 0.0]
    assert doc["state_finish"][6] == 0.894
    assert doc["finish_prob"] == 0.6204
    assert doc["risk"] == 0.3796


def test_eval_csv(run):
    code, out, err = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state,row,col,obstacle_distance,turn,tether_contacts,state_finish"
    assert lines[7] == "6,7,5,0.0400,0.0400,0.0300,0.8940"
    assert lines[-2] == "finish_prob,0.6204"
    assert lines[-1] == "risk,0.3796"


def test_eval_formats_carry_the_same_numbers(run):
    _, json_out, _ = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--format", "json")
    _, csv_out, _ = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--format", "csv")
    doc = json.loads(json_out)
    rows = [line.split(",") for line in csv_out.splitlines()]
    for i, row in enumerate(rows[1:13]):
        assert [float(v) for v in row[3:6]] == doc["matrix"][i]
        assert float(row[6]) == doc["state_finish"][i]
    _, table_out, _ = run("eval", "--map", MAP, "--config", CONFIG, "--path", LEFT)
    cells = [line.split() for line in table_out.splitlines()[1:13]]
    for i, row in enumerate(cells):
        assert [f"{v:.2f}" for v in doc["matrix"][i]] == row[3:6]


def test_eval_tether_report(run):
    code, out, err = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT,
        "--tether", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tether"]["contacts"] == [[6.5, 4.5]]
    assert doc["tether"]["taut_length"] == 11.1893
    code, out, _ = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--tether")
    assert "tether contacts:    (6.5, 4.5)" in out
    assert "tether taut length: 11.19" in out


def test_tether_report_uses_the_configured_anchor(run, tmp_path):
    # Anchored at (9, 2), the scored tether runs straight along row 9 with no
    # contact; the start-anchored chain would wrap the pillar at (6.5, 4.5).
    doc = json.loads((FIXTURES / "pillar_courtyard.config.json").read_text())
    for el in doc["elements"]:
        if el["name"] == "tether_contacts":
            el["anchor"] = [9, 2]
    config = tmp_path / "anchored.config.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(
        "eval", "--map", MAP, "--config", str(config), "--path", LEFT,
        "--tether", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(row[2] == 0.0 for row in report["matrix"])
    assert report["tether"] == {"contacts": [], "taut_length": 8.0}
    code, out, _ = run(
        "eval", "--map", MAP, "--config", str(config), "--path", LEFT, "--tether")
    assert "tether contacts:    none" in out

    target = tmp_path / "anchored.svg"
    code, _, _ = run(
        "render", "--map", MAP, "--config", str(config), "--path", LEFT,
        "--tether", "--svg-out", str(target))
    assert code == 0
    grid = load_map((FIXTURES / "pillar_courtyard.map").read_text())
    path = parse_path_text((FIXTURES / "pillar_courtyard_left.path").read_text())
    scored = render_svg(
        grid, tether=tether_for_prefix(grid, path.states, anchor=State(9, 2)), title="x")
    polyline = re.compile(r"<polyline [^>]*/>")
    assert polyline.findall(target.read_text()) == polyline.findall(scored)


def test_tether_report_uses_the_first_tether_readers_anchor(run, tmp_path):
    # The anchor sits on tether_length, the first tether element; the report
    # must follow it, not the unanchored tether_contacts after it.
    doc = json.loads((FIXTURES / "pillar_courtyard.config.json").read_text())
    doc["elements"].insert(0, {"name": "tether_length", "coeff": 0.01, "anchor": [9, 2]})
    config = tmp_path / "length_anchored.config.json"
    config.write_text(json.dumps(doc))
    code, out, _ = run(
        "eval", "--map", MAP, "--config", str(config), "--path", LEFT,
        "--tether", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["tether"] == {"contacts": [], "taut_length": 8.0}
    assert report["elements"][0] == "tether_length"
    assert report["matrix"][-1][0] == 0.08  # 0.01 per cell of the 8-cell chain


def test_eval_missing_file_is_a_parse_error(run, tmp_path):
    code, out, err = run(
        "eval", "--map", str(tmp_path / "nope.map"), "--config", CONFIG, "--path", LEFT)
    assert code == 3 and "cannot read" in err and out == ""


def test_eval_malformed_inputs_exit_3(run, tmp_path):
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("..X\n...\n")
    code, _, err = run("eval", "--map", str(bad_map), "--config", CONFIG, "--path", LEFT)
    assert code == 3 and "bad.map" in err

    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    code, _, err = run("eval", "--map", MAP, "--config", str(bad_config), "--path", LEFT)
    assert code == 3 and "bad.json" in err

    bad_path = tmp_path / "bad.path"
    bad_path.write_text("2 2\nthree four\n")
    code, _, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", str(bad_path))
    assert code == 3 and "line 2" in err

    empty = tmp_path / "empty.path"
    empty.write_text("# only a comment\n")
    code, _, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", str(empty))
    assert code == 3 and "no states" in err

    binary_map = tmp_path / "binary.map"
    binary_map.write_bytes(b"..\xff\n...\n")
    code, _, err = run("eval", "--map", str(binary_map), "--config", CONFIG, "--path", LEFT)
    assert code == 3 and "binary.map" in err and "UTF-8" in err

    binary_path = tmp_path / "binary.path"
    binary_path.write_bytes(b"2 2\n\xc3\x28\n")
    code, _, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", str(binary_path))
    assert code == 3 and "binary.path" in err

    for block in (5, {"name": "tether_contacts", "anchor": [1]},
                  {"name": "obstacle_distance", "mapping": {"knots": 5}},
                  {"name": "turn", "coeff": "abc"},
                  {"name": "obstacle_distance", "mapping": {"knots": [[1]]}}):
        bad_config.write_text(json.dumps({"elements": [block]}))
        code, out, err = run("eval", "--map", MAP, "--config", str(bad_config), "--path", LEFT)
        assert (code, out) == (3, "") and "bad.json" in err, block

    vis = {"kind": "piecewise-linear", "knots": [[0.5, 0.02], [1.0, 0.0]]}
    for text in ('{"name": "turn", "coeff": "nan"}',
                 '{"name": "action_length", "coeff": "inf"}',
                 '{"name": "tether_length", "coeff": 1e400}',
                 '{"name": "turn", "coeff": -0.5}',
                 '{"name": "obstacle_distance", "mapping": {"knots": [["inf", 0.1]]}}',
                 '{"name": "obstacle_distance", "mapping": {"knots": [["nan", 0.1]]}}',
                 '{"name": "visibility", "ray_count": 3, "mapping": %s}' % json.dumps(vis),
                 '{"name": "visibility", "ray_count": 2.7, "mapping": %s}' % json.dumps(vis),
                 '{"name": "visibility", "radius": -1, "mapping": %s}' % json.dumps(vis)):
        bad_config.write_text('{"elements": [%s]}' % text)
        code, out, err = run("eval", "--map", MAP, "--config", str(bad_config), "--path", LEFT)
        name = json.loads(text)["name"]
        assert (code, out) == (3, "") and "bad.json" in err and name in err, text


def test_eval_invalid_path_exits_4(run, tmp_path):
    off_map = tmp_path / "hop.path"
    off_map.write_text("2 2\n2 4\n")  # a two-cell hop exceeds the default step radius
    code, _, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", str(off_map))
    assert code == 4 and "hop.path" in err

    blocked = tmp_path / "blocked.path"
    blocked.write_text("2 2\n3 3\n4 4\n5 5\n6 5\n")  # ends on the pillar
    code, _, err = run("eval", "--map", MAP, "--config", CONFIG, "--path", str(blocked))
    assert code == 4


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_cell_size_names_the_map(run, value):
    code, out, err = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--cell-size", value)
    assert (code, out) == (3, "") and "pillar_courtyard.map" in err and "cell_size" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_rc_is_a_usage_error(run, tmp_path, value):
    hop = tmp_path / "hop.path"
    hop.write_text("2 1\n2 10\n")  # a 9-cell hop that `gap > nan` would let through
    code, out, err = run(
        "eval", "--map", str(FIXTURES / "corridor.map"), "--config",
        str(FIXTURES / "corridor.config.json"), "--path", str(hop), "--rc", value)
    assert (code, out) == (2, "") and "--rc" in err
    code, out, err = run(
        "plan", "--map", MAP, "--config", CONFIG, "--start", "2,2", "--goal", "9,10",
        "--rc", value)
    assert (code, out) == (2, "") and "--rc" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_flags_a_ranking_reversal(run):
    code, out, err = run(
        "compare", "--map", SQUEEZE_MAP, "--config", SQUEEZE_CONFIG,
        "--path", SQUEEZE, "--path", DETOUR)
    assert code == 0
    assert "WARNING: additive ranking disagrees with risk ranking" in out


def test_compare_reversal_json(run):
    code, out, err = run(
        "compare", "--map", SQUEEZE_MAP, "--config", SQUEEZE_CONFIG,
        "--path", SQUEEZE, "--path", DETOUR, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rankings_agree"] is False
    assert doc["risk_ranking"] == [DETOUR, SQUEEZE]
    assert doc["additive_ranking"] == [SQUEEZE, DETOUR]
    by_name = {e["name"]: e for e in doc["paths"]}
    assert by_name[SQUEEZE]["risk"] == 0.7648
    assert by_name[SQUEEZE]["additive_cost"] == 1.26
    assert by_name[DETOUR]["risk"] == 0.757
    assert by_name[DETOUR]["additive_cost"] == 1.35


def test_compare_agreement(run):
    code, out, err = run(
        "compare", "--map", MAP, "--config", CONFIG,
        "--path", LEFT_TO_PILLAR, "--path", RIGHT, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rankings_agree"] is True
    assert doc["risk_ranking"] == [LEFT_TO_PILLAR, RIGHT]
    assert doc["additive_ranking"] == [LEFT_TO_PILLAR, RIGHT]
    code, out, _ = run(
        "compare", "--map", MAP, "--config", CONFIG,
        "--path", LEFT_TO_PILLAR, "--path", RIGHT)
    assert "rankings agree" in out and "WARNING" not in out


def test_compare_names_the_invalid_path(run, tmp_path):
    hop = tmp_path / "hop.path"
    hop.write_text("2 2\n2 4\n")
    code, out, err = run(
        "compare", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--path", str(hop))
    assert (code, out) == (4, "")
    assert err.startswith(f"{hop}: step into state 1 spans 2.000 cells")


def test_compare_needs_two_paths(run):
    code, _, err = run("compare", "--map", MAP, "--config", CONFIG, "--path", LEFT)
    assert code == 2 and "two" in err


def test_compare_csv(run):
    code, out, _ = run(
        "compare", "--map", SQUEEZE_MAP, "--config", SQUEEZE_CONFIG,
        "--path", SQUEEZE, "--path", DETOUR, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "path,risk,finish_prob,additive_cost"
    assert lines[1].startswith(SQUEEZE) and lines[1].endswith("0.7648,0.2352,1.2600")
    assert lines[-1] == "rankings_agree,false"


# ---------------------------------------------------------------------------
# plan


def test_plan_table(run):
    code, out, err = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "5,5", "--max-states", "7")
    assert code == 0
    assert "risk: 0.48" in out


def test_plan_json(run):
    code, out, err = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "5,5", "--max-states", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["planner"] == "risk" and doc["mode"] == "exhaustive"
    assert doc["path"] == [[0, 0], [0, 1], [1, 2], [2, 3], [3, 4], [4, 4], [5, 5]]
    assert doc["objective"] == 0.4787


def test_plan_additive_and_beam(run):
    code, out, _ = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "5,5", "--max-states", "7",
        "--planner", "additive", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == 0.4 and doc["planner"] == "additive"
    code, out, _ = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "5,5", "--max-states", "7",
        "--mode", "beam", "--format", "json")
    assert json.loads(out)["objective"] == 0.4787


def test_plan_infeasible_exits_5(run):
    code, out, err = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "0,5", "--max-states", "3")
    assert code == 5
    assert out.startswith("infeasible:")
    code, out, _ = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "0,5", "--max-states", "3", "--format", "json")
    assert code == 5
    doc = json.loads(out)
    assert doc["feasible"] is False and "max_states" in doc["reason"]


def test_plan_a_1200_state_corridor(run, tmp_path):
    corridor = tmp_path / "corridor.map"
    corridor.write_text("." * 1200 + "\n")
    code, out, err = run(
        "plan", "--map", str(corridor), "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "0,1199", "--max-states", "1200", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["path"] == [[0, c] for c in range(1200)]


def test_plan_blocked_endpoint_is_infeasible(run):
    code, out, _ = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "2,2")
    assert code == 5 and "not viable" in out


def test_plan_usage_errors(run):
    code, _, err = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "zero", "--goal", "5,5")
    assert code == 2 and "--start" in err
    code, _, err = run(
        "plan", "--map", POCKET_MAP, "--config", POCKET_CONFIG,
        "--start", "0,0", "--goal", "5,5", "--max-states", "0")
    assert code == 2 and "max_states" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_json(run):
    code, out, err = run(
        "simulate", "--map", MAP, "--config", CONFIG, "--path", LEFT,
        "--trials", "20000", "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_risk"] == 0.3796
    assert doc["trials"] == 20000 and doc["seed"] == 7
    assert abs(doc["estimate"] - doc["exact_risk"]) <= 5 * max(doc["stderr"], 1e-4)
    assert abs(doc["difference"] - (doc["estimate"] - doc["exact_risk"])) <= 2e-4


def test_simulate_is_reproducible(run):
    args = ("simulate", "--map", MAP, "--config", CONFIG, "--path", LEFT,
            "--trials", "5000", "--seed", "13", "--format", "csv")
    _, first, _ = run(*args)
    _, second, _ = run(*args)
    assert first == second
    assert first.splitlines()[0].startswith("exact_risk,0.3796")


def test_simulate_rejects_bad_trials(run):
    code, _, err = run(
        "simulate", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--trials", "0")
    assert code == 4 and "trials" in err


# ---------------------------------------------------------------------------
# render


def test_render_stdout(run):
    code, out, err = run("render", "--map", MAP, "--config", CONFIG, "--path", LEFT)
    assert code == 0
    assert out.startswith("<svg") and "</svg>" in out


def test_render_svg_out(run, tmp_path):
    target = tmp_path / "scene.svg"
    code, out, err = run(
        "render", "--map", MAP, "--config", CONFIG, "--path", LEFT,
        "--tether", "--svg-out", str(target))
    assert code == 0
    assert out == f"wrote {target}\n"
    text = target.read_text()
    assert text.startswith("<svg") and "</svg>" in text


# ---------------------------------------------------------------------------
# argument plumbing


def test_usage_errors_exit_2(run):
    assert run("eval", "--map", MAP)[0] == 2  # missing required flags
    assert run("frobnicate")[0] == 2
    code, _, err = run(
        "eval", "--map", MAP, "--config", CONFIG, "--path", LEFT, "--format", "yaml")
    assert code == 2


def test_help_exits_0(run):
    code, out, err = run("--help")
    assert code == 0


def test_console_script_is_installed():
    exe = shutil.which("motionrisk")
    assert exe, "the motionrisk console script should be on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("eval", "compare", "plan", "simulate", "render"):
        assert sub in proc.stdout
