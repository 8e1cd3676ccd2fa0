"""Command line interface.

Subcommands: eval, compare, plan, simulate, render.  Exit codes: 0 success,
2 usage, 3 unreadable/malformed input file, 4 semantically invalid input,
5 no feasible plan.  The table format prints probabilities to 2 decimals;
csv and json carry the same values to 4 decimals.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .compose import (
    DomainError,
    PathRiskReport,
    RiskMatrix,
    additive_path_cost,
    evaluate_path,
    monte_carlo_risk,
)
from .elements import ConfigError, RiskCategory, load_elements
from .planner import SearchConfig, plan_additive_baseline, plan_min_risk
from .render import render_svg
from .tether import TetherError, TetherState, tether_for_prefix
from .world import (
    GridMap,
    MapFormatError,
    Path,
    PathValidationError,
    State,
    load_map,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_INFEASIBLE = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read_file(name: str) -> str:
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {name}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def parse_path_text(text: str, r_c: float = 1.5) -> Path:
    """Path files: one 'row col' (or 'row,col') pair per line; '#' comments."""
    states = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        bits = line.replace(",", " ").split()
        if len(bits) != 2:
            raise ValueError(f"line {lineno}: expected 'row col', got {raw.strip()!r}")
        try:
            states.append(State(int(bits[0]), int(bits[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: coordinates must be integers")
    if not states:
        raise ValueError("path file contains no states")
    return Path(tuple(states), r_c=r_c)


def _load_map_arg(args) -> GridMap:
    text = _read_file(args.map)
    try:
        return load_map(text, cell_size=args.cell_size)
    except MapFormatError as exc:
        raise _CliError(EXIT_PARSE, f"{args.map}: {exc}")


def _load_config_arg(args):
    text = _read_file(args.config)
    try:
        return load_elements(text)
    except ConfigError as exc:
        raise _CliError(EXIT_PARSE, f"{args.config}: {exc}")


def _load_path_file(name: str, r_c: float) -> Path:
    text = _read_file(name)
    try:
        return parse_path_text(text, r_c=r_c)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"{name}: {exc}")


def _evaluated(grid: GridMap, path: Path, elements, name: str) -> PathRiskReport:
    """evaluate_path, which validates the path; an invalid one names its file."""
    try:
        return evaluate_path(grid, path, elements)
    except PathValidationError as exc:
        raise _CliError(EXIT_VALIDATION, f"{name}: {exc}")


def _parse_state(text: str, flag: str) -> State:
    bits = text.replace(",", " ").split()
    if len(bits) != 2:
        raise _CliError(EXIT_USAGE, f"{flag} expects 'row,col', got {text!r}")
    try:
        return State(int(bits[0]), int(bits[1]))
    except ValueError:
        raise _CliError(EXIT_USAGE, f"{flag} expects integer coordinates, got {text!r}")


def _round4(obj):
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _round4(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round4(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> str:
    return json.dumps(_round4(payload), indent=2, sort_keys=True) + "\n"


def _emit_csv(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [f"{v:.4f}" if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join("{:>%d}" % w for w in widths)
    out = [fmt.format(*headers)]
    out.extend(fmt.format(*row) for row in rows)
    return out


def _scored_tether(grid: GridMap, path: Path, elements) -> TetherState:
    """Final tether as scored: anchored where the first tether reader says."""
    reader = next((el.tether for el in elements if el.tether is not None), None)
    try:
        return tether_for_prefix(grid, path.states, anchor=reader.anchor if reader else None)
    except TetherError as exc:
        raise _CliError(EXIT_VALIDATION, str(exc))


def _locale_columns(matrix: RiskMatrix) -> RiskMatrix:
    keep = [k for k, cat in enumerate(matrix.categories) if cat is RiskCategory.LOCALE]
    return RiskMatrix(
        element_names=tuple(matrix.element_names[k] for k in keep),
        categories=tuple(matrix.categories[k] for k in keep),
        values=matrix.values[:, keep],
    )


def cmd_eval(args) -> Tuple[int, str]:
    grid = _load_map_arg(args)
    elements = _load_config_arg(args)
    path = _load_path_file(args.path, args.rc)
    report = _evaluated(grid, path, elements, args.path)
    names = list(report.matrix.element_names)
    tether = _scored_tether(grid, path, elements) if args.tether else None
    if args.format == "json":
        payload = {
            "elements": names,
            "states": [list(s.as_tuple()) for s in path],
            "matrix": [list(map(float, row)) for row in report.matrix.values],
            "state_finish": [float(v) for v in report.state_finish],
            "finish_prob": report.finish_prob,
            "risk": report.risk,
        }
        if tether is not None:
            payload["tether"] = {
                "contacts": [list(c) for c in tether.contacts],
                "taut_length": tether.taut_length * grid.cell_size,
            }
        return EXIT_OK, _emit_json(payload)
    if args.format == "csv":
        rows: List[Sequence[object]] = [["state", "row", "col"] + names + ["state_finish"]]
        for i, s in enumerate(path):
            rows.append(
                [i, s.row, s.col]
                + [float(v) for v in report.matrix.values[i]]
                + [float(report.state_finish[i])]
            )
        rows.append(["finish_prob", report.finish_prob])
        rows.append(["risk", report.risk])
        if tether is not None:
            for cr, cc in tether.contacts:
                rows.append(["tether_contact", float(cr), float(cc)])
            rows.append(["tether_taut_length", tether.taut_length * grid.cell_size])
        return EXIT_OK, _emit_csv(rows)
    body = []
    for i, s in enumerate(path):
        body.append(
            [str(i), str(s.row), str(s.col)]
            + [f"{v:.2f}" for v in report.matrix.values[i]]
            + [f"{report.state_finish[i]:.2f}"]
        )
    lines = _table(["state", "row", "col"] + names + ["finish"], body)
    lines.append("")
    lines.append(f"finish probability: {report.finish_prob:.2f}")
    lines.append(f"risk:               {report.risk:.2f}")
    if tether is not None:
        shown = ", ".join(f"({cr:g}, {cc:g})" for cr, cc in tether.contacts) or "none"
        lines.append(f"tether contacts:    {shown}")
        lines.append(f"tether taut length: {tether.taut_length * grid.cell_size:.2f}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_compare(args) -> Tuple[int, str]:
    grid = _load_map_arg(args)
    elements = _load_config_arg(args)
    if len(args.path) < 2:
        raise _CliError(EXIT_USAGE, "compare needs at least two --path files")
    paths = [_load_path_file(name, args.rc) for name in args.path]
    locale = [e for e in elements if e.category is RiskCategory.LOCALE]
    if not locale:
        raise _CliError(EXIT_VALIDATION, "config has no locale elements for the additive baseline")
    entries = []
    for name, path in zip(args.path, paths):
        report = _evaluated(grid, path, elements, name)
        cost = additive_path_cost(_locale_columns(report.matrix))
        entries.append({"name": name, "risk": report.risk,
                        "finish_prob": report.finish_prob, "additive_cost": cost})
    risk_rank = [e["name"] for e in sorted(entries, key=lambda e: (e["risk"], e["name"]))]
    add_rank = [e["name"] for e in sorted(entries, key=lambda e: (e["additive_cost"], e["name"]))]
    agree = risk_rank == add_rank
    if args.format == "json":
        return EXIT_OK, _emit_json(
            {
                "paths": entries,
                "risk_ranking": risk_rank,
                "additive_ranking": add_rank,
                "rankings_agree": agree,
            }
        )
    if args.format == "csv":
        rows: List[Sequence[object]] = [["path", "risk", "finish_prob", "additive_cost"]]
        for e in entries:
            rows.append([e["name"], e["risk"], e["finish_prob"], e["additive_cost"]])
        rows.append(["risk_ranking"] + risk_rank)
        rows.append(["additive_ranking"] + add_rank)
        rows.append(["rankings_agree", str(agree).lower()])
        return EXIT_OK, _emit_csv(rows)
    body = [
        [e["name"], f"{e['risk']:.2f}", f"{e['finish_prob']:.2f}", f"{e['additive_cost']:.2f}"]
        for e in entries
    ]
    lines = _table(["path", "risk", "finish", "additive cost"], body)
    lines.append("")
    lines.append("risk ranking (best first):     " + "  ".join(risk_rank))
    lines.append("additive ranking (best first): " + "  ".join(add_rank))
    lines.append(
        "rankings agree" if agree
        else "WARNING: additive ranking disagrees with risk ranking"
    )
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_plan(args) -> Tuple[int, str]:
    grid = _load_map_arg(args)
    elements = _load_config_arg(args)
    start = _parse_state(args.start, "--start")
    goal = _parse_state(args.goal, "--goal")
    try:
        config = SearchConfig(
            start=start,
            goal=goal,
            r_c=args.rc,
            max_states=args.max_states,
            mode=args.mode,
            beam_width=args.beam_width,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if args.planner == "additive":
        result = plan_additive_baseline(grid, elements, config)
        cost_label = "additive cost"
    else:
        result = plan_min_risk(grid, elements, config)
        cost_label = "risk"
    if not result.feasible:
        if args.format == "json":
            return EXIT_INFEASIBLE, _emit_json({"feasible": False, "reason": result.reason})
        return EXIT_INFEASIBLE, f"infeasible: {result.reason}\n"
    if args.format == "json":
        return EXIT_OK, _emit_json(
            {
                "feasible": True,
                "planner": args.planner,
                "mode": args.mode,
                "path": [list(s.as_tuple()) for s in result.path],
                "objective": result.risk,
            }
        )
    if args.format == "csv":
        rows: List[Sequence[object]] = [["state", "row", "col"]]
        rows.extend([i, s.row, s.col] for i, s in enumerate(result.path))
        rows.append(["objective", result.risk])
        return EXIT_OK, _emit_csv(rows)
    body = [[str(i), str(s.row), str(s.col)] for i, s in enumerate(result.path)]
    lines = _table(["state", "row", "col"], body)
    lines.append("")
    lines.append(f"{cost_label}: {result.risk:.2f}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_simulate(args) -> Tuple[int, str]:
    grid = _load_map_arg(args)
    elements = _load_config_arg(args)
    path = _load_path_file(args.path, args.rc)
    report = _evaluated(grid, path, elements, args.path)
    mc = monte_carlo_risk(report.matrix, trials=args.trials, seed=args.seed)
    diff = mc.estimate - report.risk
    if args.format == "json":
        return EXIT_OK, _emit_json(
            {
                "exact_risk": report.risk,
                "estimate": mc.estimate,
                "stderr": mc.stderr,
                "difference": diff,
                "trials": mc.trials,
                "seed": mc.seed,
            }
        )
    if args.format == "csv":
        rows = [
            ["exact_risk", report.risk],
            ["estimate", mc.estimate],
            ["stderr", mc.stderr],
            ["difference", diff],
            ["trials", mc.trials],
            ["seed", mc.seed],
        ]
        return EXIT_OK, _emit_csv(rows)
    lines = [
        f"exact risk:     {report.risk:.2f}",
        f"sampled risk:   {mc.estimate:.2f}   ({mc.trials} trials, seed {mc.seed})",
        f"difference:     {diff:+.4f} (standard error {mc.stderr:.4f})",
    ]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_render(args) -> Tuple[int, str]:
    grid = _load_map_arg(args)
    elements = _load_config_arg(args)
    path = _load_path_file(args.path, args.rc)
    report = _evaluated(grid, path, elements, args.path)
    risks = [1.0 - float(f) for f in report.state_finish]
    tether = _scored_tether(grid, path, elements) if args.tether else None
    svg = render_svg(
        grid,
        path=path,
        state_risks=risks,
        tether=tether,
        title=f"risk {report.risk:.2f}",
    )
    if args.svg_out:
        try:
            with open(args.svg_out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise _CliError(EXIT_VALIDATION, f"cannot write {args.svg_out}: {exc.strerror or exc}")
        return EXIT_OK, f"wrote {args.svg_out}\n"
    return EXIT_OK, svg + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionrisk",
        description="Evaluate, compare, plan, sample, and draw motion risk on grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        p.add_argument("--map", required=True, help="map file ('.' viable, '#' unviable)")
        p.add_argument("--cell-size", type=float, default=1.0, help="cell edge length")
        if config:
            p.add_argument("--config", required=True, help="JSON element config")
        p.add_argument("--rc", type=float, default=1.5, help="max step length in cells")
        p.add_argument(
            "--format", choices=("table", "csv", "json"), default="table",
            help="output format",
        )

    p = sub.add_parser("eval", help="risk matrix and finish probability of one path")
    common(p)
    p.add_argument("--path", required=True, help="path file, one 'row col' per line")
    p.add_argument("--tether", action="store_true", help="also report the final tether")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("compare", help="rank several paths by risk and by additive cost")
    common(p)
    p.add_argument("--path", action="append", required=True, help="repeatable path file")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("plan", help="search for a low-risk path")
    common(p)
    p.add_argument("--start", required=True, help="start state 'row,col'")
    p.add_argument("--goal", required=True, help="goal state 'row,col'")
    p.add_argument("--planner", choices=("risk", "additive"), default="risk")
    p.add_argument("--mode", choices=("exhaustive", "beam"), default="exhaustive")
    p.add_argument("--max-states", type=int, default=32)
    p.add_argument("--beam-width", type=int, default=64)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("simulate", help="Monte Carlo check of a path's risk")
    common(p)
    p.add_argument("--path", required=True, help="path file, one 'row col' per line")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("render", help="draw map, path, and optional tether as SVG")
    common(p)
    p.add_argument("--path", required=True, help="path file, one 'row col' per line")
    p.add_argument("--tether", action="store_true", help="draw the final tether")
    p.add_argument("--svg-out", help="output file (stdout when omitted)")
    p.set_defaults(handler=cmd_render)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        code, output = args.handler(args)
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except (DomainError, PathValidationError, TetherError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
