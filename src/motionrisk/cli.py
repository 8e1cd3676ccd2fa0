"""Command line interface.

Subcommands: eval, compare, plan, simulate, render.  eval, compare, plan and
simulate each build one report, which every --format writes: json carries its
payload with floats rounded to 4 decimals; csv its body rows under a header,
then its tail rows, floats to 4 decimals; table the same body with floats to
2 decimals, a blank line, then summary lines.  render writes SVG.

Exit codes: 0 success; 2 usage, a non-finite --rc included; 3 unreadable or
malformed input file, a map given a non-finite or non-positive --cell-size
included; 4 semantically invalid input; 5 no feasible plan.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

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


def _parsed(name: str, parse: Callable[[str], object], error: type):
    """parse(text of file `name`); unreadable text or an `error` exits 3 naming the file."""
    try:
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {name}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})")
    try:
        return parse(text)
    except error as exc:
        raise _CliError(EXIT_PARSE, f"{name}: {exc}")


def _inputs(args) -> Tuple[GridMap, list]:
    """The --map grid and --config elements every command reads; --rc must be finite."""
    grid = _parsed(args.map, lambda text: load_map(text, cell_size=args.cell_size), MapFormatError)
    elements = _parsed(args.config, load_elements, ConfigError)
    if not math.isfinite(args.rc):
        raise _CliError(EXIT_USAGE, f"--rc must be a finite number, got {args.rc}")
    return grid, elements


def _evaluated(grid: GridMap, path: Path, elements, name: str) -> PathRiskReport:
    """evaluate_path, which validates the path; an invalid one names its file."""
    try:
        return evaluate_path(grid, path, elements)
    except PathValidationError as exc:
        raise _CliError(EXIT_VALIDATION, f"{name}: {exc}")


def _one_path(args) -> Tuple[GridMap, list, Path, PathRiskReport]:
    """The inputs of eval, simulate and render: map, config, --path and its evaluation."""
    grid, elements = _inputs(args)
    path = _parsed(args.path, lambda text: parse_path_text(text, r_c=args.rc), ValueError)
    return grid, elements, path, _evaluated(grid, path, elements, args.path)


def _parse_state(text: str, flag: str) -> State:
    bits = text.replace(",", " ").split()
    if len(bits) != 2:
        raise _CliError(EXIT_USAGE, f"{flag} expects 'row,col', got {text!r}")
    try:
        return State(int(bits[0]), int(bits[1]))
    except ValueError:
        raise _CliError(EXIT_USAGE, f"{flag} expects integer coordinates, got {text!r}")


class _Report(NamedTuple):
    """One command's result, from which _render writes every format.

    `doc` is the json payload.  `columns` pairs each body column's csv name
    with its table header, and `rows` hold the body, one value per column.
    csv writes `csv_tail` after the body, and the table prints `text_tail`
    after the body and a blank line.  _render formats every float, so a
    number a format shows is the same number in the others.
    """

    doc: dict
    columns: Sequence[Tuple[str, str]] = ()
    rows: Sequence[Sequence[object]] = ()
    csv_tail: Sequence[Sequence[object]] = ()
    text_tail: Sequence[str] = ()


def _round4(obj):
    if isinstance(obj, float):
        return round(obj, 4)
    if isinstance(obj, dict):
        return {k: _round4(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round4(v) for v in obj]
    return obj


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join("{:>%d}" % w for w in widths)
    out = [fmt.format(*headers)]
    out.extend(fmt.format(*row) for row in rows)
    return out


def _render(report: _Report, fmt: str) -> str:
    """json: the doc, floats to 4 decimals; csv: header, body and tail rows,
    floats to 4 decimals; table: the body, floats to 2 decimals, then the tail."""
    if fmt == "json":
        return json.dumps(_round4(report.doc), indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        header = [[name for name, _ in report.columns]] if report.columns else []
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [f"{v:.4f}" if isinstance(v, float) else v for v in row]
            for row in [*header, *report.rows, *report.csv_tail]
        )
        return buf.getvalue()
    lines: List[str] = []
    if report.columns:
        body = [[f"{v:.2f}" if isinstance(v, float) else str(v) for v in row]
                for row in report.rows]
        lines = _table([head for _, head in report.columns], body) + [""]
    return "\n".join([*lines, *report.text_tail]) + "\n"


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


Output = Tuple[int, Union[_Report, str]]


def cmd_eval(args) -> Output:
    grid, elements, path, report = _one_path(args)
    tether = _scored_tether(grid, path, elements) if args.tether else None
    names = list(report.matrix.element_names)
    rows = [
        [i, s.row, s.col, *risks, finish]
        for i, (s, risks, finish) in enumerate(
            zip(path, report.matrix.values.tolist(), report.state_finish))
    ]
    doc = {
        "elements": names,
        "states": [row[1:3] for row in rows],
        "matrix": [row[3:-1] for row in rows],
        "state_finish": [row[-1] for row in rows],
        "finish_prob": report.finish_prob,
        "risk": report.risk,
    }
    csv_tail = [["finish_prob", report.finish_prob], ["risk", report.risk]]
    text_tail = [f"finish probability: {report.finish_prob:.2f}",
                 f"risk:               {report.risk:.2f}"]
    if tether is not None:
        taut = tether.taut_length * grid.cell_size
        doc["tether"] = {"contacts": tether.contacts, "taut_length": taut}
        csv_tail += [["tether_contact", cr, cc] for cr, cc in tether.contacts]
        csv_tail.append(["tether_taut_length", taut])
        shown = ", ".join(f"({cr:g}, {cc:g})" for cr, cc in tether.contacts) or "none"
        text_tail += [f"tether contacts:    {shown}", f"tether taut length: {taut:.2f}"]
    columns = [(name, name) for name in ("state", "row", "col", *names)]
    columns.append(("state_finish", "finish"))
    return EXIT_OK, _Report(doc, columns, rows, csv_tail, text_tail)


def cmd_compare(args) -> Output:
    grid, elements = _inputs(args)
    if len(args.path) < 2:
        raise _CliError(EXIT_USAGE, "compare needs at least two --path files")
    paths = [_parsed(name, lambda text: parse_path_text(text, r_c=args.rc), ValueError)
             for name in args.path]
    if not any(e.category is RiskCategory.LOCALE for e in elements):
        raise _CliError(EXIT_VALIDATION, "config has no locale elements for the additive baseline")
    rows = []
    for name, path in zip(args.path, paths):
        report = _evaluated(grid, path, elements, name)
        cost = additive_path_cost(_locale_columns(report.matrix))
        rows.append([name, report.risk, report.finish_prob, cost])
    risk_rank = [row[0] for row in sorted(rows, key=lambda row: (row[1], row[0]))]
    add_rank = [row[0] for row in sorted(rows, key=lambda row: (row[3], row[0]))]
    agree = risk_rank == add_rank
    doc = {
        "paths": [dict(zip(("name", "risk", "finish_prob", "additive_cost"), row)) for row in rows],
        "risk_ranking": risk_rank,
        "additive_ranking": add_rank,
        "rankings_agree": agree,
    }
    columns = [("path", "path"), ("risk", "risk"), ("finish_prob", "finish"),
               ("additive_cost", "additive cost")]
    csv_tail = [["risk_ranking", *risk_rank], ["additive_ranking", *add_rank],
                ["rankings_agree", str(agree).lower()]]
    text_tail = [
        "risk ranking (best first):     " + "  ".join(risk_rank),
        "additive ranking (best first): " + "  ".join(add_rank),
        "rankings agree" if agree else "WARNING: additive ranking disagrees with risk ranking",
    ]
    return EXIT_OK, _Report(doc, columns, rows, csv_tail, text_tail)


def cmd_plan(args) -> Output:
    grid, elements = _inputs(args)
    start = _parse_state(args.start, "--start")
    goal = _parse_state(args.goal, "--goal")
    try:
        config = SearchConfig(start=start, goal=goal, r_c=args.rc, max_states=args.max_states,
                              mode=args.mode, beam_width=args.beam_width)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    additive = args.planner == "additive"
    result = (plan_additive_baseline if additive else plan_min_risk)(grid, elements, config)
    if not result.feasible:
        # A plain sentence: through the csv writer a reason with a comma gains quotes.
        if args.format != "json":
            return EXIT_INFEASIBLE, f"infeasible: {result.reason}\n"
        return EXIT_INFEASIBLE, _Report({"feasible": False, "reason": result.reason})
    rows = [[i, s.row, s.col] for i, s in enumerate(result.path)]
    doc = {
        "feasible": True,
        "planner": args.planner,
        "mode": args.mode,
        "path": [row[1:] for row in rows],
        "objective": result.risk,
    }
    cost_label = "additive cost" if additive else "risk"
    return EXIT_OK, _Report(doc, [(name, name) for name in ("state", "row", "col")], rows,
                            [["objective", result.risk]], [f"{cost_label}: {result.risk:.2f}"])


def cmd_simulate(args) -> Output:
    _, _, _, report = _one_path(args)
    mc = monte_carlo_risk(report.matrix, trials=args.trials, seed=args.seed)
    diff = mc.estimate - report.risk
    doc = {
        "exact_risk": report.risk,
        "estimate": mc.estimate,
        "stderr": mc.stderr,
        "difference": diff,
        "trials": mc.trials,
        "seed": mc.seed,
    }
    text_tail = [
        f"exact risk:     {report.risk:.2f}",
        f"sampled risk:   {mc.estimate:.2f}   ({mc.trials} trials, seed {mc.seed})",
        f"difference:     {diff:+.4f} (standard error {mc.stderr:.4f})",
    ]
    return EXIT_OK, _Report(doc, csv_tail=list(doc.items()), text_tail=text_tail)


def cmd_render(args) -> Output:
    grid, elements, path, report = _one_path(args)
    risks = [1.0 - float(f) for f in report.state_finish]
    tether = _scored_tether(grid, path, elements) if args.tether else None
    svg = render_svg(grid, path=path, state_risks=risks, tether=tether,
                     title=f"risk {report.risk:.2f}")
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
        print(exc, file=sys.stderr)
        return exc.code
    except (DomainError, PathValidationError, TetherError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(output if isinstance(output, str) else _render(output, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
