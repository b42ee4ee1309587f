"""Command-line surface: solve problem files, verify against the oracle,
and reproduce the built-in registry entries.

Problem files are JSON with fields mirroring the model types:

    {
      "order": 2,
      "pieces": [{"interval": [lo, hi], "sign": 1,
                  "coeffs": [a0, ...], "forcing": [q0, ...]}, ...],
      "conditions": [{"x": 0.0, "deriv": 0, "value": 0.0}, ...],
      "continuity": [0, 1],
      "pins": [{"piece": 2, "basis": 0, "value": 1.0}]
    }

Numbers are plain literals (no expression evaluation).  Exit codes: 0 ok,
1 input error, 2 matching-system error (rank, consistency, overflow),
3 verification failure (including an oracle integration that blows up).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .basis import RootFindingError
from .exact import SolveError, eval_solution, solve_exact
from .model import (ContinuitySpec, PiecewiseBvp, PinnedConstant,
                    PointCondition, ProblemError, normalize_piece,
                    validate_bvp)
from .oracle import DEFAULT_STEP, IntegrationError, shooting_solve
from .verify import pin_anchors, verification_report
from . import examples as registry

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RANK = 2
EXIT_VERIFY = 3

# Failures of the closed-form solve on an accepted problem (exit 2).
SOLVE_FAILURES = (SolveError, RootFindingError)


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def parse_problem(data: dict) -> PiecewiseBvp:
    """Build a PiecewiseBvp from a problem-file dictionary."""
    try:
        order = int(data["order"])
        pieces = tuple(
            normalize_piece(
                int(p.get("sign", 1)),
                p.get("coeffs", ()),
                p.get("forcing", (0.0,)),
                tuple(p["interval"]),
                order,
            )
            for p in data["pieces"]
        )
        conditions = tuple(
            PointCondition(float(c["x"]), int(c["deriv"]), float(c["value"]))
            for c in data.get("conditions", ())
        )
        continuity = ContinuitySpec(frozenset(int(j) for j in data["continuity"]))
        pins = tuple(
            PinnedConstant(int(p["piece"]), int(p["basis"]), float(p["value"]))
            for p in data.get("pins", ())
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ProblemError):
            raise
        raise ProblemError(f"malformed problem file: {exc}") from exc
    return PiecewiseBvp(order=order, pieces=pieces, conditions=conditions,
                        continuity=continuity, pins=pins)


def export_problem(bvp: PiecewiseBvp) -> dict:
    """Problem-file dictionary for a bvp (pieces are already normalized, sign 1)."""
    return {
        "order": bvp.order,
        "pieces": [
            {"interval": list(p.interval), "sign": 1,
             "coeffs": list(p.coeffs), "forcing": list(p.forcing)}
            for p in bvp.pieces
        ],
        "conditions": [
            {"x": c.location, "deriv": c.deriv_order, "value": c.value}
            for c in bvp.conditions
        ],
        "continuity": sorted(bvp.continuity.enforced_orders),
        "pins": [
            {"piece": p.piece_index, "basis": p.basis_index, "value": p.value}
            for p in bvp.pins
        ],
    }


def load_problem(path: str) -> PiecewiseBvp:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemError(f"cannot read problem file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemError(f"problem file {path} must hold a JSON object")
    return parse_problem(data)


def _solution_table(sol, bvp, samples: int) -> str:
    a, b = bvp.domain
    header = ["x", "piece"] + ["u"] + [f"du{j}" for j in range(1, bvp.order)]
    xs = np.linspace(a, b, samples)
    columns = [eval_solution(sol, bvp, xs, j).tolist() for j in range(bvp.order)]
    row = ",".join(["%.17g", "%d"] + ["%.17g"] * bvp.order)
    lines = [",".join(header)]
    lines += [row % values
              for values in zip(xs.tolist(), bvp.owning_piece(xs).tolist(), *columns)]
    return "\n".join(lines) + "\n"


def _constants_report(sol) -> str:
    lines = ["constants:"]
    for piece, render, value in sol.labeled_constants():
        lines.append(f"  piece {piece}: [{render}] = {value:.17g}")
    return "\n".join(lines)


def cmd_solve(args) -> int:
    try:
        bvp = load_problem(args.input)
    except ProblemError as exc:
        return _error(exc, EXIT_INPUT)
    if args.samples < 2:
        return _error("--samples must be at least 2", EXIT_INPUT)
    diag = validate_bvp(bvp)
    print(f"unknowns: {diag.n_unknowns}, equations: {diag.n_equations}"
          f" ({diag.determinacy})")
    try:
        sol = solve_exact(bvp)
    except SOLVE_FAILURES as exc:
        return _error(exc, EXIT_RANK)
    with open(args.output, "w") as fh:
        fh.write(_solution_table(sol, bvp, args.samples))
    print(_constants_report(sol))
    print(f"wrote {args.samples} samples to {args.output}")
    return EXIT_OK


def _reproduce_one(example_id: str, with_oracle: bool, step: float) -> int:
    try:
        entry = registry.get_example(example_id)
    except ProblemError as exc:
        return _error(exc, EXIT_INPUT)
    print(f"== {entry.id}: {entry.description}")
    if entry.notes:
        print(f"   note: {entry.notes}")
    bvp = entry.bvp
    try:
        sol = solve_exact(bvp)
    except SOLVE_FAILURES as exc:
        return _error(exc, EXIT_RANK)
    print(_constants_report(sol))
    if entry.reference_constants:
        print("published constants:")
        for name, value in entry.reference_constants:
            print(f"  {name} = {value:.17g}")
    numeric = None
    if with_oracle:
        if entry.oracle_comparable:
            pinless = dataclasses.replace(bvp, pins=())
            try:
                numeric = shooting_solve(pinless, step, anchors=pin_anchors(sol, bvp))
            except SOLVE_FAILURES as exc:
                return _error(exc, EXIT_RANK)
            except IntegrationError as exc:
                return _error(exc, EXIT_VERIFY)
        else:
            print("   oracle comparison skipped: printed solution inconsistent")
    report = verification_report(sol, bvp, numeric)
    print(report.render_table())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_reproduce(args) -> int:
    ids = list(registry.EXAMPLE_IDS) if args.example == "all" else [args.example]
    worst = EXIT_OK
    for ex_id in ids:
        code = _reproduce_one(ex_id, args.oracle, args.step)
        worst = max(worst, code)
    return worst


def cmd_verify(args) -> int:
    try:
        bvp = load_problem(args.input)
    except ProblemError as exc:
        return _error(exc, EXIT_INPUT)
    try:
        sol = solve_exact(bvp)
        pinless = dataclasses.replace(bvp, pins=())
        numeric = shooting_solve(pinless, args.step, anchors=pin_anchors(sol, bvp))
    except SOLVE_FAILURES as exc:
        return _error(exc, EXIT_RANK)
    except IntegrationError as exc:
        return _error(exc, EXIT_VERIFY)
    report = verification_report(sol, bvp, numeric)
    print(report.render_table())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_list(_args) -> int:
    for ex_id, desc in registry.list_examples():
        print(f"{ex_id:<8} {desc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstacle-bvp",
        description="Solve piecewise linear obstacle boundary-value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, write a sample table")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument("--output", required=True)
    p_solve.add_argument("--samples", type=int, default=201)
    p_solve.set_defaults(func=cmd_solve)

    p_rep = sub.add_parser("reproduce", help="solve a registry example and verify it")
    p_rep.add_argument("--example", required=True,
                       help="example id (e.g. 3.1.1) or 'all'")
    p_rep.add_argument("--oracle", action="store_true",
                       help="also cross-check against the shooting oracle")
    p_rep.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_rep.set_defaults(func=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="solve a problem file and verify it "
                                          "against the shooting oracle")
    p_ver.add_argument("--input", required=True)
    p_ver.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_ver.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list", help="list built-in examples")
    p_list.set_defaults(func=cmd_list)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    step = getattr(args, "step", DEFAULT_STEP)  # reproduce and verify only
    if not (math.isfinite(step) and step > 0):
        return _error(f"--step must be positive and finite, got {step}", EXIT_INPUT)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
