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

Numbers are plain literals (no expression evaluation).  Commands raise;
:data:`FAILURES` maps each failure to its exit code and :func:`run` applies it:
0 ok, 1 input error (ProblemError; a command-line usage error exits 1 from the
parser), 2 solve failure (any SolveError, and a solve whose answer misses its
own conditions or enforced continuity), 3 verification failure (a failed
check, or an IntegrationError from the oracle).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys

import numpy as np

from .exact import solve_exact
from .model import (ContinuitySpec, PiecewiseBvp, PinnedConstant,
                    PointCondition, ProblemError, SolveError, normalize_piece,
                    validate_bvp)
from .oracle import DEFAULT_STEP, IntegrationError, shooting_solve
from .verify import DEFAULT_PROFILE, matching_values, pin_anchors, verification_report
from . import examples as registry

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RANK = 2
EXIT_VERIFY = 3

# Rows of the solve table: 10^6 rows are 60-110 MB of CSV text.
MAX_SAMPLES = 10 ** 6
_CHUNK = 1024  # rows per pass of the table writer: bounds its scratch arrays

# Every failure a command may raise, with its exit code.
FAILURES = ((ProblemError, EXIT_INPUT), (SolveError, EXIT_RANK), (IntegrationError, EXIT_VERIFY))


def run(command, *args) -> int:
    """command(*args)'s exit code; a failure listed in FAILURES prints
    ``error: <message>`` on stderr and gives that failure's code."""
    try:
        return command(*args)
    except tuple(kind for kind, _ in FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in FAILURES if isinstance(exc, kind))


def _number(value, what: str):
    """A JSON number; a string, a bool or a list is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(f"{what} must be a number, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """A JSON integer, or a float with an integral value."""
    if isinstance(_number(value, what), float):
        if not value.is_integer():
            raise ProblemError(f"{what} must be an integer, got {value!r}")
        return int(value)
    return value


def _numbers(value, what: str) -> list:
    """A JSON list of numbers; a bare number is a list of one."""
    values = value if isinstance(value, list) else [value]
    for v in values:
        _number(v, what)
    return values


def _records(data: dict, name: str, default=None) -> list[dict]:
    """The list of objects under ``name``, required unless a default is given."""
    records = data[name] if default is None else data.get(name, default)
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        raise ProblemError(f"{name} must be a list of objects, got {records!r}")
    return records


def parse_problem(data: dict) -> PiecewiseBvp:
    """Build a PiecewiseBvp from a problem-file dictionary.  Numbers must be
    JSON numbers and lists JSON lists: nothing is read out of a string."""
    try:
        order = _integer(data["order"], "order")
        pieces = tuple(
            normalize_piece(
                _integer(p.get("sign", 1), "sign"),
                _numbers(p.get("coeffs", []), "coeffs"),
                _numbers(p.get("forcing", 0.0), "forcing"),
                _numbers(p["interval"], "interval"),
                order,
            )
            for p in _records(data, "pieces")
        )
        conditions = tuple(
            PointCondition(float(_number(c["x"], "x")), _integer(c["deriv"], "deriv"),
                           float(_number(c["value"], "value")))
            for c in _records(data, "conditions", [])
        )
        orders = _numbers(data["continuity"], "continuity")
        continuity = ContinuitySpec(frozenset(_integer(j, "continuity order") for j in orders))
        pins = tuple(
            PinnedConstant(_integer(p["piece"], "pin piece"),
                           _integer(p["basis"], "pin basis"),
                           float(_number(p["value"], "pin value")))
            for p in _records(data, "pins", [])
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    """The problem in a UTF-8 JSON file (RFC 8259).  A file that cannot be
    opened, decoded or parsed, or that nests too deeply, is a ProblemError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ProblemError(f"cannot read problem file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemError(f"problem file {path} must hold a JSON object")
    return parse_problem(data)


_POW10 = np.array([float(10 ** k) for k in range(22)])  # every one exact
_CELLS = np.zeros((21, 2, 40), np.uint8)  # by [exponent + 4, fraction]
_CELLS[:4, :, 1:6] = [[list(b"0.000"[:k].ljust(5, b"\0"))] for k in (5, 4, 3, 2)]
_CELLS[np.arange(4, 20), 1, np.arange(7, 39, 2)] = ord(".")


def _g17_cells(values):
    """``'%.17g' % v`` for each v of a C-contiguous float array as NUL-padded
    bytes, shape ``values.shape + (40,)``: sign, "0.000" (exponent < 0) in five
    columns, then each of the 17 digits and a slot for the point; last slot NUL."""
    v = values.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    d, at = np.empty(v.size, np.int64), slice(None)
    for _ in range(2):  # d = round-half-even(a * 10^(16 - e)); then only d out of range
        x, s = a[at], _POW10[np.clip(16 - e[at], 0, 21)]
        p = x * s
        cx, cs = 134217729.0 * x, 134217729.0 * s  # Veltkamp splits
        xh, sh = cx - (cx - x), cs - (cs - s)
        xl, sl = x - xh, s - sh
        err = ((xh * sh - p) + xh * sl + xl * sh) + xl * sl  # Dekker: p + err == x * s
        d[at] = p.astype(np.int64) + np.rint(err).astype(np.int64)
        at = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))  # log10 one off, or d = 10^17
        e[at] += np.where(d[at] < 10 ** 16, -1, 1)
    fast &= (e >= -4) & (e <= 16)
    hi = d // 10 ** 9
    halves = np.stack([hi, d - hi * 10 ** 9]).astype(np.uint32)
    digits = np.empty((18, v.size), np.uint8)  # row i + 1: digit i, leading first
    for i in range(8, -1, -1):
        q = halves // 10
        digits[i::9] = halves - 10 * q
        halves = q
    kept = digits[1:] != 0
    for i in range(15, -1, -1):  # kept[i]: a nonzero digit at or after i
        kept[i] |= kept[i + 1]
    fraction = kept.sum(axis=0, dtype=np.uint8) > e + 1
    kept |= np.arange(17)[:, None] <= e  # the integer part keeps its zeros
    cells = np.take(_CELLS.reshape(42, 40), (e + 4) * 2 + fraction, axis=0, mode="clip")
    cells[:, 0] = np.signbit(v) * ord("-")
    cells[:, 6::2] = ((digits[1:] + ord("0")) * kept).T
    text = np.array(["%.17g" % value for value in v[~fast].tolist()], dtype="S39")
    cells[~fast, :39] = text.view(np.uint8).reshape(-1, 39)
    return cells.reshape(values.shape + (40,))


def _table_text(sol, bvp, samples: int):
    """The CSV text of ``samples`` evenly spaced points of the domain in
    pieces: the header, then _CHUNK rows at a time.  Each chunk finds its
    points' owning pieces, evaluates u^(j) there for every order j < n in one
    call and raises the SolveError that names a non-finite value (the first
    such chunk, its lowest order), so the grid is never evaluated whole.
    Every float is written as ``'%.17g' % v`` prints it.  In %g's fixed range
    (finite 1e-4 <= |v| < 1e17, rounded exponent E in [-4, 16]) numpy passes
    round |v| * 10^(16 - E), an exact product, half to even to the 17 digits
    (:func:`_g17_cells`); other values go through ``%``.  Each chunk is built
    as NUL-padded bytes, then the NULs are deleted."""
    xs = np.linspace(*bvp.domain, samples)
    labels = np.array([b",%d," % k for k in range(len(bvp.pieces))])
    yield ",".join(["x", "piece", "u"] + [f"du{j}" for j in range(1, bvp.order)]) + "\n"
    for start in range(0, samples, _CHUNK):
        x = xs[start:start + _CHUNK]
        owner = bvp.owning_piece(x)
        columns = sol.evaluate(x, owner, range(bvp.order))
        for j, column in enumerate(columns):
            if not np.isfinite(column).all():
                i = np.argmin(np.isfinite(column))
                raise SolveError(f"closed-form solution is non-finite (overflow): "
                                 f"u^({j})({x[i]:g}) on piece {owner[i]}")
        cells = _g17_cells(np.column_stack([x, columns.T]))
        cells[:, :, -1] = list(b"\0" + b"," * (bvp.order - 1) + b"\n")
        text = np.concatenate([cells[:, 0], labels[owner, None].view(np.uint8),
                               cells[:, 1:].reshape(len(cells), -1)], axis=1)
        yield text.tobytes().translate(None, b"\0").decode()


def _constants_report(sol) -> str:
    return "\n".join(["constants:"] + [f"  piece {piece}: [{render}] = {value:.17g}"
                                       for piece, render, value in sol.labeled_constants()])


def _refuse_unmet(sol, bvp) -> None:
    """Raise a SolveError when the solution misses one of its own point
    conditions or enforced continuity rows by more than its DEFAULT_PROFILE
    tolerance, naming the worst such row (a NaN counts as worst)."""
    misses, jumps = matching_values(sol, bvp)
    misses = np.concatenate([misses, jumps[:, list(bvp.continuity.sorted_orders)].ravel()]).tolist()
    tols = [DEFAULT_PROFILE.condition] * len(bvp.conditions)
    tols += [DEFAULT_PROFILE.jump] * (len(misses) - len(tols))
    missed = [r for r, (value, tol) in enumerate(zip(misses, tols)) if not value <= tol]
    if missed:
        worst = max(missed, key=lambda r: math.inf if math.isnan(misses[r])
                    else misses[r] / tols[r])
        raise SolveError(f"solution misses {len(missed)} of its {len(misses)} condition and "
                         f"continuity rows, worst {sol.system.describe_row(worst)} "
                         f"by {misses[worst]:.3e} (tolerance {tols[worst]:.0e})")


def _write_whole(path: str, chunks) -> None:
    """Write the text chunks to path.  A regular file (or no file) at path is
    replaced whole: the chunks go to a new file beside it, created as
    ``open(path, "w")`` creates one (through a symbolic link, mode 0o666 less
    the umask), which is renamed onto path, so a reader sees the old file or
    the whole new one; on any failure, a chunk that raises included, the new
    file is deleted.  Anything else at path (a device, a FIFO, a terminal, a
    directory), and a regular file in a directory where no new file can be
    made, is opened with ``open(path, "w")`` and written in place, where a
    failure leaves the chunks written before it."""
    try:
        replace = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        replace = True
    target = os.path.realpath(path)
    temporary = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(temporary, "x") if replace else None
    except PermissionError:
        fh = None
    if fh is None:
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def cmd_solve(args) -> int:
    bvp = load_problem(args.input)
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise ProblemError(f"--samples must be between 2 and {MAX_SAMPLES}, got {args.samples}")
    diag = validate_bvp(bvp)
    print(f"unknowns: {diag.n_unknowns}, equations: {diag.n_equations}"
          f" ({diag.determinacy})")
    sol = solve_exact(bvp)
    constants = _constants_report(sol)  # before any write: a form that cannot be built raises
    _refuse_unmet(sol, bvp)
    try:
        _write_whole(args.output, _table_text(sol, bvp, args.samples))
    except OSError as exc:
        raise ProblemError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    print(constants)
    print(f"wrote {args.samples} samples to {args.output}")
    return EXIT_OK


def _report(sol, bvp, step) -> int:
    """Print the verification table and return the verdict's exit code; a
    ``step`` first runs the oracle, ``None`` skips it.  The oracle receives
    the problem with its pins traded for anchor point conditions."""
    numeric = None if step is None else shooting_solve(dataclasses.replace(
        bvp, pins=(), conditions=bvp.conditions + pin_anchors(sol, bvp)), step)
    report = verification_report(sol, bvp, numeric)
    print(report.render_table())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _reproduce_one(example_id: str, with_oracle: bool, step: float) -> int:
    entry = registry.get_example(example_id)
    print(f"== {entry.id}: {entry.description}")
    if entry.notes:
        print(f"   note: {entry.notes}")
    sol = solve_exact(entry.bvp)
    print(_constants_report(sol))
    if entry.reference_constants:
        print("published constants:")
        for name, value in entry.reference_constants:
            print(f"  {name} = {value:.17g}")
    if with_oracle and not entry.oracle_comparable:
        print("   oracle comparison skipped: printed solution inconsistent")
        with_oracle = False
    return _report(sol, entry.bvp, step if with_oracle else None)


def cmd_reproduce(args) -> int:
    """Every example runs through :func:`run`, so ``all`` reports each
    entry and returns the largest code."""
    ids = list(registry.EXAMPLE_IDS) if args.example == "all" else [args.example]
    return max(run(_reproduce_one, ex_id, args.oracle, args.step) for ex_id in ids)


def cmd_verify(args) -> int:
    bvp = load_problem(args.input)
    return _report(solve_exact(bvp), bvp, args.step)


def cmd_list(_args) -> int:
    for ex_id, desc in registry.list_examples():
        print(f"{ex_id:<8} {desc}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error exits with EXIT_INPUT: argparse's own 2 is the code of
    a solve failure.  Subparsers are built with this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _dispatch(args) -> int:
    step = getattr(args, "step", DEFAULT_STEP)  # reproduce and verify only
    if not (math.isfinite(step) and step > 0):
        raise ProblemError(f"--step must be positive and finite, got {step}")
    return args.func(args)


def main(argv=None) -> int:
    return run(_dispatch, PARSER.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
