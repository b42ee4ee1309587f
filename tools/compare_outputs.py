"""Compare the outputs of two checkouts of this repository.

    python3 tools/compare_outputs.py PARENT CHANGE [--json REPORT.json]

PARENT and CHANGE are checkout roots; each one's package is imported from its
``src/`` in a fresh interpreter, with BLAS pools pinned to one thread.  Both
run the same inputs, built by ``perfbench/workloads.py`` of the checkout that
holds this script (read, never changed).  The pools and their outputs:

- ``registry``: ``reproduce --example all --oracle``; one output per entry,
  its ``== <id>`` block of standard output.  A pass prints ``overall: PASS``.
- ``obstacle-export seed S`` for S = 1..3: one output per problem, the exit
  code and the bytes of the CSV that ``solve --samples 2001`` writes.  A
  pass is the benchmark's own check of that op.
- ``solve-sweep seed S`` for S = 1..5: one output per problem, the outcome
  kind of ``solve_exact`` (``pass``, the kind the benchmark's check returns,
  or the exception's class name) and the bytes of its constants.
- ``references``: one output per entry of ``CASES`` in
  ``tests/test_references.py``, u on the case's 201 points.  A pass is u
  within 1e-13 max |u| of the case's ``Decimal`` truth.

An output differs when its bytes or its outcome differ.  Its relative
deviation is the largest |a - b| over the largest |a| or |b|, both taken over
the numbers it holds (a solve's constants, a CSV's fields, a registry block's
printed values), and infinite when its outcome kind or its count of numbers
changed or a number turned non-finite.  Per pool the report gives the outputs compared, how many
differ, the largest and the median deviation over those that differ, and
each side's pass count; below it, each reference case's error against its
truth on each side.  The exit status is 1 when any output differs.
Comparing a checkout with itself checks that every output is reproducible.

A change that moves rounding is judged by accuracy, not by the parent's
bits.  It must move no ``verify`` tolerance, lose no solve-sweep pass at any
seed (``perfbench/run.py --workload solve-sweep --seed S``), leave no
reference case worse than 2x its error at the parent, and report its
deviations from the parent, which need not be zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import pickle
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OBSTACLE_SEEDS = (1, 2, 3)
SWEEP_SEEDS = (1, 2, 3, 4, 5)
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def collect(checkout: Path, workdir: Path):
    """Every output of the pools for the package in checkout/src: a list of
    (pool, key, kind, payload bytes, passed), with a reference case's error
    appended."""
    import numpy as np
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import obstacle_bvp
    import obstacle_bvp.cli  # noqa: F401  (workloads reach it as pkg.cli)
    pkg = obstacle_bvp
    if Path(pkg.__file__).resolve().parent != (checkout / "src" / "obstacle_bvp").resolve():
        raise ImportError(f"obstacle_bvp imported from {pkg.__file__}, not {checkout}/src")
    out = []
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = pkg.cli.main(["reproduce", "--example", "all", "--oracle"])
    blocks = re.split(r"(?m)^(?=== )", text.getvalue())
    for block in filter(None, blocks):
        key = block.split(":", 1)[0].lstrip("= ")
        out.append(("registry", key, f"exit-{code}", block.encode(),
                    "overall: PASS" in block))
    export = workloads.WORKLOADS["obstacle-export"]
    for seed in OBSTACLE_SEEDS:
        for j, item in enumerate(export.build(pkg, seed, workdir / f"seed{seed}")):
            result = export.op(pkg, item)
            csv = Path(item[2])
            payload = csv.read_bytes() if csv.exists() else b""
            out.append((f"obstacle-export seed {seed}", j, f"exit-{result[0]}", payload,
                        export.check(pkg, item, result) is None))
    sweep = workloads.WORKLOADS["solve-sweep"]
    for seed in SWEEP_SEEDS:
        for j, bvp in enumerate(sweep.build(pkg, seed, workdir)):
            try:
                sol = sweep.op(pkg, bvp)
            except Exception as exc:  # the outcome is the result
                out.append((f"solve-sweep seed {seed}", j, type(exc).__name__, b"", False))
                continue
            kind = sweep.check(pkg, bvp, sol) or "pass"
            payload = np.concatenate([p.constants for p in sol.pieces]).tobytes()
            out.append((f"solve-sweep seed {seed}", j, kind, payload, kind == "pass"))
    sys.path.insert(0, str(ROOT / "tests"))
    import test_references as refs
    for case in refs.CASES:
        try:
            u, truth = refs.solve_case(case)
        except Exception as exc:  # the outcome is the result
            out.append(("references", case, type(exc).__name__, b"", False, math.inf))
            continue
        error = refs.error(u, truth)
        out.append(("references", case, "solved", u.tobytes(), error <= refs.TOLERANCE, error))
    return out


def run_checkout(checkout: Path):
    """collect() for checkout in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "outputs.pickle"
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--collect",
                        str(checkout), str(result)], env=env, cwd=tmp, check=True)
        with open(result, "rb") as fh:
            return pickle.load(fh)


def _numbers(pool: str, payload: bytes):
    """The numbers an output holds: a solve's constants, or those printed."""
    if pool.startswith("solve-sweep") or pool == "references":
        import numpy as np
        return np.frombuffer(payload, dtype=float).tolist()
    return [float(m) for m in NUMBER.findall(payload)]


def deviation(pool: str, a, b) -> float:
    """Relative deviation of two (kind, payload) outputs: the largest |x - y|
    over the largest |x| or |y|, both over all the numbers they hold."""
    (kind_a, payload_a), (kind_b, payload_b) = a, b
    xs, ys = _numbers(pool, payload_a), _numbers(pool, payload_b)
    if kind_a != kind_b or len(xs) != len(ys):
        return float("inf")
    diffs = [abs(x - y) for x, y in zip(xs, ys) if x != y and (x == x or y == y)]
    if not all(map(math.isfinite, diffs)):
        return float("inf")
    return max(diffs, default=0.0) and max(diffs) / max(abs(v) for v in xs + ys
                                                     if math.isfinite(v))


def compare(parent, change):
    """Per pool: outputs, differing outputs, max and median deviation over
    the differing ones, and each side's passes; for the references, each
    case's [parent, change] error."""
    sides = [{(pool, key): rest for pool, key, *rest in outputs} for outputs in (parent, change)]
    report, found = {}, {}
    for pool, key in dict.fromkeys([*sides[0], *sides[1]]):
        a, b = sides[0].get((pool, key)), sides[1].get((pool, key))
        row = report.setdefault(pool, {"outputs": 0, "differ": 0,
                                       "passed_parent": 0, "passed_change": 0})
        row["outputs"] += 1
        row["passed_parent"] += bool(a and a[2])
        row["passed_change"] += bool(b and b[2])
        if pool == "references":
            row.setdefault("errors", {})[key] = [a[3] if a else math.nan, b[3] if b else math.nan]
        if a is None or b is None or a[:2] != b[:2]:
            row["differ"] += 1
            found.setdefault(pool, []).append(
                float("inf") if a is None or b is None else deviation(pool, a[:2], b[:2]))
    for pool, row in report.items():
        row["max_rel_deviation"] = max(found.get(pool, []), default=0.0)
        row["median_rel_deviation"] = statistics.median(found.get(pool, [0.0]))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--json", type=Path, help="also write the report here")
    args = parser.parse_args(argv)
    report = compare(run_checkout(args.parent.resolve()), run_checkout(args.change.resolve()))
    print(f"{'pool':<26}{'outputs':>8}{'differ':>8}{'max rel dev':>13}{'median':>11}"
          f"{'pass parent':>13}{'pass change':>13}")
    for pool, row in report.items():
        print(f"{pool:<26}{row['outputs']:>8}{row['differ']:>8}"
              f"{row['max_rel_deviation']:>13.3g}{row['median_rel_deviation']:>11.3g}"
              f"{row['passed_parent']:>13}{row['passed_change']:>13}")
    errors = report.get("references", {}).get("errors", {})
    if errors:
        print(f"{'reference case':<26}{'error parent':>13}{'error change':>13}{'ratio':>8}")
    for case, (a, b) in errors.items():
        print(f"{case:<26}{a:>13.3g}{b:>13.3g}{b / a if a else math.nan:>8.2f}")
    differ = sum(row["differ"] for row in report.values())
    print(f"{differ} of {sum(row['outputs'] for row in report.values())} outputs differ")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--collect"]:
        checkout, result = Path(sys.argv[2]), Path(sys.argv[3])
        outputs = collect(checkout, result.parent)
        with open(result, "wb") as fh:
            pickle.dump(outputs, fh)
    else:
        sys.exit(main())
