"""obstacle-bvp benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each op
starts only after the previous one finished and its output was checked; the
check runs outside the timed region.  The loop cycles through the workload's
seeded input pool in whole rounds until ``--seconds`` have passed.  Reported
times are scaled to a reference machine speed by calibration slices (below).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
round untraced and the later rounds traced, and reports per-op layer metrics
from the traced rounds (see README.md for the table of layers).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are the environment record
and a readable table.  Spans and counters of a traced run are written to
``perfbench/_work/``.
"""

import os

# BLAS/OpenMP pools are pinned before numpy is imported.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from numpy.polynomial import polynomial as npoly  # noqa: E402

from spans import SETUP_SCOPE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
SETUP_REPEATS = 5

# Mean calibration slice on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4).  A shared machine changes speed from second to
# second, so every time a run reports is scaled by CAL_REF_S over the mean of
# the four calibration slices nearest to it, two before and two after.
# Slices are taken around each set-up repetition and, in the loop, after an
# op once CAL_EVERY_S has passed since the previous slice; always outside the
# timed region.
CAL_REF_S = 0.0175
CAL_EVERY_S = 0.25
CAL_POLY = np.array([1.0, -0.5, 0.25, 0.125])


def calibration_slice():
    """Fixed Python and numpy work of the kind the program's hot loops do
    (small numpy.polynomial calls and scalar math); returns its seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        x = i * 1e-3
        acc += float(npoly.polyval(x, npoly.polyder(CAL_POLY))) * math.exp(-x)
    return time.perf_counter() - t0


class Calibration:
    """Calibration slices of one run.  A time measured after slice ``mark-1``
    and before slice ``mark`` is scaled by slices ``mark-2`` to ``mark+1``."""

    def __init__(self):
        self.slices = []
        self._last = time.perf_counter()

    def take(self):
        self.slices.append(calibration_slice())
        self._last = time.perf_counter()

    def maybe_take(self):
        if time.perf_counter() - self._last >= CAL_EVERY_S:
            self.take()

    def mark(self):
        return len(self.slices)

    def scaled(self, timed):
        """Reference-machine seconds for (seconds, mark) pairs."""
        return [t * CAL_REF_S / statistics.fmean(self.slices[max(m - 2, 0):m + 2])
                for t, m in timed]

    def record(self):
        return {"slices": len(self.slices), "ref_s": CAL_REF_S,
                "mean_s": statistics.fmean(self.slices)}


# Per-layer metrics: name -> (kind, source).  "self"/"incl" are milliseconds
# per op of a span name; "calls" and "counter" are counts per op; "setup" is
# self milliseconds per set-up repetition.
LAYER_METRICS = {
    "verify.residual_report.ms": ("self", "verify.residual_report"),
    "verify.residual_report.incl_ms": ("incl", "verify.residual_report"),
    "verify.residual_points.count": ("counter", "verify.residual_points"),
    "verify.solution_scale.ms": ("self", "verify.solution_scale"),
    "verify.continuity_report.ms": ("self", "verify.continuity_report"),
    "verify.condition_report.ms": ("self", "verify.condition_report"),
    "verify.compare_solutions.ms": ("self", "verify.compare_solutions"),
    "verify.compare_solutions.incl_ms": ("incl", "verify.compare_solutions"),
    "oracle.sample.ms": ("self", "oracle.sample"),
    "oracle.sample.count": ("calls", "oracle.sample"),
    "oracle.shooting_solve.ms": ("self", "oracle.shooting_solve"),
    "oracle.shooting_solve.incl_ms": ("incl", "oracle.shooting_solve"),
    "oracle.integrate_fundamental.ms": ("self", "oracle.integrate_fundamental"),
    "oracle.rk4_steps.count": ("counter", "oracle.rk4_steps"),
    "basis.eval_basis.count": ("calls", "basis.eval_basis"),
    "basis.eval_basis.ms": ("self", "basis.eval_basis"),
    "basis.piece_basis.ms": ("self", "basis.piece_basis"),
    "exact.particular_solution.ms": ("self", "exact.particular_solution"),
    "exact.assemble_system.ms": ("self", "exact.assemble_system"),
    "exact.gauss_solve.exact.ms": ("self", "exact.gauss_solve.exact"),
    "exact.gauss_solve.oracle.ms": ("self", "exact.gauss_solve.oracle"),
    "exact.system_unknowns.count": ("counter", "exact.system_unknowns"),
    "exact.lstsq.share": ("share", ("exact.lstsq_calls",
                                    "exact.gauss_solve.exact",
                                    "exact.gauss_solve.oracle")),
    "exact.rank_deficient.share": ("share", ("exact.solve_exact!RankDeficientError",
                                             "exact.solve_exact")),
    "exact.solve_exact.ms": ("self", "exact.solve_exact"),
    "exact.solve_exact.incl_ms": ("incl", "exact.solve_exact"),
    "exact.eval_solution.count": ("calls", "exact.eval_solution"),
    "exact.eval_solution.ms": ("self", "exact.eval_solution"),
    "model.owning_piece.count": ("counter", "model.owning_piece.calls"),
    "cli.main.ms": ("self", "cli.main"),
    "verify.verification_report.ms": ("self", "verify.verification_report"),
    "penalty.reformulate.ms": ("self", "penalty.reformulate"),
    "examples.get_example.ms": ("self", "examples.get_example"),
    "penalty.reformulate.setup_ms": ("setup", "penalty.reformulate"),
    "examples.get_example.setup_ms": ("setup", "examples.get_example"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import ``obstacle_bvp`` (and its CLI) afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "obstacle_bvp"]:
        del sys.modules[name]
    pkg = importlib.import_module("obstacle_bvp")
    importlib.import_module("obstacle_bvp.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "obstacle_bvp":
        raise ImportError(f"obstacle_bvp imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed, tracer, calibration):
    """Import plus input building, repeated; returns (pkg, inputs, timed)
    with one (seconds, calibration mark) pair per repetition."""
    timed = []
    calibration.take()
    for _ in range(SETUP_REPEATS):
        mark = calibration.mark()
        t0 = time.perf_counter()
        pkg = import_package()
        if tracer is not None:
            tracer.install(pkg)
            tracer.scope = SETUP_SCOPE
        inputs = workload.build(pkg, seed, WORK / workload.name)
        timed.append((time.perf_counter() - t0, mark))
        if tracer is not None:
            tracer.scope = None
        calibration.take()
    return pkg, inputs, timed


def run_op(workload, pkg, item):
    """One timed op; returns (seconds, output or None, failure kind or None)."""
    t0 = time.perf_counter()
    try:
        output = workload.op(pkg, item)
    except (Exception, SystemExit) as exc:  # the op's failure is a result
        return time.perf_counter() - t0, None, type(exc).__name__
    return time.perf_counter() - t0, output, None


def measure(workload, pkg, inputs, seconds, tracer, calibration):
    """Closed loop over whole rounds of the pool; checks every op.

    Returns, per round, one (seconds, calibration mark) pair per op, and one
    outcome per input: ``None`` or the failure kind of its first round.  An
    input whose outcome changes in a later round gets the kind
    ``nondeterministic``.  With a tracer, the first round runs untraced (the
    base of the tracing overhead) and every later round is traced, with the
    op index as the span scope.
    """
    rounds, outcomes = [], []
    deadline = time.perf_counter() + seconds
    ops = 0
    while len(rounds) < (1 if tracer is None else 2) or time.perf_counter() < deadline:
        tracing = tracer is not None and len(rounds) > 0
        timed = []
        for index, item in enumerate(inputs):
            if tracing:
                tracer.scope = ops
            mark = calibration.mark()
            elapsed, output, kind = run_op(workload, pkg, item)
            if tracing:
                tracer.scope = None
            timed.append((elapsed, mark))
            ops += 1
            if kind is None:
                try:
                    kind = workload.check(pkg, item, output)
                except Exception as exc:  # a crashing check is a failed op
                    kind = f"check-{type(exc).__name__}"
            if not rounds:
                outcomes.append(kind)
            elif kind != outcomes[index]:
                outcomes[index] = "nondeterministic"
            calibration.maybe_take()
        rounds.append(timed)
    calibration.take()
    return rounds, outcomes


def percentile(values, pct):
    return float(np.percentile(values, pct))


def layer_metrics(summary, n_ops):
    spans, counters = summary["spans"], summary["counters"]

    def span(scope, name, field):
        return spans[scope].get(name, {}).get(field, 0)

    out = {}
    for metric, (kind, source) in LAYER_METRICS.items():
        if kind == "self":
            value = span("op", source, "self_s") * 1e3 / n_ops
        elif kind == "incl":
            value = span("op", source, "incl_s") * 1e3 / n_ops
        elif kind == "calls":
            value = span("op", source, "calls") / n_ops
        elif kind == "counter":
            value = counters["op"].get(source, 0) / n_ops
        elif kind == "setup":
            value = span("setup", source, "self_s") * 1e3 / SETUP_REPEATS
        else:
            numerator, *bases = source
            base = sum(span("op", b, "calls") for b in bases)
            value = counters["op"].get(numerator, 0) / base if base else 0.0
        unit = "ms" if kind in ("self", "incl", "setup") else (
            "1" if kind == "share" else "count")
        out[metric] = {"value": value, "unit": unit}
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "obstacle_bvp" / "__init__.py").is_file():
        print(f"error: no obstacle_bvp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    calibration = Calibration()
    pkg, inputs, setup_timed = set_up(workload, args.seed, tracer, calibration)
    rounds, outcomes = measure(workload, pkg, inputs, args.seconds, tracer, calibration)
    # Every round repeats the same inputs with the same outcome, so failures
    # are counted once per input: the base is the pool, not the number of
    # rounds the time allowed.
    failures = {}
    for kind in filter(None, outcomes):
        failures[kind] = failures.get(kind, 0) + 1
    attempted = len(inputs)
    failed = sum(failures.values())
    wrong = sorted(k for k in failures if k not in workload.known_defects)

    env = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "commit": git_commit(), "pool": len(inputs), "rounds": len(rounds),
        "ops": len(inputs) * len(rounds), "op_mix": workload.op_mix(inputs),
        "failures": failures, "setup_repeats": SETUP_REPEATS,
        "calibration": calibration.record(),
        "setup_s_each": [t for t, _ in setup_timed],
    }

    if tracer is None:
        raw = np.array([[t for t, _ in timed] for timed in rounds])
        scaled = np.array([calibration.scaled(timed) for timed in rounds])
        n = scaled.size
        tail = workload.tail_percentile
        # Percentiles are taken over the pool's inputs, each at its median
        # over the rounds, so that a transient slowdown of a shared machine
        # does not pass for a slow input.
        per_input = np.median(scaled, axis=0)
        tail_s = percentile(per_input, tail)
        metrics = {
            "ops_per_s": {"value": n / scaled.sum(), "unit": "op/s"},
            "op_ms_p50": {"value": percentile(per_input, 50) * 1e3, "unit": "ms"},
            "op_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
            "setup_s": {"value": statistics.median(calibration.scaled(setup_timed)),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        raw_per_input = np.median(raw, axis=0)
        env["unscaled"] = {
            "ops_per_s": n / raw.sum(),
            "op_ms_p50": percentile(raw_per_input, 50) * 1e3,
            "op_ms_tail": percentile(raw_per_input, tail) * 1e3,
            "setup_s": statistics.median(t for t, _ in setup_timed),
        }
        beyond = int((per_input > tail_s).sum()) * len(rounds)
        notes = {
            "ops_per_s": f"n={n} ops in {scaled.sum():.3f} s",
            "op_ms_p50": f"n={n} ({len(per_input)} inputs x {len(rounds)} rounds)",
            "op_ms_tail": f"p{tail}, {beyond} samples beyond",
            "pass_ratio": f"fail_ratio={failed / attempted:.4f} "
                          f"({failed}/{attempted} inputs, each in {len(rounds)} rounds)",
            "setup_s": f"median of {SETUP_REPEATS}",
            "peak_rss_mb": "ru_maxrss",
        }
        notes = {name: note + (f"; unscaled {env['unscaled'][name]:.6g}"
                               if name in env["unscaled"] else "")
                 for name, note in notes.items()}
    else:
        untraced = calibration.scaled(rounds[0])
        traced = calibration.scaled([op for timed in rounds[1:] for op in timed])
        summary = tracer.summary()
        WORK.mkdir(parents=True, exist_ok=True)
        np.savez(WORK / f"{workload.name}.spans.npz", names=np.array(tracer.names),
                 **tracer.arrays())
        (WORK / f"{workload.name}.trace.json").write_text(
            json.dumps({"env": env, **summary}, indent=1, sort_keys=True))
        metrics = layer_metrics(summary, len(traced))
        metrics["trace.overhead.ratio"] = {
            "value": statistics.fmean(traced) / statistics.fmean(untraced), "unit": "1"}
        # Unscaled, like the spans, so that layer times are shares of it.
        metrics["trace.op.ms"] = {
            "value": statistics.fmean(t for timed in rounds[1:] for t, _ in timed) * 1e3,
            "unit": "ms"}
        notes = {"trace.op.ms": f"n={len(traced)} traced ops, unscaled"}
        if summary["absent"]:
            print("absent: " + ", ".join(summary["absent"]))

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if wrong:
        print("failures outside the known defects: " + ", ".join(wrong))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
