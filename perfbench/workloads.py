"""The three benchmark workloads: input generators, one op each, and the
per-op correctness check that runs outside the timed region.

Every workload builds a pool of inputs from the seed.  The structure of each
pool entry (order, piece count, root family, forcing degree, contact share)
is fixed by its index, so every seed measures the same mix; the seed only
draws the values.  The runner cycles through the pool in whole rounds.

A check returns ``None`` for a correct op or a short failure kind.  Kinds in
a workload's ``known_defects`` are failures the solver is known to produce on
that workload's inputs (near-double roots left unmerged, and matching systems
ill-conditioned by the global exponential basis); they count as failed ops
but do not make the run incorrect.  Any other kind does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

# Each workload draws from its own stream, so one seed gives unrelated values
# to different workloads.
STREAMS = {"registry-oracle": 1, "solve-sweep": 2, "obstacle-export": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([STREAMS[workload], seed])


def _run_cli(pkg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def _within_profile(pkg, sol, bvp):
    """The library's own condition and enforced-continuity tolerances."""
    profile = pkg.verify.DEFAULT_PROFILE
    if any(not v <= profile.condition for v in pkg.verify.condition_report(sol, bvp)):
        return False
    return all(j.jump <= profile.jump for j in pkg.verify.continuity_report(sol, bvp)
               if j.enforced)


class RegistryOracle:
    """``reproduce --example <id> --oracle`` over the nine registry entries."""

    name = "registry-oracle"
    tail_percentile = 70
    known_defects = frozenset()
    grid_points = 101
    reference_tol = 1e-9  # as in tests/test_acceptance.py

    def build(self, pkg, seed, workdir):
        ids = list(pkg.examples.EXAMPLE_IDS)
        order = _rng(self.name, seed).permutation(len(ids))
        references = {}
        for ex_id in ids:
            entry = pkg.examples.get_example(ex_id)
            if entry.has_reference:
                a, b = entry.bvp.domain
                xs = np.linspace(a, b, self.grid_points)
                references[ex_id] = (xs, pkg.examples.reference_values(ex_id, xs))
        return [(ids[k], references.get(ids[k])) for k in order]

    def op_mix(self, items):
        return {"entries": sorted(ex_id for ex_id, _ in items)}

    def op(self, pkg, item):
        return _run_cli(pkg, ["reproduce", "--example", item[0], "--oracle"])

    def check(self, pkg, item, output):
        ex_id, reference = item
        code, text = output
        if code != 0:
            return f"exit-{code}"
        if "overall: PASS" not in text:
            return "no-pass-verdict"
        if reference is None:
            return None
        entry = pkg.examples.get_example(ex_id)
        sol = pkg.exact.solve_exact(entry.bvp)
        printed = [float(line.rsplit("=", 1)[1]) for line in text.splitlines()
                   if line.startswith("  piece ")]
        if printed != [c for _, _, c in sol.labeled_constants()]:
            return "constants-mismatch"
        xs, ref = reference
        got = np.array([pkg.exact.eval_solution(sol, entry.bvp, float(x)) for x in xs])
        if not np.abs(got - ref).max() <= self.reference_tol:
            return "reference-mismatch"
        return None


# solve-sweep structure: index i fixes order, piece count and forcing degree;
# piece k of problem i gets a root family from a fixed 6-cycle.
SWEEP_ORDERS = (2, 3, 4)
SWEEP_PIECES = (1, 2, 3, 4, 6, 8, 12, 16)
SWEEP_FAMILIES = ("random", "random", "random", "random", "repeated", "complex")
SWEEP_POOL = 480  # 20 copies of the 24 order x piece-count structures


def _zeroed(i, k, j):
    """Fixed pattern zeroing 3 of every 10 random coefficients."""
    return (i * 5 + k * 3 + j * 7) % 10 < 3


def _sweep_coeffs(rng, n, family, i, k):
    if family == "random":
        c = rng.uniform(-2.0, 2.0, n)
        return tuple(0.0 if _zeroed(i, k, j) else float(c[j]) for j in range(n))
    if family == "repeated":
        r = rng.uniform(-2.0, 2.0)
        roots = [r, r]
    else:
        alpha, beta = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
        roots = [complex(alpha, beta), complex(alpha, -beta)]
    roots += list(rng.uniform(-2.0, 2.0, n - 2))
    # lambda^n - sum_j a_j lambda^j = prod (lambda - root)
    monic = np.real(np.poly(roots))[::-1]
    return tuple(float(-c) for c in monic[:-1])


def _cuts(rng, lo, length, pieces):
    widths = rng.uniform(0.5, 1.5, pieces)
    cuts = lo + length * np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    cuts[-1] = lo + length
    return [float(c) for c in cuts]


class SolveSweep:
    """``solve_exact`` on generated problems of order 2-4 with 1-16 pieces."""

    name = "solve-sweep"
    tail_percentile = 99
    known_defects = frozenset({"RankDeficientError", "InconsistentSystemError",
                               "tolerance"})

    def structure(self, i):
        order = SWEEP_ORDERS[i % len(SWEEP_ORDERS)]
        pieces = SWEEP_PIECES[(i // len(SWEEP_ORDERS)) % len(SWEEP_PIECES)]
        degree = (i // (len(SWEEP_ORDERS) * len(SWEEP_PIECES))) % 4
        families = tuple(SWEEP_FAMILIES[(i * 7 + k) % len(SWEEP_FAMILIES)]
                         for k in range(pieces))
        return order, pieces, degree, families

    def build(self, pkg, seed, workdir):
        model = pkg.model
        rng = _rng(self.name, seed)
        pool = []
        for i in range(SWEEP_POOL):
            n, count, degree, families = self.structure(i)
            cuts = _cuts(rng, rng.uniform(-1.0, 0.0), rng.uniform(1.0, math.pi), count)
            pieces = tuple(
                model.PieceOde(n, (cuts[k], cuts[k + 1]),
                               _sweep_coeffs(rng, n, families[k], i, k),
                               tuple(float(q) for q in rng.uniform(-2.0, 2.0, degree + 1)))
                for k in range(count))
            a, b = cuts[0], cuts[-1]
            conditions = [model.PointCondition(a, j, float(rng.uniform(-1.0, 1.0)))
                          for j in range((n + 1) // 2)]
            conditions += [model.PointCondition(b, j, float(rng.uniform(-1.0, 1.0)))
                           for j in range(n // 2)]
            pool.append(model.PiecewiseBvp(n, pieces, tuple(conditions),
                                           model.ContinuitySpec(frozenset(range(n)))))
        return pool

    def op_mix(self, items):
        mix = {}
        for bvp in items:
            key = f"order{bvp.order}-pieces{len(bvp.pieces)}"
            mix[key] = mix.get(key, 0) + 1
        return mix

    def op(self, pkg, bvp):
        return pkg.exact.solve_exact(bvp)

    def check(self, pkg, bvp, sol):
        constants = np.concatenate([p.constants for p in sol.pieces])
        if not np.all(np.isfinite(constants)):
            return "non-finite"
        return None if _within_profile(pkg, sol, bvp) else "tolerance"


OBSTACLE_POOL = 12
OBSTACLE_REGIONS = 16
OBSTACLE_SAMPLES = 2001
OBSTACLE_SPOT_EVERY = 50  # CSV rows compared with a fresh solution


class ObstacleExport:
    """``solve --input <file> --output <csv> --samples 2001`` on 16-region
    penalty-reformulated obstacles."""

    name = "obstacle-export"
    tail_percentile = 90
    known_defects = frozenset()

    def build(self, pkg, seed, workdir):
        penalty, model = pkg.penalty, pkg.model
        rng = _rng(self.name, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        pool = []
        for j in range(OBSTACLE_POOL):
            cuts = _cuts(rng, 0.0, rng.uniform(1.0, math.pi), OBSTACLE_REGIONS)
            contact = rng.permutation([True, False] * (OBSTACLE_REGIONS // 2))
            regions = tuple(
                ((cuts[k], cuts[k + 1]),
                 1.0 if contact[k] else float(rng.uniform(-2.0, 0.5)))
                for k in range(OBSTACLE_REGIONS))
            problem = penalty.PenaltyProblem(
                obstacle=penalty.Obstacle(regions),
                force=float(rng.uniform(-2.0, 2.0)),
                conditions=(model.PointCondition(cuts[0], 0, 0.0),
                            model.PointCondition(cuts[-1], 0, 0.0)),
            )
            bvp = penalty.reformulate(problem)
            path = workdir / f"problem-{j:02d}.json"
            path.write_text(json.dumps(_problem_file(bvp)))
            pool.append((bvp, str(path), str(workdir / f"solution-{j:02d}.csv")))
        return pool

    def op_mix(self, items):
        return {"problems": len(items),
                "regions": sorted({len(bvp.pieces) for bvp, _, _ in items}),
                "contact": sorted({sum(p.coeffs[0] != 0.0 for p in bvp.pieces)
                                   for bvp, _, _ in items})}

    def op(self, pkg, item):
        _, problem, csv = item
        return _run_cli(pkg, ["solve", "--input", problem, "--output", csv,
                              "--samples", str(OBSTACLE_SAMPLES)])

    def check(self, pkg, item, output):
        bvp, _, csv = item
        code, _ = output
        if code != 0:
            return f"exit-{code}"
        try:
            lines = Path(csv).read_text().splitlines()
            header = lines[0].split(",")
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        except (OSError, ValueError, IndexError):
            return "csv-unparsable"
        if header != ["x", "piece", "u", "du1"] or rows.shape != (OBSTACLE_SAMPLES, 4):
            return "csv-shape"
        if not np.all(np.isfinite(rows)):
            return "csv-non-finite"
        profile = pkg.verify.DEFAULT_PROFILE
        ends = (rows[0, 2], rows[-1, 2])
        if any(not abs(u - c.value) <= profile.condition
               for u, c in zip(ends, bvp.conditions)):
            return "csv-condition"
        sol = pkg.exact.solve_exact(bvp)
        if not _within_profile(pkg, sol, bvp):
            return "tolerance"
        for x, piece, *values in rows[::OBSTACLE_SPOT_EVERY]:
            expected = [sol.pieces[int(piece)].value(x, j) for j in range(len(values))]
            if not np.allclose(values, expected, rtol=1e-12, atol=1e-12):
                return "csv-values"
        return None


def _problem_file(bvp) -> dict:
    """Problem-file dictionary in the format the CLI documents.  Written here
    rather than by ``cli.export_problem`` so that the input does not depend
    on the code under test."""
    return {
        "order": bvp.order,
        "pieces": [{"interval": list(p.interval), "coeffs": list(p.coeffs),
                    "forcing": list(p.forcing)} for p in bvp.pieces],
        "conditions": [{"x": c.location, "deriv": c.deriv_order, "value": c.value}
                       for c in bvp.conditions],
        "continuity": sorted(bvp.continuity.enforced_orders),
    }


WORKLOADS = {w.name: w for w in (RegistryOracle(), SolveSweep(), ObstacleExport())}
