"""Machine-checkable verification of solved problems.

Checks the three things a closed-form answer must satisfy (ODE residual on
every piece, enforced interface continuity, point conditions) plus an
optional exact-vs-oracle delta, and folds them into one pass/fail report
against a tolerance profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exact import PiecewiseSolution, SolveError, eval_solution
from .model import PiecewiseBvp, PointCondition, ProblemError
from .oracle import NumericSolution, sample


@dataclass(frozen=True)
class ToleranceProfile:
    residual: float = 1e-8
    jump: float = 1e-9
    condition: float = 1e-9
    oracle_delta: float = 1e-6


DEFAULT_PROFILE = ToleranceProfile()


@dataclass(frozen=True)
class JumpEntry:
    breakpoint: float
    order: int
    jump: float
    enforced: bool


@dataclass(frozen=True)
class VerificationReport:
    piece_residuals: tuple[float, ...]
    jumps: tuple[JumpEntry, ...]
    condition_violations: tuple[float, ...]
    oracle_delta: float | None
    profile: ToleranceProfile
    residual_scale: float

    @property
    def passed(self) -> bool:
        if any(r > self.profile.residual * self.residual_scale
               for r in self.piece_residuals):
            return False
        if any(j.enforced and j.jump > self.profile.jump for j in self.jumps):
            return False
        if any(v > self.profile.condition for v in self.condition_violations):
            return False
        if self.oracle_delta is not None and self.oracle_delta > self.profile.oracle_delta:
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "piece_residuals": list(self.piece_residuals),
            "residual_scale": self.residual_scale,
            "jumps": [
                {"breakpoint": j.breakpoint, "order": j.order,
                 "jump": j.jump, "enforced": j.enforced}
                for j in self.jumps
            ],
            "condition_violations": list(self.condition_violations),
            "oracle_delta": self.oracle_delta,
            "tolerances": {
                "residual": self.profile.residual,
                "jump": self.profile.jump,
                "condition": self.profile.condition,
                "oracle_delta": self.profile.oracle_delta,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_table(self) -> str:
        lines = ["check                          value         tolerance    status"]
        tol_r = self.profile.residual * self.residual_scale
        for k, r in enumerate(self.piece_residuals):
            lines.append(f"residual piece {k:<2}              {r:<13.3e} {tol_r:<12.1e}"
                         f" {'ok' if r <= tol_r else 'FAIL'}")
        for j in self.jumps:
            tag = "enforced" if j.enforced else "info"
            status = ("ok" if j.jump <= self.profile.jump else "FAIL") if j.enforced else "-"
            lines.append(f"jump x={j.breakpoint:<7g} order {j.order} ({tag:<8})"
                         f" {j.jump:<13.3e} {self.profile.jump:<12.1e} {status}")
        for i, v in enumerate(self.condition_violations):
            lines.append(f"condition {i:<2}                   {v:<13.3e}"
                         f" {self.profile.condition:<12.1e}"
                         f" {'ok' if v <= self.profile.condition else 'FAIL'}")
        if self.oracle_delta is not None:
            ok = self.oracle_delta <= self.profile.oracle_delta
            lines.append(f"oracle max delta               {self.oracle_delta:<13.3e}"
                         f" {self.profile.oracle_delta:<12.1e} {'ok' if ok else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def residual_report(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                    samples_per_piece: int = 1000) -> tuple[float, ...]:
    """Per-piece max of |u^(n) - sum_j a_j u^(j) - q| on interior samples."""
    if samples_per_piece < 2:
        raise ProblemError("samples_per_piece must be at least 2")
    n = bvp.order
    out = []
    for piece, psol in zip(bvp.pieces, sol.pieces):
        xs = np.linspace(piece.lo, piece.hi, samples_per_piece + 2)[1:-1]
        r = psol.value(xs, n) - piece.forcing_value(xs)
        for j, aj in enumerate(piece.coeffs):
            if aj != 0.0:
                r -= aj * psol.value(xs, j)
        out.append(float(np.abs(r).max()))
    return tuple(out)


def solution_scale(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                   samples_per_piece: int = 100) -> float:
    """1 + max|u| over the domain, the natural residual normalization."""
    return 1.0 + max(
        float(np.abs(psol.value(np.linspace(piece.lo, piece.hi, samples_per_piece))).max())
        for piece, psol in zip(bvp.pieces, sol.pieces))


def continuity_report(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[JumpEntry, ...]:
    """Jumps across every interior breakpoint for every order 0..n-1.

    Orders outside the enforced continuity set are reported too, flagged
    informational; they never fail a profile.  Each piece is evaluated once
    per order at both of its ends.
    """
    if not bvp.interior_breakpoints:
        return ()
    # ends[j][k] = (u_k^(j)(lo_k), u_k^(j)(hi_k))
    ends = [[psol.value(np.array(piece.interval), j)
             for piece, psol in zip(bvp.pieces, sol.pieces)]
            for j in range(bvp.order)]
    return tuple(JumpEntry(x, j, abs(ends[j][k][1] - ends[j][k + 1][0]),
                           j in bvp.continuity.enforced_orders)
                 for k, x in enumerate(bvp.interior_breakpoints)
                 for j in range(bvp.order))


def condition_report(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[float, ...]:
    out = []
    for cond in bvp.conditions:
        k = bvp.owning_piece(cond.location, side="left")
        out.append(abs(sol.pieces[k].value(cond.location, cond.deriv_order) - cond.value))
    return tuple(out)


def compare_solutions(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                      numeric: NumericSolution, grid_points: int = 2001) -> float:
    """Max |exact - oracle| over a uniform grid spanning the shared domain."""
    a, b = bvp.domain
    na, nb = numeric.domain
    if abs(a - na) > 1e-12 or abs(b - nb) > 1e-12:
        raise ProblemError(
            f"domain mismatch: exact on [{a}, {b}], numeric on [{na}, {nb}]"
        )
    xs = np.linspace(a, b, grid_points)
    return float(np.abs(eval_solution(sol, bvp, xs) - sample(numeric, xs)).max())


def pin_anchors(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[PointCondition, ...]:
    """One anchor condition per pin, for cross-checking pinned problems.

    A pin fixes a basis constant, which has no counterpart among the shooting
    oracle's initial-state unknowns.  Each pin contributes exactly one scalar
    of freedom, so anchoring the closed-form solution's value at the pinned
    piece's midpoint transfers the selection while leaving every other
    figure of the comparison independent.
    """
    anchors = []
    for pin in bvp.pins:
        piece = bvp.pieces[pin.piece_index]
        x = 0.5 * (piece.lo + piece.hi)
        value = sol.pieces[pin.piece_index].value(x, 0)
        if not np.isfinite(value):
            raise SolveError(f"closed-form solution is non-finite (overflow) at "
                             f"x = {x:g} in piece {pin.piece_index}, so the "
                             f"oracle cannot be anchored there")
        anchors.append(PointCondition(x, 0, value))
    return tuple(anchors)


def verification_report(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                        numeric: NumericSolution | None = None,
                        profile: ToleranceProfile = DEFAULT_PROFILE,
                        samples_per_piece: int = 1000) -> VerificationReport:
    """Full report: residuals, jumps, conditions and (optionally) oracle delta."""
    delta = compare_solutions(sol, bvp, numeric) if numeric is not None else None
    return VerificationReport(
        piece_residuals=residual_report(sol, bvp, samples_per_piece),
        jumps=continuity_report(sol, bvp),
        condition_violations=condition_report(sol, bvp),
        oracle_delta=delta,
        profile=profile,
        residual_scale=solution_scale(sol, bvp),
    )
