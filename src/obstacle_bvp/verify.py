"""Machine-checkable verification of solved problems.

Checks the three things a closed-form answer must satisfy (ODE residual on
every piece, enforced interface continuity, point conditions) plus an
optional exact-vs-oracle delta, and folds them into one pass/fail report
against a tolerance profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exact import PiecewiseSolution, eval_solution
from .model import PiecewiseBvp, PointCondition, ProblemError, SolveError
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
    tolerances: ToleranceProfile
    residual_scale: float

    @cached_property
    def rows(self) -> list[tuple[str, float, float, str]]:
        """(label, value, tolerance, status) per table row, built on first
        read.  A check passes only when value <= tolerance, so a NaN fails;
        an informational jump never fails and shows status '-'."""
        p = self.tolerances
        checks = [(f"residual piece {k:<2}              ", r,
                   p.residual * self.residual_scale, True)
                  for k, r in enumerate(self.piece_residuals)]
        checks += [(f"jump x={j.breakpoint:<7g} order {j.order} "
                    f"({'enforced' if j.enforced else 'info':<8}) ",
                    j.jump, p.jump, j.enforced) for j in self.jumps]
        checks += [(f"condition {i:<2}                   ", v, p.condition, True)
                   for i, v in enumerate(self.condition_violations)]
        if self.oracle_delta is not None:
            checks.append(("oracle max delta               ", self.oracle_delta,
                           p.oracle_delta, True))
        return [(label, value, tol, ("ok" if value <= tol else "FAIL") if counted else "-")
                for label, value, tol, counted in checks]

    @property
    def passed(self) -> bool:
        return all(status != "FAIL" for *_, status in self.rows)

    def render_table(self) -> str:
        lines = ["check                          value         tolerance    status"]
        lines += [f"{label}{value:<13.3e} {tol:<12.1e} {status}"
                  for label, value, tol, status in self.rows]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def residual_report(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                    samples_per_piece: int = 1000) -> tuple[float, ...]:
    """Per-piece max of |u^(n) - sum_j a_j u^(j) - q| on interior samples."""
    if samples_per_piece < 2:
        raise ProblemError("samples_per_piece must be at least 2")
    out = []
    for k, piece in enumerate(bvp.pieces):
        xs = np.linspace(piece.lo, piece.hi, samples_per_piece + 2)[1:-1]
        orders = [j for j, aj in enumerate(piece.coeffs) if aj != 0.0]
        *lower, top = sol.evaluate(xs, k, orders + [bvp.order])
        r = top - piece.forcing_value(xs)
        for j, u in zip(orders, lower):
            r -= piece.coeffs[j] * u
        out.append(float(np.abs(r).max()))
    return tuple(out)


def solution_scale(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> float:
    """1 + max|u| over 100 points per piece, ends included: the natural
    residual normalization."""
    return 1.0 + max(
        float(np.abs(sol.evaluate(np.linspace(piece.lo, piece.hi, 100), k, [0])[0]).max())
        for k, piece in enumerate(bvp.pieces))


@np.errstate(invalid="ignore")
def matching_values(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[np.ndarray, np.ndarray]:
    """(misses, jumps) from one evaluate call over orders 0..n-1 at the
    conditions' points, on their (left) owning pieces, and at both ends of
    every piece: |u^(d)(x) - value| per point condition, and jumps[k, j] =
    |u^(j)(x_k-) - u^(j)(x_k+)| at interior breakpoint x_k.  An overflow gives
    a NaN, which fails, without a numpy warning."""
    conds = bvp.conditions
    where = np.array([c.location for c in conds])
    u = sol.evaluate(np.concatenate([where, np.array([p.interval for p in bvp.pieces]).ravel()]),
                     np.concatenate([bvp.owning_piece(where, side="left"),
                                     np.repeat(np.arange(len(bvp.pieces)), 2)]),
                     range(bvp.order))
    at, ends = u[:, :len(conds)], u[:, len(conds):]  # ends[j, 2k + 1] = u_k^(j)(hi_k)
    misses = np.abs(at[[c.deriv_order for c in conds], np.arange(len(conds))]
                    - [c.value for c in conds])
    return misses, np.abs(ends[:, 1:-1:2] - ends[:, 2::2]).T


def _jump_entries(bvp: PiecewiseBvp, jumps: np.ndarray) -> tuple[JumpEntry, ...]:
    """A JumpEntry per interior breakpoint and order of a jump table; orders
    outside the enforced continuity set are informational and never fail."""
    return tuple(JumpEntry(x, j, jump, j in bvp.continuity.enforced_orders)
                 for x, row in zip(bvp.interior_breakpoints, jumps.tolist())
                 for j, jump in enumerate(row))


def continuity_report(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[JumpEntry, ...]:
    """Jumps across every interior breakpoint for every order 0..n-1."""
    return _jump_entries(bvp, matching_values(sol, bvp)[1])


def condition_report(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[float, ...]:
    """|u^(d)(x) - value| per point condition, on the (left) owning piece."""
    return tuple(matching_values(sol, bvp)[0].tolist())


def compare_solutions(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                      numeric: NumericSolution) -> float:
    """Max |exact - oracle| over 2001 evenly spaced points of the shared domain."""
    a, b = bvp.domain
    na, nb = numeric.domain
    if abs(a - na) > 1e-12 or abs(b - nb) > 1e-12:
        raise ProblemError(
            f"domain mismatch: exact on [{a}, {b}], numeric on [{na}, {nb}]"
        )
    xs = np.linspace(a, b, 2001)
    return float(np.abs(eval_solution(sol, bvp, xs) - sample(numeric, xs)).max())


def pin_anchors(sol: PiecewiseSolution, bvp: PiecewiseBvp) -> tuple[PointCondition, ...]:
    """One anchor condition per pin, for cross-checking pinned problems.

    A pin fixes a basis constant, which has no counterpart among the shooting
    oracle's initial-state unknowns.  Each pin contributes exactly one scalar
    of freedom, so anchoring the closed-form value at a point of the pinned
    piece transfers the selection.  The j-th of p pins on a piece sits at
    ((p - j) lo + (j + 1) hi) / (p + 1): distinct points, a lone pin's midpoint.
    """
    anchors = []
    for i, pin in enumerate(bvp.pins):
        piece = bvp.pieces[pin.piece_index]
        same = [q.piece_index == pin.piece_index for q in bvp.pins]
        p, j = sum(same), sum(same[:i])
        x = ((p - j) * piece.lo + (j + 1) * piece.hi) / (p + 1)
        value = sol.evaluate(np.array(x), pin.piece_index, [0])[0][()]
        if not np.isfinite(value):
            raise SolveError(f"closed-form solution is non-finite (overflow) at "
                             f"x = {x:g} in piece {pin.piece_index}, so the "
                             f"oracle cannot be anchored there")
        anchors.append(PointCondition(x, 0, value))
    return tuple(anchors)


def verification_report(sol: PiecewiseSolution, bvp: PiecewiseBvp,
                        numeric: NumericSolution | None = None) -> VerificationReport:
    """Full report: residuals, jumps, conditions and (optionally) oracle delta."""
    delta = compare_solutions(sol, bvp, numeric) if numeric is not None else None
    misses, jumps = matching_values(sol, bvp)
    return VerificationReport(
        piece_residuals=residual_report(sol, bvp),
        jumps=_jump_entries(bvp, jumps),
        condition_violations=tuple(misses.tolist()),
        oracle_delta=delta,
        tolerances=DEFAULT_PROFILE,
        residual_scale=solution_scale(sol, bvp),
    )
