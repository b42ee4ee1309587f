"""Independent numeric oracle: linear shooting with RK4 fundamental solutions.

Each piece's companion system is integrated with classic fixed-step RK4 from
n unit initial states (homogeneous) plus one zero state carrying the forcing
(particular).  By linearity the global solution is affine in the per-piece
initial states, so the same condition/continuity row semantics as the exact
matcher apply, with numerically integrated values in place of basis
evaluations.  This module deliberately shares no root-finding, basis or
particular-solution code with the closed-form path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import MatchSystem, gauss_solve
from .model import PiecewiseBvp, PieceOde, PointCondition, ProblemError

DEFAULT_STEP = 1e-3


class IntegrationError(RuntimeError):
    """RK4 produced non-finite values (blow-up)."""


def _companion_rhs(piece: PieceOde, forced: bool):
    coeffs = np.asarray(piece.coeffs)
    forcing = piece.forcing

    def rhs(x, y):
        dy = np.empty_like(y)
        dy[:-1] = y[1:]
        top = float(coeffs @ y)
        if forced:
            top += float(np.polynomial.polynomial.polyval(x, forcing))
        dy[-1] = top
        return dy

    return rhs


def _rk4_path(rhs, x0: float, x1: float, y0: np.ndarray, h: float):
    """Classic RK4 from x0 to x1 (fixed step, last step shortened).

    Returns (xs, ys) with ys[i] the state at xs[i].
    """
    if h <= 0:
        raise ProblemError(f"step h must be positive, got {h}")
    xs = [x0]
    ys = [np.array(y0, dtype=float)]
    x, y = x0, np.array(y0, dtype=float)
    while x < x1 - 1e-15 * max(1.0, abs(x1)):
        step = min(h, x1 - x)
        k1 = rhs(x, y)
        k2 = rhs(x + step / 2, y + step / 2 * k1)
        k3 = rhs(x + step / 2, y + step / 2 * k2)
        k4 = rhs(x + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x = min(x + step, x1)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"integration blew up near x = {x}")
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


@dataclass(frozen=True)
class FundamentalTrajectory:
    """Sampled fundamental matrix and particular trajectory on one piece."""

    xs: np.ndarray           # grid, lo..hi
    homogeneous: np.ndarray  # shape (len(xs), n, n); [:, :, j] = j-th unit solution
    particular: np.ndarray   # shape (len(xs), n)

    def end_matrix(self) -> np.ndarray:
        return self.homogeneous[-1]

    def end_particular(self) -> np.ndarray:
        return self.particular[-1]


def integrate_fundamental(piece: PieceOde, h: float = DEFAULT_STEP) -> FundamentalTrajectory:
    """Integrate the n unit initial states (unforced) and one forced zero state."""
    n = piece.order
    rhs_h = _companion_rhs(piece, forced=False)
    rhs_f = _companion_rhs(piece, forced=True)
    xs = None
    homo = []
    for j in range(n):
        y0 = np.zeros(n)
        y0[j] = 1.0
        xs, ys = _rk4_path(rhs_h, piece.lo, piece.hi, y0, h)
        homo.append(ys)
    _, part = _rk4_path(rhs_f, piece.lo, piece.hi, np.zeros(n), h)
    homogeneous = np.stack(homo, axis=-1)  # (len(xs), n, n)
    return FundamentalTrajectory(xs, homogeneous, part)


def _state_at(piece: PieceOde, x: float, h: float):
    """Fundamental matrix and particular state at an arbitrary x in the piece."""
    n = piece.order
    if x == piece.lo:
        return np.eye(n), np.zeros(n)
    rhs_h = _companion_rhs(piece, forced=False)
    rhs_f = _companion_rhs(piece, forced=True)
    cols = []
    for j in range(n):
        y0 = np.zeros(n)
        y0[j] = 1.0
        _, ys = _rk4_path(rhs_h, piece.lo, x, y0, h)
        cols.append(ys[-1])
    _, part = _rk4_path(rhs_f, piece.lo, x, np.zeros(n), h)
    return np.stack(cols, axis=-1), part[-1]


@dataclass(frozen=True)
class NumericSolution:
    """Stitched grid solution of the state vector (u, u', ..., u^(n-1))."""

    grid: np.ndarray
    states: np.ndarray  # shape (len(grid), n)
    step: float
    piece_trajectories: tuple  # per piece: (xs, ys, top_derivative)
    breakpoints: tuple[float, ...]

    @property
    def order(self) -> int:
        return self.states.shape[1]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])


def shooting_solve(bvp: PiecewiseBvp, h: float = DEFAULT_STEP,
                   anchors: tuple[PointCondition, ...] = ()) -> NumericSolution:
    """Multipoint solve by superposition of RK4 fundamental solutions.

    Unknowns are the n initial-state components of every piece.  Pins on
    basis constants cannot be expressed in these unknowns; for pinned
    problems pass ``anchors`` (extra point conditions fixing the free
    parameters, e.g. sampled from a reference solution).
    """
    if bvp.pins:
        raise ProblemError(
            "basis-constant pins are not expressible in shooting unknowns; "
            "replace them with anchor point conditions"
        )
    n = bvp.order
    n_pieces = len(bvp.pieces)
    width = n * n_pieces
    labels = tuple((k, i) for k in range(n_pieces) for i in range(n))
    trajectories = [integrate_fundamental(p, h) for p in bvp.pieces]

    rows, rhs, row_labels = [], [], []
    for cond in list(bvp.conditions) + list(anchors):
        k = bvp.owning_piece(cond.location, side="left")
        piece = bvp.pieces[k]
        if cond.location == piece.hi:
            phi, part = trajectories[k].end_matrix(), trajectories[k].end_particular()
        else:
            phi, part = _state_at(piece, cond.location, h)
        row = np.zeros(width)
        row[k * n:(k + 1) * n] = phi[cond.deriv_order]
        rows.append(row)
        rhs.append(cond.value - part[cond.deriv_order])
        row_labels.append(f"u^({cond.deriv_order})({cond.location:g}) = {cond.value:g}")

    for k, x in enumerate(bvp.interior_breakpoints):
        phi = trajectories[k].end_matrix()
        part = trajectories[k].end_particular()
        for j in bvp.continuity.sorted_orders:
            row = np.zeros(width)
            row[k * n:(k + 1) * n] = phi[j]
            row[(k + 1) * n + j] = -1.0
            rows.append(row)
            rhs.append(-part[j])
            row_labels.append(f"continuity order {j} at x = {x:g}")

    system = MatchSystem(np.array(rows), np.array(rhs, dtype=float),
                         labels, tuple(row_labels))
    result = gauss_solve(system)

    piece_trajs = []
    grid_parts, state_parts = [], []
    for k, (piece, traj) in enumerate(zip(bvp.pieces, trajectories)):
        s = result.constants[k * n:(k + 1) * n]
        ys = traj.homogeneous @ s + traj.particular
        forcing_vals = np.polynomial.polynomial.polyval(traj.xs, piece.forcing)
        top = ys @ np.asarray(piece.coeffs) + forcing_vals  # y_{n-1}' from the ODE
        piece_trajs.append((traj.xs, ys, top))
        if k == 0:
            grid_parts.append(traj.xs)
            state_parts.append(ys)
        else:
            # Shared breakpoint node keeps the right piece's state (half-open
            # interval convention, matching exact.eval_solution ownership).
            grid_parts.append(traj.xs[1:])
            state_parts.append(ys[1:])
            state_parts[-2] = state_parts[-2].copy()
            state_parts[-2][-1] = ys[0]
    grid = np.concatenate(grid_parts)
    states = np.vstack(state_parts)
    return NumericSolution(grid, states, h, tuple(piece_trajs), bvp.breakpoints)


def _hermite(x, x0, x1, v0, v1, d0, d1):
    t = (x - x0) / (x1 - x0)
    dh = x1 - x0
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * v0 + h10 * dh * d0 + h01 * v1 + h11 * dh * d1


def sample(sol: NumericSolution, x, deriv_order: int = 0):
    """Cubic Hermite interpolation of one state component at a scalar or an
    array x.

    Each derivative order j uses state component j as values and component
    j+1 (or the ODE right-hand side for the top component) as slopes.
    Breakpoints belong to the right piece.
    """
    x = np.asarray(x, dtype=float)
    a, b = sol.domain
    outside = x[~((a <= x) & (x <= b))]
    if outside.size:
        raise ProblemError(f"x = {outside[0]} outside [{a}, {b}]")
    n = sol.order
    if not 0 <= deriv_order < n:
        raise ProblemError(f"derivative order {deriv_order} outside [0, {n - 1}]")
    owner = np.searchsorted(sol.breakpoints[1:-1], x, side="right")
    out = np.empty(x.shape)
    for k in np.unique(owner):
        mask = owner == k
        xs, ys, top = sol.piece_trajectories[k]
        values = ys[:, deriv_order]
        slopes = ys[:, deriv_order + 1] if deriv_order + 1 < n else top
        # Interval [xs[i], xs[i+1]] holding x; a grid node is its interval's
        # left end (t = 0, the node value exactly), the piece end t = 1.
        i = np.minimum(np.searchsorted(xs, x[mask], side="right"), len(xs) - 1) - 1
        out[mask] = _hermite(x[mask], xs[i], xs[i + 1], values[i], values[i + 1],
                             slopes[i], slopes[i + 1])
    return out[()]
