"""Independent numeric oracle: linear shooting with RK4 fundamental solutions.

Each piece's companion system is integrated with classic fixed-step RK4 from
n unit initial states (homogeneous) plus one zero state carrying the forcing
(particular).  One RK4 step is an exact affine map y -> T y + c_i with one T
for every full step, so the node states come from ceil(log2 m) doubling
passes; a condition off the grid is one partial step.  By linearity the
global solution is affine in the per-piece initial states, so the exact
matcher's condition/continuity row semantics apply, with integrated values in
place of basis evaluations.  This module deliberately shares no root-finding,
basis or particular-solution code with the closed-form path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import MatchSystem, gauss_solve
from .model import PiecewiseBvp, PieceOde, PointCondition, ProblemError

DEFAULT_STEP = 1e-3


class IntegrationError(RuntimeError):
    """RK4 produced non-finite values (blow-up)."""


def _companion(piece: PieceOde) -> np.ndarray:
    """Matrix A of the first-order system y' = A y + e_n q(x), y = (u, ..., u^(n-1))."""
    n = piece.order
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1] = piece.coeffs
    return a


def _step_maps(a: np.ndarray, h: float):
    """One classic RK4 step of length h on y' = A y + e_n q(x) as an affine map.

    Returns (T, B) with y(x + h) = T y(x) + B @ (q(x), q(x + h/2), q(x + h)):
    with M = hA, T = I + M + M²/2 + M³/6 + M⁴/24 and the columns of B are
    h/6·(I + M + M²/2 + M³/4) e_n, h/6·(4I + 2M + M²/2) e_n and h/6·e_n.
    """
    eye = np.eye(len(a))
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    t = eye + m + m2 / 2 + m3 / 6 + m3 @ m / 24
    b = h / 6 * np.column_stack([(eye + m + m2 / 2 + m3 / 4)[:, -1],
                                 (4 * eye + 2 * m + m2 / 2)[:, -1],
                                 eye[:, -1]])
    return t, b


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
    """RK4 on the grid of step h from the n unit initial states (unforced) and
    one zero state carrying the forcing.  Every full step is y -> T y + c_i,
    so node i < m holds Φ_i = T^i and p_i = sum_{j<i} T^(i-1-j) c_j, built by
    doubling: pass s sets Φ[s:2s] = Φ[:s] T^s and adds T^s p[i-s] to p[i],
    i >= s.  The shortened last step maps node m - 1 to hi.
    """
    if not (math.isfinite(h) and h > 0):
        raise ProblemError(f"step h must be positive and finite, got {h}")
    n, lo, hi = piece.order, piece.lo, piece.hi
    # Grid: nodes lo + i·h strictly below hi, then hi (a shortened last step).
    xs = lo + h * np.arange(int((hi - lo) / h) + 2)
    xs = np.append(xs[xs < hi - 1e-15 * max(1.0, abs(hi))], hi)
    a = _companion(piece)
    steps = np.diff(xs)
    steps[:-1] = h
    q = np.polynomial.polynomial.polyval(xs, piece.forcing)
    q_mid = np.polynomial.polynomial.polyval(xs[:-1] + steps / 2, piece.forcing)
    stages = np.column_stack([q[:-1], q_mid, q[1:]])
    m = len(steps)
    t, b = _step_maps(a, h)
    phi = np.empty((m + 1, n, n))
    phi[0] = np.eye(n)
    rows = phi.reshape(-1, n)  # node i is rows i·n to (i+1)·n: one product per pass
    part = np.zeros((m + 1, n))
    part[1:m] = stages[:-1] @ b.T
    with np.errstate(over="ignore", invalid="ignore"):
        s, power = 1, t
        while s < m:
            k = min(s, m - s)
            rows[s * n:(s + k) * n] = rows[:k * n] @ power
            part[s:m] += part[:m - s] @ power.T
            s, power = 2 * s, power @ power
        t, b = _step_maps(a, steps[-1])
        phi[m], part[m] = t @ phi[m - 1], t @ part[m - 1] + b @ stages[-1]
    bad = ~(np.isfinite(phi).all(axis=(1, 2)) & np.isfinite(part).all(axis=1))
    if bad.any():
        raise IntegrationError(f"integration blew up near x = {xs[np.argmax(bad)]}")
    return FundamentalTrajectory(xs, phi, part)


def _partial_step(piece: PieceOde, traj: FundamentalTrajectory, x: float):
    """Fundamental matrix and particular state at x in the piece: one partial
    RK4 step of length x - xs[i] from the grid node xs[i] at or below x."""
    i = int(np.searchsorted(traj.xs, x, side="right")) - 1
    x0 = traj.xs[i]
    t, b = _step_maps(_companion(piece), x - x0)
    q = np.polynomial.polynomial.polyval([x0, (x0 + x) / 2, x], piece.forcing)
    return t @ traj.homogeneous[i], t @ traj.particular[i] + b @ q


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
        phi, part = _partial_step(bvp.pieces[k], trajectories[k], cond.location)
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
