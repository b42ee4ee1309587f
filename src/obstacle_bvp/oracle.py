"""Independent numeric oracle: linear shooting with RK4 fundamental solutions.

Each piece's companion state y = (u, ..., u^(n-1)) is extended by the
forcing's monomials w_k = (x - lo)^k / k!, so the forced ODE becomes the
constant linear system z' = Â z.  Classic fixed-step RK4 on it is one matrix
T̂ per full step; the node states T̂^i, whose first n rows hold the
fundamental matrix and the particular, come from ceil(log2 m) doubling
passes, and a shortened step is one more matrix.  By linearity the global
solution is affine in the per-piece initial states, so the exact matcher's
condition/continuity row semantics apply, with integrated values in place
of basis evaluations.  This module deliberately shares no root-finding,
basis or particular-solution code with the closed-form path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exact import MatchSystem, gauss_solve
from .model import PiecewiseBvp, PieceOde, ProblemError

DEFAULT_STEP = 1e-3

# RK4 steps over a whole domain.  Every piece's trajectory is held at once,
# so the cap is on the domain, not the piece; the default step still covers
# a domain of length 1e3.  A node holds n·(n + d) doubles for order n and d
# forcing coefficients: 44 for order 4 with degree-6 forcing, 352 MiB at
# the cap.
MAX_STEPS = 2 ** 20


class IntegrationError(RuntimeError):
    """RK4 produced non-finite values (blow-up)."""


def _generator(piece: PieceOde) -> np.ndarray:
    """Â of z' = Â z for z = (u, ..., u^(n-1), w_(d-1), ..., w_0), where
    w_k = (x - lo)^k / k! and d = len(forcing): the companion rows, the ODE
    row taking q(x) = sum_k q^(k)(lo) w_k, and the shift w_k' = w_(k-1)."""
    n, lo, q, taylor = piece.order, piece.lo, [float(c) for c in piece.forcing], []
    while q:  # q^(k)(lo) in numpy polyder's and polyval's operation order
        taylor.append(functools.reduce(lambda v, c: c + v * lo, q[-2::-1], q[-1] + lo * 0))
        q = [j * q[j] for j in range(1, len(q))]
    a = np.eye(n + len(taylor), k=1)
    a[n - 1] = [*piece.coeffs, *taylor[::-1]]
    return a


def _rk4_map(a: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of length h on z' = A z: with M = hA,
    T = I + M + M²/2 + M³/6 + M⁴/24."""
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    return np.eye(len(a)) + m + m2 / 2 + m3 / 6 + m3 @ m / 24


@dataclass(frozen=True)
class FundamentalTrajectory:
    """First n rows of T̂^i at every node of one piece, with the piece's Â."""

    xs: np.ndarray         # grid, lo..hi
    states: np.ndarray     # shape (len(xs), n, n + d)
    generator: np.ndarray  # Â, shape (n + d, n + d)

    @property
    def homogeneous(self) -> np.ndarray:  # [:, :, j]: the j-th unit solution
        return self.states[:, :, :self.states.shape[1]]

    @property
    def particular(self) -> np.ndarray:  # the solution from the zero state at lo
        return self.states[:, :, -1]


@np.errstate(over="ignore", invalid="ignore")
def integrate_fundamental(piece: PieceOde, h: float = DEFAULT_STEP) -> FundamentalTrajectory:
    """RK4 with step h on z' = Â z from the n unit states y = e_j (w = 0) and
    the forcing state y = 0, w_0 = 1.  Every full step is the matrix T̂, so
    node i < m holds the first n rows of T̂^i, built by doubling: pass s sets
    nodes s..2s-1 to nodes 0..s-1 times T̂^s.  The shortened last step maps
    node m - 1 to hi as a right product, since step matrices commute.
    """
    if not (math.isfinite(h) and h > 0):
        raise ProblemError(f"step h must be positive and finite, got {h}")
    n, lo, hi = piece.order, piece.lo, piece.hi
    # Grid: nodes lo + i·h strictly below hi, then hi (a shortened last step).
    # Node lo stays even on a piece narrower than the cut-off below hi.
    xs = lo + h * np.arange(int((hi - lo) / h) + 2)
    keep = xs < hi - 1e-15 * max(1.0, abs(hi))
    keep[0] = True
    xs = np.append(xs[keep], hi)
    a = _generator(piece)
    m, width = len(xs) - 1, len(a)
    states = np.empty((m + 1, n, width))
    states[0] = np.eye(n, width)
    rows = states.reshape(-1, width)  # node i is rows i·n to (i+1)·n: one product per pass
    s, power = 1, _rk4_map(a, h)
    while s < m:
        k = min(s, m - s)
        rows[s * n:(s + k) * n] = rows[:k * n] @ power
        s, power = 2 * s, power @ power
    states[m] = states[m - 1] @ _rk4_map(a, xs[-1] - xs[-2])
    bad = ~np.isfinite(states).all(axis=(1, 2))
    if bad.any():
        raise IntegrationError(f"integration blew up near x = {xs[np.argmax(bad)]}")
    return FundamentalTrajectory(xs, states, a)


def _partial_step(traj: FundamentalTrajectory, x: float):
    """Fundamental matrix and particular state at x in the piece: one partial
    RK4 step of length x - xs[i] from the grid node xs[i] at or below x."""
    i = int(np.searchsorted(traj.xs, x, side="right")) - 1
    state = traj.states[i] @ _rk4_map(traj.generator, x - traj.xs[i])
    return state[:, :len(state)], state[:, -1]


@dataclass(frozen=True)
class NumericSolution:
    """Per-piece grid solutions of the state vector (u, u', ..., u^(n-1))."""

    piece_trajectories: tuple  # per piece: (xs, ys, top_derivative)
    breakpoints: tuple[float, ...]

    @property
    def order(self) -> int:
        return self.piece_trajectories[0][1].shape[1]

    @property
    def domain(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]


@np.errstate(over="ignore", invalid="ignore")
def shooting_solve(bvp: PiecewiseBvp, h: float = DEFAULT_STEP) -> NumericSolution:
    """Multipoint solve by superposition of RK4 fundamental solutions.

    Unknowns are the n initial-state components of every piece.  Pins on
    basis constants cannot be expressed in these unknowns, so a pinned
    problem must first trade its pins for anchor point conditions fixing the
    same free parameters (see :func:`obstacle_bvp.verify.pin_anchors`).
    """
    if bvp.pins:
        raise ProblemError(
            "basis-constant pins are not expressible in shooting unknowns; "
            "replace them with anchor point conditions"
        )
    a, b = bvp.domain
    if not b - a <= MAX_STEPS * h:
        raise ProblemError(f"step h must be positive and at least {(b - a) / MAX_STEPS:.3g} "
                           f"(at most {MAX_STEPS} RK4 steps on [{a:g}, {b:g}]), got {h}")
    n = bvp.order
    trajectories = [integrate_fundamental(p, h) for p in bvp.pieces]

    # These rows repeat the row semantics of exact.assemble_system on
    # purpose: sharing that code would make the oracle depend on the path it
    # checks.  Each row is kept as a band from its first piece's first
    # column, -0.0 read as +0.0.
    orders = bvp.continuity.sorted_orders
    rhs, bands = np.zeros(len(bvp.conditions) + (len(trajectories) - 1) * len(orders)), []
    for r, cond in enumerate(bvp.conditions):
        k = int(bvp.owning_piece(cond.location, side="left"))
        phi, part = _partial_step(trajectories[k], cond.location)
        rhs[r] = cond.value - part[cond.deriv_order]
        bands.append((k * n, (phi[cond.deriv_order] + 0.0).tolist()))

    r = len(bvp.conditions)
    for k, traj in enumerate(trajectories[:-1]):
        for j in orders:
            rhs[r] = -traj.particular[-1, j]
            bands.append((k * n, (traj.homogeneous[-1, j] + 0.0).tolist() + [0.0] * j + [-1.0]))
            r += 1

    result = gauss_solve(MatchSystem(bands, rhs, n * len(bvp.pieces), n, bvp))

    piece_trajs = []
    for k, (piece, traj) in enumerate(zip(bvp.pieces, trajectories)):
        s = result.constants[k * n:(k + 1) * n]
        ys = traj.homogeneous @ s + traj.particular
        forcing_vals = np.polynomial.polynomial.polyval(traj.xs, piece.forcing)
        top = ys @ np.asarray(piece.coeffs) + forcing_vals  # y_{n-1}' from the ODE
        if not (np.isfinite(ys).all() and np.isfinite(top).all()):
            raise IntegrationError(f"oracle solution blew up (overflow) on piece {k}")
        piece_trajs.append((traj.xs, ys, top))
    return NumericSolution(tuple(piece_trajs), bvp.breakpoints)


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
    array x, in one pass over the node grids of all pieces end to end.

    Each derivative order j uses state component j as values and component
    j+1 (or the ODE right-hand side for the top component) as slopes.
    Breakpoints belong to the right piece: a breakpoint is both the last
    node of piece k and the first of piece k + 1, and the search from the
    right takes the interval that starts at the second, so x there is
    piece k + 1's node value exactly (t = 0).  Any other grid node is its
    interval's left end too; b, the last node, is the right end (t = 1).
    """
    x = np.asarray(x, dtype=float)
    a, b = sol.domain
    outside = x[~((a <= x) & (x <= b))]
    if outside.size:
        raise ProblemError(f"x = {outside[0]} outside [{a}, {b}]")
    n = sol.order
    if not 0 <= deriv_order < n:
        raise ProblemError(f"derivative order {deriv_order} outside [0, {n - 1}]")
    nodes = np.concatenate([xs for xs, _, _ in sol.piece_trajectories])
    values = np.concatenate([ys[:, deriv_order] for _, ys, _ in sol.piece_trajectories])
    slopes = np.concatenate([ys[:, deriv_order + 1] if deriv_order + 1 < n else top
                             for _, ys, top in sol.piece_trajectories])
    i = np.minimum(np.searchsorted(nodes, x, side="right"), len(nodes) - 1) - 1
    return _hermite(x, nodes[i], nodes[i + 1], values[i], values[i + 1],
                    slopes[i], slopes[i + 1])[()]
