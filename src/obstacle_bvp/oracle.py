"""Independent numeric oracle: linear shooting with RK4 fundamental solutions.

Each piece's companion state y = (u, ..., u^(n-1)) is extended by the
forcing's monomials w_k = (x - lo)^k / k!, so the forced ODE becomes the
constant linear system z' = Â z.  Classic fixed-step RK4 on it is one matrix
T̂ per full step; the node states T̂^i, whose first n rows hold the
fundamental matrix and the particular, come from ceil(log2 m) doubling
passes, and a shortened step is one more matrix.  All pieces of a solve are
integrated in one sweep: pieces of one state width n + d are stacked, each
padded to the longest piece of its stack, so a doubling pass is one stacked
matrix product and one stacked RK4 map call gives every step matrix, and
the Python work does not grow with the number of pieces.  A stacked product
is the same BLAS product per piece, so every node state has the bits a
sweep of that piece alone would give.  By linearity the global solution is
affine in the per-piece initial states, so the exact matcher's
condition/continuity row semantics apply, with integrated values in place
of basis evaluations.  This module deliberately shares no root-finding,
basis or particular-solution code with the closed-form path.
"""

from __future__ import annotations

import bisect
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
# the cap.  Padding (see _stacks) does not raise that worst case: a piece
# joins a stack only if it has at least half the nodes of the stack's
# longest piece, so a stack holds at most twice its real node states, and
# the padding of all stacks together stays within what the real nodes leave
# of MAX_STEPS, so the stacks hold at most max(real nodes, MAX_STEPS) nodes.
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


def _rk4_map(a: np.ndarray, h) -> np.ndarray:
    """One classic RK4 step of length h on z' = A z: with M = hA,
    T = I + M + M²/2 + M³/6 + M⁴/24.  Stacked generators take an h of
    shape (len(a), 1, 1), one step length each."""
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    return np.eye(a.shape[-1]) + m + m2 / 2 + m3 / 6 + m3 @ m / 24


def _step_count(piece: PieceOde, h: float) -> int:
    """m: nodes 0..m-1 of the piece's grid are lo + i·h, for i up to
    int((hi - lo) / h) + 1, strictly below a cut-off just under hi (node lo
    stays even on a piece narrower than that), and node m is hi, reached by
    a shortened last step.  The nodes increase with i, so a bisection
    counts them."""
    lo, hi = piece.interval
    cut = hi - 1e-15 * max(1.0, abs(hi))
    below = bisect.bisect_left(range(int((hi - lo) / h) + 2), True,
                               key=lambda i: lo + h * i >= cut)
    return max(1, below)


def _stacks(widths, steps) -> list[list[int]]:
    """Piece indices in stacks of one state width, longest piece first.  A
    piece joins the stack of the one before it when it has at least half
    the stack's longest node count and its padding fits in what the real
    nodes leave of MAX_STEPS; otherwise it starts a stack."""
    spare = MAX_STEPS - sum(steps) - len(steps)
    stacks = []
    for k in sorted(range(len(steps)), key=lambda k: (widths[k], -steps[k])):
        head = stacks[-1][0] if stacks else None
        pad = 0 if head is None else steps[head] - steps[k]
        if (head is not None and widths[head] == widths[k]
                and 2 * (steps[k] + 1) >= steps[head] + 1 and pad <= spare):
            stacks[-1].append(k)
            spare -= pad
        else:
            stacks.append([k])
    return stacks


@dataclass(frozen=True)
class FundamentalTrajectory:
    """First n rows of T̂^i at every node of one piece: states[:, :, j] for
    j < n is the j-th unit solution."""

    xs: np.ndarray         # grid, lo..hi
    states: np.ndarray     # shape (len(xs), n, n + d)

    @property
    def particular(self) -> np.ndarray:  # the solution from the zero state at lo
        return self.states[:, :, -1]


@np.errstate(over="ignore", invalid="ignore")
def integrate_fundamental(pieces, h: float, owner: np.ndarray, where: np.ndarray):
    """RK4 with step h on every piece's z' = Â z from the n unit states
    y = e_j (w = 0) and the forcing state y = 0, w_0 = 1, and the states at
    the points where[c] of the pieces owner[c].

    Returns (one FundamentalTrajectory per piece, an array of shape
    (len(where), n, n + 1) holding each point's fundamental matrix and then
    its particular state).  Every full step is the matrix T̂, so node
    i < m holds the first n rows of T̂^i, built by doubling: pass s sets
    nodes s..2s-1 to nodes 0..s-1 times T̂^s, one stacked product over the
    pieces of a stack that still need nodes from s on.  The shortened last
    step maps node m - 1 to hi as a right product, since step matrices
    commute, and a point off the grid is one partial step from the node at
    or below it.  Only a piece's real nodes are checked for blow-up, so an
    overflow in the padding neither raises nor warns.
    """
    if not (math.isfinite(h) and h > 0):
        raise ProblemError(f"step h must be positive and finite, got {h}")
    n = pieces[0].order
    gens = [_generator(p) for p in pieces]
    steps = [_step_count(p, h) for p in pieces]
    stacks = _stacks([len(a) for a in gens], steps)
    xs, grids = [None] * len(pieces), []
    stack_of, row_of = np.empty(len(pieces), int), np.empty(len(pieces), int)
    for i, stack in enumerate(stacks):
        grid = np.array([[pieces[k].lo] for k in stack]) + h * np.arange(steps[stack[0]] + 1)
        for r, k in enumerate(stack):
            grid[r, steps[k]] = pieces[k].hi
            xs[k], stack_of[k], row_of[k] = grid[r, :steps[k] + 1], i, r
        grids.append(grid)
    # Each point's node: the last at or below it on its own piece.  In all
    # grids end to end, a piece's hi is also the next piece's lo, so the
    # search is clamped to the owning piece's last node.
    first = np.cumsum([0] + steps[:-1]) + np.arange(len(pieces))
    last = first[owner] + np.array(steps)[owner]
    node = np.minimum(np.searchsorted(np.concatenate(xs), where, side="right") - 1,
                      last) - first[owner]

    trajectories, at = [None] * len(pieces), np.empty((len(where), n, n + 1))
    blown = []
    for i, (stack, grid) in enumerate(zip(stacks, grids)):
        mine = np.flatnonzero(stack_of[owner] == i)
        rows, at_rows = np.arange(len(stack)), row_of[owner[mine]]
        m = np.array([steps[k] for k in stack])
        gen = np.array([gens[k] for k in stack])
        # Full steps, shortened last steps, then the points' partial steps.
        lengths = np.concatenate([np.full(len(stack), h), grid[rows, m] - grid[rows, m - 1],
                                  where[mine] - grid[at_rows, node[mine]]])
        maps = _rk4_map(gen[np.concatenate([rows, rows, at_rows])], lengths[:, None, None])
        top, width = steps[stack[0]], gen.shape[-1]
        # Padding a pass does not reach stays zero, so a finite stack needs
        # one check; otherwise only real nodes count.
        states = np.zeros((len(stack), top + 1, n, width))
        states[:, 0] = np.eye(n, width)
        flat = states.reshape(len(stack), -1, width)  # node i is rows i·n to (i+1)·n
        s, power = 1, maps[:len(stack)]
        while s < top:
            # The pieces that still need nodes from s on lead the stack.
            live, k = sum(steps[j] > s for j in stack), min(s, top - s)
            np.matmul(flat[:live, :k * n], power[:live], out=flat[:live, s * n:(s + k) * n])
            s, power = 2 * s, power[:live] @ power[:live]
        states[rows, m] = states[rows, m - 1] @ maps[len(stack):2 * len(stack)]
        if not np.isfinite(states).all():
            bad = ~np.isfinite(states).all(axis=(2, 3)) & (np.arange(top + 1) <= m[:, None])
            blown += [(k, xs[k][np.argmax(bad[r])]) for r, k in enumerate(stack) if bad[r].any()]
        point = states[at_rows, node[mine]] @ maps[2 * len(stack):]
        at[mine, :, :n], at[mine, :, n] = point[:, :, :n], point[:, :, -1]
        for r, k in enumerate(stack):
            trajectories[k] = FundamentalTrajectory(xs[k], states[r, :steps[k] + 1])
    if blown:
        raise IntegrationError(f"integration blew up near x = {min(blown)[1]}")
    return trajectories, at


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
    n, conds = bvp.order, bvp.conditions
    where = np.array([c.location for c in conds])
    owner = bvp.owning_piece(where, side="left")
    trajectories, at = integrate_fundamental(bvp.pieces, h, owner, where)

    # These rows repeat the row semantics of exact.assemble_system on
    # purpose: sharing that code would make the oracle depend on the path it
    # checks.  Each row is kept as a band from its first piece's first
    # column, -0.0 read as +0.0.
    orders = bvp.continuity.sorted_orders
    rhs = np.zeros(len(conds) + (len(trajectories) - 1) * len(orders))
    at = at[np.arange(len(conds)), [c.deriv_order for c in conds]]
    rhs[:len(conds)] = np.array([c.value for c in conds]) - at[:, n]
    bands = list(zip((owner * n).tolist(), (at[:, :n] + 0.0).tolist()))
    r = len(conds)
    for k, traj in enumerate(trajectories[:-1]):
        end = traj.states[-1]
        hom, part = (end[:, :n] + 0.0).tolist(), (-end[:, -1]).tolist()
        for j in orders:
            rhs[r] = part[j]
            bands.append((k * n, hom[j] + [0.0] * j + [-1.0]))
            r += 1

    constants = gauss_solve(MatchSystem(bands, rhs, n * len(bvp.pieces), n, bvp))

    piece_trajs = []
    for k, (piece, traj) in enumerate(zip(bvp.pieces, trajectories)):
        # One matrix-vector product over the rows of every node; each row's
        # dot is the one a product per node gives.
        rows = traj.states.reshape(-1, traj.states.shape[-1])[:, :n]
        ys = (rows @ constants[k * n:(k + 1) * n]).reshape(-1, n) + traj.particular
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
