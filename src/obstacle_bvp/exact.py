"""Closed-form piecewise solver.

Per piece: a particular polynomial by undetermined coefficients plus a real
fundamental basis from the characteristic roots.  The basis constants of all
pieces are coupled through one dense matching system (point conditions,
interface continuity, pins) solved by Gauss elimination with partial
pivoting.  Rank deficiency is a first-class outcome carrying the free-column
labels so the caller can pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# eval_basis is no longer called here; it stays importable from this module
# because perfbench/spans.py hooks it under this name.
from .basis import BasisFunction, basis_derivatives, eval_basis, piece_basis  # noqa: F401
from .model import SUPPORTED_ORDERS, PieceOde, PiecewiseBvp

CONSISTENCY_TOL = 1e-9


class SolveError(RuntimeError):
    """A closed-form solve failed: a matching system that is non-finite,
    rank-deficient or inconsistent, or a particular ansatz that did not hold."""


class InconsistentSystemError(SolveError):
    """Overdetermined system whose least-squares residual exceeds the gate."""

    def __init__(self, residual_norm: float):
        super().__init__(
            f"matching system is inconsistent (least-squares residual "
            f"inf-norm {residual_norm:.3e} exceeds {CONSISTENCY_TOL:.0e} gate)"
        )
        self.residual_norm = residual_norm


class RankDeficientError(SolveError):
    """Underdetermined system; carries pin advice via the free-column labels."""

    def __init__(self, rank: int, nullity: int, free_columns):
        labels = ", ".join(f"(piece {p}, basis {i})" for p, i in free_columns)
        super().__init__(
            f"matching system is rank-deficient (rank {rank}, nullity {nullity}); "
            f"free columns: {labels}; pin one constant per free column to proceed"
        )
        self.rank = rank
        self.nullity = nullity
        self.free_columns = tuple(free_columns)


@dataclass(frozen=True)
class MatchSystem:
    """Dense matching system M c = rhs with per-column (piece, basis) labels."""

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[tuple[int, int], ...]
    row_labels: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass(frozen=True)
class GaussResult:
    constants: np.ndarray
    rank: int
    residual_norm: float


@dataclass(frozen=True)
class RankReport:
    rank: int
    nullity: int
    residual_norm: float


@dataclass(frozen=True)
class PieceSolution:
    """Closed form on one piece: sum_i constants[i]*basis[i](x) + particular(x)."""

    basis: tuple[BasisFunction, ...]
    constants: np.ndarray
    particular: tuple[float, ...]

    def __post_init__(self):
        if len(self.constants) != len(self.basis):
            raise ValueError("one constant per basis function required")

    @cached_property
    def _particular_table(self) -> np.ndarray:
        """Row d: the particular's d-th derivative, for every supported d."""
        return _derivative_table([self.particular], max(SUPPORTED_ORDERS) + 1)[:, 0]

    def value(self, x, deriv_order: int = 0):
        """u^(deriv_order) at a scalar or an array x: one kernel call for the
        whole basis, then c_j times column j added in basis order."""
        x = np.asarray(x, dtype=float)
        columns = basis_derivatives(self.basis, x[..., None], deriv_order)
        total = _horner(self._particular_table[deriv_order], x)
        for j, c in enumerate(self.constants):
            total += c * columns[..., j]
        return total[()]


@dataclass(frozen=True)
class PiecewiseSolution:
    pieces: tuple[PieceSolution, ...]
    rank_report: RankReport

    def labeled_constants(self):
        """Flat list of (piece_index, basis_render, constant)."""
        out = []
        for k, ps in enumerate(self.pieces):
            for b, c in zip(ps.basis, ps.constants):
                out.append((k, b.render(), float(c)))
        return out


def particular_solution(piece: PieceOde) -> tuple[float, ...]:
    """Polynomial u_p with u_p^(n) - sum_j a_j u_p^(j) = forcing identically.

    The ansatz is x^s * (t_0 + ... + t_m x^m) where s is the multiplicity of
    the characteristic root 0 (resonance shift) and m = deg(forcing); the
    (m+1)x(m+1) coefficient system is square and nonsingular by construction.
    """
    n = piece.order
    a = piece.coeffs
    q = np.asarray(piece.forcing, dtype=float)
    m = len(q) - 1
    s = next((j for j, aj in enumerate(a) if aj != 0.0), n)

    # Column p holds the coefficients of L[x^p] = (x^p)^(n) - sum_j a_j (x^p)^(j).
    size = s + m + 1
    full_op = np.zeros((size, size))
    for p in range(size):
        if p - n >= 0:
            full_op[p - n, p] = math.perm(p, n)
        for j, aj in enumerate(a):
            if aj != 0.0 and p - j >= 0:
                full_op[p - j, p] = -aj * math.perm(p, j)
    t = np.linalg.solve(full_op[: m + 1, s:], q)

    poly = np.concatenate([np.zeros(s), t])
    # Internal consistency check: the full identity must hold, not just the
    # low-order coefficients the square system matched.
    scale = 1.0 + float(np.abs(q).max(initial=0.0)) + float(np.abs(poly).max(initial=0.0))
    defect = float(np.abs(full_op @ poly - np.pad(q, (0, s))).max())
    tol = 1e-10 * scale
    if not defect <= tol:  # also catches a NaN from an overflowing solve
        raise SolveError(f"particular ansatz failed on {piece.interval}: identity "
                         f"defect {defect:.3e}, tolerance {tol:.3e}")
    while len(poly) > 1 and poly[-1] == 0.0:
        poly = poly[:-1]
    return tuple(float(c) for c in poly)


def _derivative_table(particulars, orders: int) -> np.ndarray:
    """table[d, k]: zero-padded coefficients of particulars[k]^(d), d < orders,
    built by numpy polyder's own step, so bitwise equal to polyder's."""
    width = max(len(p) for p in particulars)
    table = np.zeros((orders, len(particulars), width))
    for k, p in enumerate(particulars):
        table[0, k, : len(p)] = p
    for d in range(1, orders):
        table[d, :, :-1] = np.arange(1, width) * table[d - 1, :, 1:]
    return table


def _horner(coeffs: np.ndarray, x) -> np.ndarray:
    """Polynomials with ascending coefficients on the last axis, at x, in
    numpy polyval's operation order (a zero leading coefficient adds +-0)."""
    out = 0.0
    for c in np.moveaxis(coeffs, -1, 0)[::-1]:
        out = c + out * x
    return out


def assemble_system(bvp: PiecewiseBvp, bases, particulars) -> MatchSystem:
    """Dense matching system over all piece constants.

    Row order is deterministic: point conditions in input order, then
    continuity rows by breakpoint then by enforced order, then pins.  A point
    condition sitting exactly on an interior breakpoint is evaluated on the
    left-adjacent piece.  Basis and particular values come from one array
    pass each for the conditions and for the continuity rows.
    """
    n, n_pieces = bvp.order, len(bvp.pieces)
    conds, orders, pins = bvp.conditions, bvp.continuity.sorted_orders, bvp.pins
    n_cond, n_ord = len(conds), len(orders)
    n_rows = n_cond + (n_pieces - 1) * n_ord + len(pins)
    matrix, rhs = np.zeros((n_rows, n * n_pieces)), np.zeros(n_rows)
    table = _derivative_table(particulars, n)

    if conds:
        where = np.array([c.location for c in conds])
        deriv = [c.deriv_order for c in conds]
        owner = bvp.owning_piece(where, side="left")
        fns = [b for k in owner for b in bases[k]]
        values = basis_derivatives(fns, np.repeat(where, n), np.repeat(deriv, n))
        cols = owner[:, None] * n + np.arange(n)
        matrix[np.arange(n_cond)[:, None], cols] = values.reshape(n_cond, n)
        rhs[:n_cond] = (np.array([c.value for c in conds])
                        - _horner(table[deriv, owner], where))

    if n_pieces > 1:
        # Every column's basis function at its piece's lo and hi, per order.
        ends = np.array([p.interval for p in bvp.pieces])
        fns = [b for basis in bases for b in basis] * n_ord
        x = np.tile(np.repeat(ends.T, n, axis=1), n_ord)
        at_lo, at_hi = basis_derivatives(fns, x, np.repeat(orders, n * n_pieces)).reshape(
            2, n_ord, n_pieces, n)
        p_lo, p_hi = _horner(table[list(orders)], ends.T[:, None, :])
        for k in range(n_pieces - 1):
            rows = slice(n_cond + k * n_ord, n_cond + (k + 1) * n_ord)
            matrix[rows, k * n:(k + 1) * n] = at_hi[:, k]
            matrix[rows, (k + 1) * n:(k + 2) * n] = -at_lo[:, k + 1]
            rhs[rows] = p_lo[:, k + 1] - p_hi[:, k]

    row_labels = [f"u^({c.deriv_order})({c.location:g}) = {c.value:g}" for c in conds]
    row_labels += [f"continuity order {j} at x = {x:g}"
                   for x in bvp.interior_breakpoints for j in orders]
    for r, pin in enumerate(pins, start=n_rows - len(pins)):
        matrix[r, pin.piece_index * n + pin.basis_index] = 1.0
        rhs[r] = pin.value
        row_labels.append(f"pin (piece {pin.piece_index}, basis {pin.basis_index})"
                          f" = {pin.value:g}")
    labels = tuple((k, i) for k in range(n_pieces) for i in range(n))
    return MatchSystem(matrix, rhs, labels, tuple(row_labels))


def _echelon(matrix: np.ndarray, rhs: np.ndarray):
    """Row echelon form by Gauss elimination with partial pivoting.

    Returns (augmented, pivot_columns).
    """
    m, n = matrix.shape
    aug = np.hstack([matrix.astype(float), rhs.reshape(-1, 1).astype(float)])
    tol = max(m, n) * np.finfo(float).eps * max(1.0, float(np.abs(matrix).max(initial=0.0)))
    pivot_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        p = r + int(np.argmax(np.abs(aug[r:, c])))
        if abs(aug[p, c]) <= tol:
            continue
        if p != r:
            aug[[r, p]] = aug[[p, r]]
        factors = aug[r + 1:, c] / aug[r, c]
        aug[r + 1:, c:] -= np.outer(factors, aug[r, c:])
        aug[r + 1:, c] = 0.0
        pivot_cols.append(c)
        r += 1
    return aug, pivot_cols


def _back_substitute(aug: np.ndarray, n: int) -> np.ndarray:
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        x[r] = (aug[r, n] - aug[r, r + 1: n] @ x[r + 1:]) / aug[r, r]
    return x


def gauss_solve(system: MatchSystem) -> GaussResult:
    """Solve the matching system by Gauss elimination with partial pivoting.

    Square full-rank systems are solved directly; overdetermined full-column-
    rank systems go through least squares (normal equations) gated on a
    residual inf-norm consistency check.  Rank-deficient systems raise
    :class:`RankDeficientError` with their free-column labels; a system with
    non-finite entries raises :class:`SolveError` before elimination.
    """
    matrix, rhs = system.matrix, system.rhs
    bad = ~np.isfinite(matrix).all(axis=1) | ~np.isfinite(rhs)
    if bad.any():
        raise SolveError(
            f"matching system has non-finite entries (overflow) in "
            f"{int(bad.sum())} of {len(bad)} rows, first: "
            f"{system.row_labels[int(np.argmax(bad))]}; the basis functions or "
            f"particular solution overflow on this domain"
        )
    m, n = matrix.shape
    aug, pivot_cols = _echelon(matrix, rhs)
    if len(pivot_cols) == n and m > n:
        aug, pivot_cols = _echelon(matrix.T @ matrix, matrix.T @ rhs)
    rank = len(pivot_cols)
    if rank < n:
        free = tuple(system.labels[c] for c in range(n) if c not in pivot_cols)
        raise RankDeficientError(rank, n - rank, free)
    x = _back_substitute(aug, n)

    residual = float(np.abs(matrix @ x - rhs).max(initial=0.0))
    if m > n:
        gate = CONSISTENCY_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        if residual > gate:
            raise InconsistentSystemError(residual)
    return GaussResult(x, rank, residual)


def solve_exact(bvp: PiecewiseBvp) -> PiecewiseSolution:
    """Closed-form solve: roots -> real bases -> particulars -> matching system.

    Raises :class:`RankDeficientError` with pin advice when the system is
    underdetermined and :class:`InconsistentSystemError` when overdetermined
    rows contradict each other.
    """
    bases = [piece_basis(p) for p in bvp.pieces]
    particulars = [particular_solution(p) for p in bvp.pieces]
    result = gauss_solve(assemble_system(bvp, bases, particulars))
    n = bvp.order
    pieces = tuple(
        PieceSolution(tuple(bases[k]), result.constants[k * n:(k + 1) * n],
                      particulars[k])
        for k in range(len(bvp.pieces))
    )
    return PiecewiseSolution(pieces, RankReport(result.rank, 0, result.residual_norm))


def eval_solution(sol: PiecewiseSolution, bvp: PiecewiseBvp, x,
                  deriv_order: int = 0):
    """Evaluate the piecewise solution at a scalar or an array x; breakpoints
    belong to the right piece (except the global endpoint b, owned by the
    last piece)."""
    x = np.asarray(x, dtype=float)
    owner = bvp.owning_piece(x)
    out = np.empty(x.shape)
    for k in np.unique(owner):
        mask = owner == k
        out[mask] = sol.pieces[k].value(x[mask], deriv_order)
    return out[()]
