"""Closed-form piecewise solver.

Per piece: a particular polynomial by undetermined coefficients plus a real
fundamental basis from the characteristic roots.  The basis constants of all
pieces are coupled through one dense matching system (point conditions,
interface continuity, pins) solved by Gauss elimination with partial
pivoting.  Rank deficiency is a first-class outcome carrying the free-column
labels so the caller can pin them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .basis import BasisFunction, eval_basis, piece_basis
from .model import PieceOde, PiecewiseBvp

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

    def value(self, x, deriv_order: int = 0):
        """u^(deriv_order) at a scalar or an array x."""
        total = npoly.polyval(x, npoly.polyder(self.particular, deriv_order))
        for c, b in zip(self.constants, self.basis):
            total += c * eval_basis(b, x, deriv_order)
        return total


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


def _poly_deriv_val(poly, x: float, deriv_order: int) -> float:
    p = npoly.polyder(poly, deriv_order) if deriv_order else poly
    return float(npoly.polyval(x, p))


def _falling(p: int, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= p - i
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
    s = n
    for j, aj in enumerate(a):
        if aj != 0.0:
            s = j
            break

    def op_on_monomial(p: int) -> np.ndarray:
        """Coefficients of L[x^p] = (x^p)^(n) - sum_j a_j (x^p)^(j)."""
        out = np.zeros(p + 1)
        if p - n >= 0:
            out[p - n] += _falling(p, n)
        for j, aj in enumerate(a):
            if aj != 0.0 and p - j >= 0:
                out[p - j] -= aj * _falling(p, j)
        return out

    mat = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        col = op_on_monomial(s + i)
        mat[: min(m + 1, len(col)), i] = col[: m + 1]
    t = np.linalg.solve(mat, q)

    poly = np.zeros(s + m + 1)
    poly[s:] = t
    # Internal consistency check: the full identity must hold, not just the
    # low-order coefficients the square system matched.
    full = np.zeros(s + m + 1)
    d = npoly.polyder(poly, n)
    full[: len(d)] += d
    for j, aj in enumerate(a):
        if aj != 0.0:
            dj = npoly.polyder(poly, j) if j else poly
            full[: len(dj)] -= aj * np.asarray(dj)
    target = np.zeros(s + m + 1)
    target[: len(q)] = q
    scale = 1.0 + float(np.abs(q).max(initial=0.0)) + float(np.abs(poly).max(initial=0.0))
    defect, tol = float(np.abs(full - target).max()), 1e-10 * scale
    if not defect <= tol:  # also catches a NaN from an overflowing solve
        raise SolveError(f"particular ansatz failed on {piece.interval}: identity "
                         f"defect {defect:.3e}, tolerance {tol:.3e}")
    while len(poly) > 1 and poly[-1] == 0.0:
        poly = poly[:-1]
    return tuple(float(c) for c in poly)


def assemble_system(bvp: PiecewiseBvp, bases, particulars) -> MatchSystem:
    """Dense matching system over all piece constants.

    Row order is deterministic: point conditions in input order, then
    continuity rows by breakpoint then by enforced order, then pins.  A point
    condition sitting exactly on an interior breakpoint is evaluated on the
    left-adjacent piece.
    """
    n = bvp.order
    n_pieces = len(bvp.pieces)
    width = n * n_pieces
    labels = tuple((k, i) for k in range(n_pieces) for i in range(n))
    rows, rhs, row_labels = [], [], []

    def basis_row(piece_index: int, x: float, deriv: int) -> np.ndarray:
        row = np.zeros(width)
        for i, b in enumerate(bases[piece_index]):
            row[piece_index * n + i] = eval_basis(b, x, deriv)
        return row

    for cond in bvp.conditions:
        k = bvp.owning_piece(cond.location, side="left")
        rows.append(basis_row(k, cond.location, cond.deriv_order))
        rhs.append(cond.value - _poly_deriv_val(particulars[k], cond.location, cond.deriv_order))
        row_labels.append(f"u^({cond.deriv_order})({cond.location:g}) = {cond.value:g}")

    for k, x in enumerate(bvp.interior_breakpoints):
        for j in bvp.continuity.sorted_orders:
            row = basis_row(k, x, j) - basis_row(k + 1, x, j)
            rows.append(row)
            rhs.append(_poly_deriv_val(particulars[k + 1], x, j)
                       - _poly_deriv_val(particulars[k], x, j))
            row_labels.append(f"continuity order {j} at x = {x:g}")

    for pin in bvp.pins:
        row = np.zeros(width)
        row[pin.piece_index * n + pin.basis_index] = 1.0
        rows.append(row)
        rhs.append(pin.value)
        row_labels.append(f"pin (piece {pin.piece_index}, basis {pin.basis_index})"
                          f" = {pin.value:g}")

    return MatchSystem(np.array(rows), np.array(rhs, dtype=float),
                       labels, tuple(row_labels))


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
