"""Closed-form piecewise solver.

Per row of the problem's ODE table (:attr:`PiecewiseBvp.ode_table`): a
particular polynomial by undetermined coefficients plus a real fundamental
basis from the characteristic roots.  The basis constants of all pieces are
coupled through one matching system (point conditions, interface continuity,
pins), built from one kernel-term table over the rows' bases as row bands:
each row's entries from its first piece's first column over the one or two
pieces it couples.  No dense matrix is built.  Gauss elimination with
partial pivoting runs on the bands: one pass copies them, then each column
walks only the rows whose band covers it.  It reads -0.0 as +0.0, which
moves no pivot and no nonzero bit, and gives the same pivots and bits as
dense partial pivoting on that input whenever it stays finite.  One
finiteness check of its echelon form refuses an elimination that overflows
and a system with a non-finite value, which no step clears.  Back
substitution stays numpy, each row's dot over the zero-padded row, because
neither a Python sum nor a band-only dot would reproduce the bits of its
BLAS row dot.  The consistency residual is one band dot per row, computed
only for an overdetermined system.  Rank deficiency is a first-class outcome
carrying the free-column labels so the caller can pin them.  A solution is
one closed form per row of the ODE table, the constants as one (pieces,
order) matrix and the matching system it solved.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from numpy.polynomial.polynomial import polyval

from .basis import (MAX_ORDER, BasisFunction, basis_terms, characteristic_coeffs,
                    eval_terms, piece_basis, take_terms)
from .model import MAX_FORCING_DEGREE, PiecewiseBvp, SolveError

CONSISTENCY_TOL = 1e-9

# _FALLING[p, j] = perm(p, j), the coefficient of x^(p-j) in (x^p)^(j); zero
# for p < j.  Rows cover every particular the ansatz can need.
_FALLING = np.array([[math.perm(p, j) for j in range(MAX_ORDER + 1)]
                     for p in range(MAX_ORDER + MAX_FORCING_DEGREE + 1)], dtype=float)
# _FALLING_AT[size]: the (p, j) index pairs of the nonzeros of _FALLING[:size].
_FALLING_AT = [np.nonzero(_FALLING[:size]) for size in range(len(_FALLING) + 1)]


class InconsistentSystemError(SolveError):
    """No solution: an overdetermined system's residual (rank None), or the rhs
    a rank-deficient one leaves below its rank, has inf-norm above the gate."""

    def __init__(self, norm: float, rank: int | None = None):
        what = "residual" if rank is None else f"rhs left below rank {rank}:"
        super().__init__(f"matching system is inconsistent ({what} inf-norm "
                         f"{norm:.3e} exceeds {CONSISTENCY_TOL:.0e} gate)")
        self.norm, self.rank = norm, rank


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
    """Matching system M c = rhs over width columns; column c is (piece
    c // order, basis c % order).  Rows follow bvp's layout (None for a bare
    system).  bands holds row i of M as (first column, Python floats from
    there on): every nonzero of the row lies in its band, and -0.0 reads as
    +0.0 there."""

    bands: list[tuple[int, list[float]]]
    rhs: np.ndarray
    width: int
    order: int
    bvp: PiecewiseBvp | None

    def describe_row(self, r: int) -> str:
        """Row r's equation in words, for an error message: the layout is
        point conditions, continuity by breakpoint then order, then pins."""
        b = self.bvp
        if b is None:
            return f"row {r}"
        return ([f"u^({c.deriv_order})({c.location:g}) = {c.value:g}" for c in b.conditions]
                + [f"continuity order {j} at x = {x:g}" for x in b.interior_breakpoints
                   for j in b.continuity.sorted_orders]
                + [f"pin (piece {p.piece_index}, basis {p.basis_index}) = {p.value:g}"
                   for p in b.pins])[r]


@np.errstate(over="ignore", invalid="ignore")
def residual_norm(system: MatchSystem, constants: np.ndarray) -> float:
    """Inf-norm of M c - rhs for the constants c, one band dot per row."""
    xs = constants.tolist()
    dots = [sum(map(operator.mul, band, xs[f:f + len(band)])) for f, band in system.bands]
    return float(np.abs(np.array(dots, dtype=float) - system.rhs).max(initial=0.0))


@dataclass(frozen=True)
class ClosedForm:
    """One ODE row's closed form: sum_i c[i]*basis[i](x) + particular(x) for
    the constants c of any piece of the row."""

    basis: tuple[BasisFunction, ...]
    particular: tuple[float, ...]

    @cached_property
    def _kernel(self):
        """Basis kernel terms, particular coefficients (table[:, d] for order
        d) and the particular's coefficients per tuple of orders evaluated."""
        return (basis_terms(self.basis, MAX_ORDER),
                _derivative_table([self.particular], MAX_ORDER + 1)[:, :, 0], {})

    @np.errstate(over="ignore", invalid="ignore")
    def _combine(self, x, constants, orders):
        """u^(d) at x for every d in orders (one row each) from one kernel
        pass: constants[..., j] times basis column j, added in basis order to
        the particular, every order at once."""
        orders = tuple(orders)
        terms, table, chosen = self._kernel
        if orders not in chosen:
            if not all(0 <= d <= MAX_ORDER for d in orders):
                raise ValueError(f"derivative orders {list(orders)} outside [0, {MAX_ORDER}]")
            chosen[orders] = table[:, list(orders)]
        columns = eval_terms(terms, x, orders)
        total = polyval(x, chosen[orders])
        for j in range(len(self.basis)):
            total += constants[..., j] * columns[:, j]
        return total


@dataclass(frozen=True)
class PieceSolution:
    """One piece's view of a solution: its row's closed form and its constants."""

    form: ClosedForm
    constants: np.ndarray

    def value(self, x, deriv_order: int = 0):
        """u^(deriv_order) at a scalar or an array x; an overflow gives inf or
        nan without a numpy warning."""
        return self.form._combine(np.asarray(x, dtype=float), self.constants,
                                  [deriv_order])[0][()]


@dataclass(frozen=True)
class PiecewiseSolution:
    """The closed form of each row of ``system.bvp.ode_table``, the basis
    constants as a (pieces, order) matrix, and the matching system solved."""

    forms: tuple[ClosedForm, ...]
    constants: np.ndarray
    system: MatchSystem

    @cached_property
    def pieces(self) -> tuple[PieceSolution, ...]:
        """Per piece, its row's closed form and its constants: a view for
        reading one piece."""
        row = self.system.bvp.ode_table[0]
        return tuple(PieceSolution(self.forms[r], c) for r, c in zip(row, self.constants))

    def evaluate(self, x, owner, orders) -> np.ndarray:
        """u^(d) at a float array x for every d in orders (one row each), point i
        on piece owner[i]: one kernel pass per row of the ODE table, each point
        with its own piece's constants."""
        at_row = np.array(self.system.bvp.ode_table[0])[owner]
        out = np.empty((len(orders),) + x.shape)
        for r, form in enumerate(self.forms):
            at = at_row == r
            if at.any():
                out[:, at] = form._combine(x[at], self.constants[owner[at]], orders)
        return out

    def piece_derivatives(self, k: int, x, orders):
        """u^(d) on piece k at a float array x for every d in orders, through
        the form of piece k's row."""
        return self.forms[self.system.bvp.ode_table[0][k]]._combine(x, self.constants[k], orders)

    def labeled_constants(self):
        """Flat list of (piece_index, basis_render, constant)."""
        row = self.system.bvp.ode_table[0]
        return [(k, b.render(), float(c)) for k, (r, cs) in enumerate(zip(row, self.constants))
                for b, c in zip(self.forms[r].basis, cs)]


@np.errstate(over="ignore", invalid="ignore")
def particular_solution(pieces) -> list[tuple[float, ...]]:
    """Polynomial u_p with u_p^(n) - sum_j a_j u_p^(j) = forcing identically,
    for every piece.

    The ansatz is x^s * (t_0 + ... + t_m x^m) where s is the multiplicity of
    the characteristic root 0 (resonance shift) and m = deg(forcing); the
    (m+1)x(m+1) coefficient system is square and nonsingular by construction.
    Pieces with the same (s, m) share one stacked build, one solve and one
    identity check; the first piece whose identity fails raises.
    """
    char = characteristic_coeffs(pieces)
    groups = {}
    for k, piece in enumerate(pieces):
        s = next((j for j, aj in enumerate(piece.coeffs) if aj != 0.0), piece.order)
        groups.setdefault((s, len(piece.forcing) - 1), []).append(k)
    polys, checks = [None] * len(pieces), [None] * len(pieces)
    for (s, m), at in groups.items():
        size = s + m + 1
        c = char[at]
        q = np.array([pieces[k].forcing for k in at])
        # Column p holds the coefficients of L[x^p] = sum_j c_j (x^p)^(j):
        # c_j * perm(p, j) in row p - j, and +0.0 where c_j is zero.
        p, j = _FALLING_AT[size]
        full_op = np.zeros((len(at), size, size))
        full_op[:, p - j, p] = np.where(c[:, j] != 0.0, c[:, j] * _FALLING[p, j], 0.0)
        t = np.linalg.solve(full_op[:, : m + 1, s:], q[..., None])[..., 0]
        poly = np.concatenate([np.zeros((len(at), s)), t], axis=1)
        # Internal consistency check: the full identity must hold, not just the
        # low-order coefficients the square system matched.
        residual = (full_op @ poly[..., None])[..., 0]
        residual[:, : m + 1] -= q
        scale = 1.0 + np.abs(q).max(axis=1) + np.abs(poly).max(axis=1)
        for k, row, defect, tol in zip(at, poly.tolist(), np.abs(residual).max(axis=1).tolist(),
                                       (1e-10 * scale).tolist()):
            polys[k], checks[k] = row, (defect, tol)
    for piece, poly, (defect, tol) in zip(pieces, polys, checks):
        if not defect <= tol:  # also catches a NaN from an overflowing solve
            raise SolveError(f"particular ansatz failed on {piece.interval}: identity "
                             f"defect {defect:.3e}, tolerance {tol:.3e}")
        while len(poly) > 1 and poly[-1] == 0.0:
            poly.pop()
    return [tuple(poly) for poly in polys]


def _derivative_table(particulars, orders: int) -> np.ndarray:
    """table[:, d, k]: zero-padded ascending coefficients of
    particulars[k]^(d), d < orders, on the first axis as polyval reads them,
    built by numpy polyder's own step, so bitwise equal to polyder's."""
    width = max(len(p) for p in particulars)
    table = np.zeros((width, orders, len(particulars)))
    for k, p in enumerate(particulars):
        table[: len(p), 0, k] = p
    for d in range(1, orders):
        table[:-1, d] = np.arange(1, width)[:, None] * table[1:, d - 1]
    return table


@np.errstate(over="ignore", invalid="ignore")
def assemble_system(bvp: PiecewiseBvp, bases, particulars) -> MatchSystem:
    """Matching system over all piece constants, as row bands, from one basis
    and one particular per row of ``bvp.ode_table``.

    Row order is deterministic: point conditions in input order, then
    continuity rows by breakpoint then by enforced order, then pins.  A point
    condition sitting exactly on an interior breakpoint is evaluated on the
    left-adjacent piece.  Kernel terms are built once over the bases for
    orders 0..n-1.  One entry list holds each condition's n columns at its
    point, then each continuity row's piece k at its hi and piece k + 1 at
    its lo; it takes one gather, one kernel pass and one particular
    ``polyval``, and every band and rhs value is sliced from the result.  A
    condition row's band is its piece's n columns, a continuity row's the 2n
    columns of its two pieces, a pin's its one column.  An overflow leaves a
    non-finite entry, which :func:`gauss_solve` reports.
    """
    n, n_pieces = bvp.order, len(bvp.pieces)
    conds, orders, pins = bvp.conditions, bvp.continuity.sorted_orders, bvp.pins
    n_cond, n_cont = len(conds), (n_pieces - 1) * len(orders)
    terms = basis_terms([b for basis in bases for b in basis], n - 1)
    # One entry row per condition, then two per continuity row, by
    # breakpoint then order: piece k at its hi and piece k + 1 at its lo,
    # entries ends[i] of the pieces' flat (lo, hi, lo, hi, ...) list.
    owner = bvp.owning_piece([c.location for c in conds], side="left")
    ends = np.repeat(np.arange(1, 2 * n_pieces - 1).reshape(-1, 2), len(orders), axis=0).ravel()
    piece = np.concatenate([owner, ends // 2])
    where = np.concatenate([[c.location for c in conds],
                            np.array([p.interval for p in bvp.pieces]).ravel()[ends]])
    deriv = np.array([c.deriv_order for c in conds]
                     + [j for j in orders for _ in (0, 1)] * (n_pieces - 1), dtype=int)
    ode = np.array(bvp.ode_table[0])[piece]  # each entry's row of the ODE table
    values = eval_terms(take_terms(terms, deriv[:, None], ode[:, None] * n + np.arange(n)),
                        np.repeat(where, n).reshape(-1, n), [0])[0]
    known = polyval(where, _derivative_table(particulars, n)[:, deriv, ode], tensor=False)
    # A continuity row is piece k at its hi minus piece k + 1 at its lo.
    pair = values[n_cond:].reshape(n_cont, 2, n)
    np.negative(pair[:, 1], out=pair[:, 1])
    rhs = np.concatenate([np.array([c.value for c in conds]) - known[:n_cond],
                          known[n_cond + 1::2] - known[n_cond::2],
                          [pin.value for pin in pins]])
    first = (piece * n).tolist()
    bands = list(zip(first[:n_cond], (values[:n_cond] + 0.0).tolist()))
    bands += zip(first[n_cond::2], (pair + 0.0).reshape(n_cont, 2 * n).tolist())
    bands += [(pin.piece_index * n + pin.basis_index, [1.0]) for pin in pins]
    return MatchSystem(bands, rhs, n * n_pieces, n, bvp)


_EPS = sys.float_info.epsilon


def _echelon(bands, rhs: np.ndarray, n: int):
    """Row echelon form of the m x n system whose row i is bands[i] = (first
    column, band of Python floats) with right-hand side rhs[i], by Gauss
    elimination with partial pivoting.

    Returns (bands, rhs, pivot_columns): the echelon rows in the same band
    form and their right-hand side, bit for bit those of the dense loop

        p = r + argmax(|aug[r:, c]|), rows r and p swapped,
        aug[r + 1:, c:] -= (aug[r + 1:, c] / aug[r, c])[:, None] * aug[r, c:],
        aug[r + 1:, c] = 0,

    run on the dense system with -0.0 read as +0.0.  One pass over the bands
    copies the rows and collects the entries for the pivot tolerance.
    Column c's pivot search and update walk the rows down to the last one
    whose band starts at or before c, skipping a row whose band starts after
    c or ended before it (a zero there); the search keeps the first largest
    |a|, as argmax does, and a row is updated over the pivot row's band
    only, so the work grows with the number of pieces, not with its square.
    The pivot search compares |a| and a zero's sign reaches no nonzero
    result, so reading -0.0 as +0.0 moves no pivot and no nonzero bit;
    a - f*p is -0.0 only where a is, so no -0.0 arises after it.  A zero
    factor or pivot-row entry changes no entry until a value overflows, so
    both loops agree up to the first overflow.  No step clears an inf or a
    nan (an update that zeroes one carries it into its row's right-hand
    side), so one finiteness check of the echelon form raises
    :class:`SolveError` for an overflow and for a non-finite input alike.
    """
    m = len(bands)
    # hi[c]: one past the last row whose band starts at column c.
    hi, rows, first, ext, entries = [0] * n, [], [], [], []
    for i, (f, band) in enumerate(bands):
        if band:
            hi[f] = i + 1
        rows.append(band[:])
        first.append(f)
        ext.append(f + len(band))
        entries += band
    tol = max(m, n) * _EPS * max(1.0, max(entries, default=0.0), -min(entries, default=0.0))
    b = (rhs + 0.0).tolist()
    pivot_cols = []
    r = end = 0
    for c in range(n):
        if r >= m:
            break
        if hi[c] > end:
            end = hi[c]
        best, p = tol, -1
        for i in range(r, end):
            f = first[i]
            if f <= c < ext[i]:
                a = rows[i][c - f]
                if a > best or -a > best:
                    best, p = abs(a), i
        if p < 0:
            continue
        if p != r:
            rows[r], rows[p], b[r], b[p] = rows[p], rows[r], b[p], b[r]
            first[r], first[p], ext[r], ext[p] = first[p], first[r], ext[p], ext[r]
        f, last, pb = first[r], ext[r], b[r]
        pivot = rows[r][c - f]
        tail = rows[r][c + 1 - f:]  # the pivot row's columns c + 1 .. last - 1
        for i in range(r + 1, end):
            f = first[i]
            if f <= c < ext[i]:
                row, j = rows[i], c - f
                a = row[j]
                if a:  # a zero factor leaves its row as it is
                    factor = a / pivot
                    if ext[i] < last:
                        row += [0.0] * (last - ext[i])
                        ext[i] = last
                    row[j] = 0.0
                    for w in tail:
                        j += 1
                        row[j] -= factor * w
                    b[i] -= factor * pb
        pivot_cols.append(c)
        r += 1
    if not all(map(math.isfinite, chain(chain.from_iterable(rows), b))):
        raise SolveError("matching system elimination overflows (element growth "
                         "leaves non-finite entries in its echelon form)")
    return list(zip(first, rows)), b, pivot_cols


def _back_substitute(bands, b, n: int) -> np.ndarray:
    """x from the first n echelon rows, last row first: x[r] is b[r] minus
    row r's entries right of its pivot times x[r + 1:], over the pivot.
    Those entries are written into one length-n buffer that is zero
    elsewhere (each row clears only what the previous row wrote past its
    own band), so the dot is numpy's (BLAS) over the same zero-padded row as
    a dense echelon row; a dot over the band alone would not give its bits."""
    x, row = np.zeros(n), np.zeros(n)
    written = n
    for r in range(n - 1, -1, -1):
        f, band = bands[r]
        k, e = r + 1 - f, f + len(band)
        row[r + 1:e] = band[k:]
        if e < written:
            row[e:written] = 0.0
        written = e
        x[r] = (b[r] - float(row[r + 1:].dot(x[r + 1:]))) / band[k - 1]
    return x


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def gauss_solve(system: MatchSystem) -> np.ndarray:
    """The constants of the matching system, by one Gauss elimination with
    partial pivoting.

    A full-column-rank system is back-substituted from its pivot rows; an
    overdetermined one must then pass a residual inf-norm consistency gate.
    A rank-deficient system whose rows below the rank keep a rhs above that
    gate has no solution and raises :class:`InconsistentSystemError`; any
    other raises :class:`RankDeficientError` with its free-column labels.
    A system with a non-finite band entry or rhs raises :class:`SolveError`
    naming its first such row: the elimination's finiteness check finds it,
    and only then are the rows read for it.  An elimination or back
    substitution that overflows raises it too, as no answer is read from
    non-finite bits.
    """
    rhs, n = system.rhs, system.width
    try:
        bands, b, pivot_cols = _echelon(system.bands, rhs, n)
    except SolveError:
        bad = [not (all(map(math.isfinite, band)) and math.isfinite(v))
               for (_, band), v in zip(system.bands, rhs.tolist())]
        if any(bad):
            raise SolveError(
                f"matching system has non-finite entries (overflow) in "
                f"{sum(bad)} of {len(bad)} rows, first: "
                f"{system.describe_row(bad.index(True))}; the basis functions or "
                f"particular solution overflow on this domain") from None
        raise
    rank = len(pivot_cols)
    gate = CONSISTENCY_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    if rank < n:
        # Rows below the rank are zero in the echelon form: no solution meets their rhs.
        dropped = max(map(abs, b[rank:]), default=0.0)
        if not dropped <= gate:
            raise InconsistentSystemError(dropped, rank)
        free = tuple(divmod(c, system.order) for c in range(n) if c not in pivot_cols)
        raise RankDeficientError(rank, n - rank, free)
    x = _back_substitute(bands, b, n)
    if not np.isfinite(x).all():
        piece, index = divmod(int(np.argmin(np.isfinite(x))), system.order)
        raise SolveError(f"matching system solution is non-finite (overflow), "
                         f"first at unknown (piece {piece}, {index})")
    if len(rhs) > n and not (norm := residual_norm(system, x)) <= gate:
        raise InconsistentSystemError(norm)
    return x


def solve_exact(bvp: PiecewiseBvp) -> PiecewiseSolution:
    """Closed-form solve: roots -> real bases -> particulars -> matching system.

    Raises :class:`RankDeficientError` with pin advice when the system has
    a family of solutions and :class:`InconsistentSystemError` when its rows
    contradict each other.
    """
    # Roots, basis and particular once per row of the ODE table (a penalty
    # obstacle has two), each stage in stacked array passes over all rows.
    odes = [bvp.pieces[k] for k in bvp.ode_table[1]]
    bases, particulars = piece_basis(odes), particular_solution(odes)
    system = assemble_system(bvp, bases, particulars)
    constants = gauss_solve(system).reshape(-1, bvp.order)
    return PiecewiseSolution(tuple(map(ClosedForm, bases, particulars)), constants, system)


def eval_solution(sol: PiecewiseSolution, bvp: PiecewiseBvp, x,
                  deriv_order: int = 0):
    """Evaluate the piecewise solution at a scalar or an array x; breakpoints
    belong to the right piece (except the global endpoint b, owned by the
    last piece), by :meth:`PiecewiseSolution.evaluate`."""
    x = np.asarray(x, dtype=float)
    return sol.evaluate(x, bvp.owning_piece(x), [deriv_order])[0][()]
