"""Piecewise solver in Cauchy data on bounded segments.

Each piece is split into equal segments with rho*h <= GAMMA, rho =
2 max_j |a_j|^(1/(n-j)) a bound on its characteristic roots.  On a segment u
is, to rounding, a polynomial in s = (x - lo)/h: the Taylor polynomials of
the solutions with unit Cauchy data at lo and of the forced one with zero
data, from the ODE's own recurrence (Corliss & Chang).  No root enters u,
so near-multiple and near-zero roots need no care and u does not depend on
where a piece sits.  Conditions, continuity, pins and every order's
continuity at the joints between segments form one banded matching system
in the segments' Cauchy data, eliminated by Gauss with partial pivoting.
The set-up reads every piece's coefficients, interval and forcing from one
array and takes its per-order and per-width tables (falling factorials,
exponents, shift matrices) from module constants, so a solve's fixed cost
is its numpy calls and the elimination.  Users see each ODE row's closed
form (the basis of :mod:`basis` and a particular polynomial) with a piece's
constants W(lo)^-1 (y - p^(i)(lo)), W the Wronskian.  The answer never reads
it: pins, pin advice or the constants build it on first use, and raise there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .basis import (MAX_ORDER, BasisFunction, basis_values, characteristic_coeffs,
                    piece_basis, powers)
from .model import MAX_FORCING_DEGREE, PiecewiseBvp, SolveError

CONSISTENCY_TOL = 1e-9
GAMMA = 4.0           # rho * h of a segment is at most this
TAYLOR_TOL = 1e-17    # a table ends where (rho h)^r / r! falls below this
MAX_SEGMENTS = 20000  # budget: solving an order-4 problem at the cap takes about 2 s

# (rho h)^r / r! < TAYLOR_TOL exactly when rho h < _REACH[r - 1] (r = 33 at GAMMA).
_REACH = np.array([(TAYLOR_TOL * math.factorial(r)) ** (1.0 / r) for r in range(1, 41)])
_TOP = MAX_ORDER + MAX_FORCING_DEGREE + len(_REACH)  # one past the largest table degree
# _FALLING[p, j] = perm(p, j), the coefficient of x^(p-j) in (x^p)^(j), zero for p < j.
_FALLING = np.array([[math.perm(p, j) for j in range(MAX_ORDER + MAX_FORCING_DEGREE + 1)]
                     for p in range(_TOP)], dtype=float)
_FACTORIAL = np.array([math.factorial(m) for m in range(_TOP)], dtype=float)
_BINOMIAL = _FALLING / _FACTORIAL[:_FALLING.shape[1]]  # comb(p, j)
# _DERIVING[w][c]: for _poly_derivatives of width w and count c, the factors
# perm(p, i) and the exponents max(p - i, 0) of x, both indexed [i, p].
_DERIVING = [[(_FALLING[np.arange(w), :c].T, np.maximum(np.arange(w) - np.arange(c)[:, None], 0))
              for c in range(MAX_FORCING_DEGREE + 2)] for w in range(_FALLING.shape[1] + 1)]
# _BOUND_POWERS[n][j] = 1 / (n - j), and _SHIFT[k] the k x k matrix of ones
# above the diagonal: the set-up of _segments per order and state width.
_BOUND_POWERS = [1.0 / (n - np.arange(n)) for n in range(MAX_ORDER + 1)]
_SHIFT = [np.eye(k, k, 1) for k in range(MAX_ORDER + MAX_FORCING_DEGREE + 2)]
# _FALLING_AT[size]: the rows p - j, columns p, orders j and values perm(p, j)
# of the nonzeros of _FALLING[:size, :MAX_ORDER + 1], the terms a
# particular's operator can take.
_FALLING_AT = [(p - j, p, j, _FALLING[p, j]) for p, j in
               (np.nonzero(_FALLING[:size, :MAX_ORDER + 1])
                for size in range(MAX_ORDER + MAX_FORCING_DEGREE + 2))]


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
class Segments:
    """Piece k's segments first[k]..first[k + 1] - 1: left ends, lengths h,
    scales and tables[g, m, c], the coefficient of s^m of column c,
    whose scaled Cauchy data u^(i)(lo) scale^i / i! are e_c for c < n and 0
    for the forced column n.  A piece's scale, GAMMA / rho up to the domain's
    length, keeps the system's entries near 1, narrow pieces included."""

    first: np.ndarray
    lo: np.ndarray
    h: np.ndarray
    scale: np.ndarray
    tables: np.ndarray

    def locate(self, x, owner):
        """(segment, s) of each point of x: its piece owner's last segment
        starting at or before it."""
        first, last = self.first[owner], self.first[owner + 1] - 1
        if np.ndim(owner) or first != last:
            at = np.searchsorted(self.lo, x, side="right") - 1
            first = np.minimum(np.maximum(at, first), last)
        return first, (x - self.lo[first]) / self.h[first]

    def unscale(self, g) -> np.ndarray:
        """[..., j] = j! / scale^j of segments g, from scaled data to u^(j)."""
        n = self.tables.shape[2] - 1
        return _FACTORIAL[:n] / powers(self.scale[g], n)


@dataclass(frozen=True)
class MatchSystem:
    """Matching system M c = rhs; column c is unknown c % order of block c //
    order, a segment's if segments is set, else a piece's.  Rows follow bvp's
    layout (None for a bare system); bands holds row i as (first column,
    Python floats from there on) with every nonzero, -0.0 read as +0.0."""

    bands: list[tuple[int, list[float]]]
    rhs: np.ndarray
    width: int
    order: int
    bvp: PiecewiseBvp | None
    segments: Segments | None = None

    @cached_property
    def forms(self) -> tuple[ClosedForm, ...]:
        """Each row of bvp's ODE table as its closed form, built on first read."""
        odes = [self.bvp.pieces[k] for k in self.bvp.ode_table[1]]
        return tuple(map(ClosedForm, piece_basis(odes), particular_solution(odes)))

    def describe_row(self, r: int) -> str:
        """Row r's equation in words, for an error message."""
        b, seg = self.bvp, self.segments
        if b is None:
            return f"row {r}"
        joints = [] if seg is None else np.delete(seg.lo, seg.first[:-1]).tolist()
        return ([f"u^({c.deriv_order})({c.location:g}) = {c.value:g}" for c in b.conditions]
                + [f"continuity order {j} at x = {x:g}" for x in b.interior_breakpoints
                   for j in b.continuity.sorted_orders]
                + [f"pin (piece {p.piece_index}, basis {p.basis_index}) = {p.value:g}"
                   for p in b.pins]
                + [f"segment joint order {j} at x = {x:g}" for x in joints
                   for j in range(b.order)])[r]


def residual_norm(system: MatchSystem, constants: np.ndarray) -> float:
    """Inf-norm of M c - rhs for the constants c, each row's band dot
    accumulated as the back substitution accumulates it."""
    xs = constants.tolist()
    rows = [_minus_dot(v, band, xs[f:f + len(band)])
            for (f, band), v in zip(system.bands, system.rhs.tolist())]
    return float(np.abs(np.array(rows, dtype=float)).max(initial=0.0))


@dataclass(frozen=True)
class ClosedForm:
    """One ODE row's published closed form, sum_i c[i] basis[i](x) + particular(x)."""

    basis: tuple[BasisFunction, ...]
    particular: tuple[float, ...]


@dataclass(frozen=True)
class PieceSolution:
    """One piece's view of a solution."""

    solution: PiecewiseSolution
    index: int

    @property
    def constants(self) -> np.ndarray:
        return self.solution.constants[self.index]

    def value(self, x, deriv_order: int = 0):
        """u^(deriv_order) at a scalar or an array x; an overflow gives inf or nan."""
        x = np.asarray(x, dtype=float)
        return self.solution.evaluate(x, self.index, [deriv_order])[0][()]


@dataclass(frozen=True)
class PiecewiseSolution:
    """Every segment's scaled Cauchy data as a (segments, order) matrix and
    the matching system solved."""

    data: np.ndarray
    system: MatchSystem

    @property
    def forms(self) -> tuple[ClosedForm, ...]:
        return self.system.forms

    @property
    def pieces(self) -> tuple[PieceSolution, ...]:
        """Per piece, a view of it, made on each read (no reference cycle)."""
        return tuple(PieceSolution(self, k) for k in range(len(self.system.bvp.pieces)))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def constants(self) -> np.ndarray:
        """The published constants W(lo)^-1 (y - p^(i)(lo)), (pieces, order):
        nan where W(lo) is singular (an exponential under- or overflows)."""
        seg = self.system.segments
        first = seg.first[:-1]
        w, p = _closed_form_at_lo(self.system.bvp, self.forms, range(len(first)))
        return _in_basis(w, (self.data[first] * seg.unscale(first) - p)[..., None])[..., 0]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """(coefs, tops): coefs[d, m, g], s^m's coefficient in u^(d) on
        segment g, but zero in the tail summing to TAYLOR_TOL of all in
        magnitude; tops[d, g] the coefficients kept."""
        seg = self.system.segments
        u = (seg.tables[..., :-1] * self.data[:, None]).sum(2) + seg.tables[..., -1]
        size = u.shape[1]
        coefs = np.zeros((MAX_ORDER + 1, size, len(u)))
        for d in range(MAX_ORDER + 1):
            coefs[d, :size - d] = (u[:, d:] * _FALLING[d:size, d]).T / seg.h ** d
        magnitude = np.abs(coefs)
        total = magnitude.sum(1)[:, None]
        kept = (np.cumsum(magnitude[:, ::-1], axis=1)[:, ::-1] > TAYLOR_TOL * total) | ~np.isfinite(total)
        coefs[~kept] = 0.0
        return coefs, kept.sum(1)

    @np.errstate(over="ignore", invalid="ignore")
    def evaluate(self, x, owner, orders) -> np.ndarray:
        """u^(d) at a float array x for every d in orders (one row each), point
        i on piece owner[i] (or all on piece owner), by one Horner pass; a
        segment's leading zeros keep its bits."""
        orders = list(orders)
        if not all(0 <= d <= MAX_ORDER for d in orders):
            raise ValueError(f"derivative orders {orders} outside [0, {MAX_ORDER}]")
        (coefs, tops), (g, s) = self._derivatives, self.system.segments.locate(x, owner)
        if np.ndim(g) == 0 or g.size and g.min() == g.max():  # one segment: broadcast
            g = np.ravel(g)[0]
            top = max(int(tops[orders, g].max()), 1)
            table = coefs[orders, :top, g].reshape((len(orders), top) + (1,) * np.ndim(s))
            column = lambda m: table[:, m]  # noqa: E731
        else:  # each point's coefficients, gathered one degree at a time
            top = max(int(tops[orders][:, g].max(initial=0)), 1)
            table = coefs[orders, :top]
            column = lambda m: table[:, m].take(g, axis=1)  # noqa: E731
        out = np.empty((len(orders),) + np.shape(x))
        out[...] = column(top - 1)
        for m in range(top - 2, -1, -1):
            out *= s
            out += column(m)
        return out

    def labeled_constants(self):
        """Flat list of (piece_index, basis_render, constant), each row's basis rendered once."""
        labels = [[b.render() for b in form.basis] for form in self.forms]
        return [(k, label, c) for k, (row, constants)
                in enumerate(zip(self.system.bvp.ode_table[0], self.constants.tolist()))
                for label, c in zip(labels[row], constants)]


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
    char, forcing = characteristic_coeffs(pieces), _padded([p.forcing for p in pieces])
    groups = {}
    for k, piece in enumerate(pieces):
        s = next((j for j, aj in enumerate(piece.coeffs) if aj != 0.0), piece.order)
        groups.setdefault((s, len(piece.forcing) - 1), []).append(k)
    polys, checks = [None] * len(pieces), [None] * len(pieces)
    for (s, m), at in groups.items():
        size = s + m + 1
        c, q = char[at], forcing[at, :m + 1]
        # Column p holds the coefficients of L[x^p] = sum_j c_j (x^p)^(j):
        # c_j * perm(p, j) in row p - j, and +0.0 where c_j is zero.
        target, p, j, falling = _FALLING_AT[size]
        full_op = np.zeros((len(at), size, size))
        full_op[:, target, p] = np.where(c[:, j] != 0.0, c[:, j] * falling, 0.0)
        poly = np.zeros((len(at), size))
        poly[:, s:] = np.linalg.solve(full_op[:, : m + 1, s:], q[..., None])[..., 0]
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


def _padded(polys) -> np.ndarray:
    """Ascending coefficient tuples as the rows of one zero-padded array."""
    width = max(map(len, polys))
    return np.array([list(p) + [0.0] * (width - len(p)) for p in polys])


def _poly_derivatives(coeffs: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """[k, i]: the i-th derivative, i < count, of polynomial coeffs[k] at x[k]."""
    factors, exponents = _DERIVING[coeffs.shape[1]][count]
    return (coeffs[:, None] * factors * x[:, None, None] ** exponents).sum(-1)


def _closed_form_at_lo(bvp: PiecewiseBvp, forms, pieces) -> tuple[np.ndarray, np.ndarray]:
    """(W, p) of each of the pieces at its left end: W[k, i, j] the i-th
    derivative of its row's basis function j, p[k, i] of its particular."""
    n, row = bvp.order, [bvp.ode_table[0][k] for k in pieces]
    lo = np.array([bvp.pieces[k].lo for k in pieces])
    w = basis_values([fn for r in row for fn in forms[r].basis], np.repeat(lo, n),
                     np.arange(n)[:, None])
    parts = _padded([form.particular for form in forms])[row]
    return w.reshape(n, len(row), n).transpose(1, 0, 2), _poly_derivatives(parts, lo, n)


def _in_basis(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W^-1 y per piece, y of shape (pieces, n, k); nan for a singular W."""
    with np.errstate(all="ignore"):
        try:
            return np.linalg.solve(w, y)
        except np.linalg.LinAlgError:  # nan for the singular one, each piece alone
            if len(w) == 1:
                return np.full(y.shape, np.nan)
            return np.concatenate([_in_basis(w[k:k + 1], y[k:k + 1]) for k in range(len(w))])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _segments(bvp: PiecewiseBvp) -> Segments:
    """Split every piece into equal segments with rho*h <= GAMMA and build
    their Taylor tables; refuse a problem with more than MAX_SEGMENTS."""
    n, pieces = bvp.order, bvp.pieces
    width = max(len(p.forcing) for p in pieces)
    # Per piece: coeffs, interval, forcing length, forcing zero-padded to width.
    table = np.array([p.coeffs + p.interval + (len(p.forcing),) + p.forcing
                      + (0.0,) * (width - len(p.forcing)) for p in pieces])
    a, lo, q = table[:, :n], table[:, n], table[:, n + 3:]
    length = table[:, n + 1] - lo
    rho_l = 2.0 * (np.abs(a) ** _BOUND_POWERS[n]).max(axis=1) * length
    count = np.maximum(np.ceil(rho_l / GAMMA), 1.0)
    if not count.sum() <= MAX_SEGMENTS:
        k = int(np.argmax(rho_l))
        raise SolveError(f"piece {k} on {pieces[k].interval} needs {count[k]:.3g} segments "
                         f"of rho*L <= {GAMMA:g} (rho*L = {rho_l[k]:.3g}); the problem needs "
                         f"{count.sum():.3g}, more than MAX_SEGMENTS = {MAX_SEGMENTS}")
    count = count.astype(int)
    first = np.array([0, *accumulate(count.tolist())])
    owner = np.repeat(np.arange(len(pieces)), count)
    h = (length / count)[owner]
    seg_lo = lo[owner] + (np.arange(first[-1]) - first[owner]) * h
    scale = np.minimum(GAMMA * length / rho_l, table[-1, n + 1] - lo[0])[owner]
    # The degree: r past n + deg q, the first r with (rho h)^r / r! < TAYLOR_TOL.
    degree = (np.searchsorted(_REACH, rho_l / count, side="right") + n + table[:, n + 2])[owner]
    size = int(degree.max()) + 1
    # The derivatives d_m at s = 0 obey d_{m+n} = sum_j a_j h^(n-j) d_{m+j} +
    # h^(m+n) q^(m)(lo): the state (d_m.., f_m = h^(m+n) q^(m)(lo)..) steps by a
    # shift matrix C, so d_m = R_m S_0, R_m = e_0 C^m found by doubling.
    k = n + width
    hp = h[:, None] ** np.arange(k)
    comp = np.repeat(_SHIFT[k][None], len(h), axis=0)
    comp[:, n - 1, :n] = a[owner] * hp[:, n:0:-1]
    rows = np.zeros((len(h), size, k))
    rows[:, 0, 0] = 1.0
    span = 1
    while True:
        rows[:, span:2 * span] = rows[:, :min(span, size - span)] @ comp
        span *= 2
        if span >= size:
            break
        comp = comp @ comp
    # S_0: j! (h / scale)^j e_j for column j < n, the forcing for column n.
    start = np.zeros((len(h), k, n + 1))
    start[:, np.arange(n), np.arange(n)] = (h / scale)[:, None] ** np.arange(n) * _FACTORIAL[:n]
    start[:, n:, n] = _poly_derivatives(q[owner], seg_lo, width) * hp[:, n:]
    tables = rows @ start
    tables *= np.where(np.arange(size) <= degree[:, None], 1.0 / _FACTORIAL[:size], 0.0)[..., None]
    return Segments(first, seg_lo, h, scale, tables)


@np.errstate(over="ignore", invalid="ignore")
def assemble_system(bvp: PiecewiseBvp) -> MatchSystem:
    """Matching system in every segment's scaled Cauchy data, as row bands:
    point conditions (on the left piece at a breakpoint), continuity by
    breakpoint then order, pins, then the joints by position then order.  A
    condition is its table at its point in u^(d) scale^d / d!; a continuity
    or joint row the left table at s = 1 minus the right datum, order i in
    mu^i / i!, mu the smaller scale; a pin on (piece k, basis i) is row i of
    W(lo)^-1 over piece k's first data, whose closed forms the system keeps
    as its own.  An overflow leaves a non-finite entry for gauss_solve."""
    n, conds, pins = bvp.order, bvp.conditions, bvp.pins
    seg = _segments(bvp)
    size, scale, h = seg.tables.shape[1], seg.scale, seg.h
    where, d, values = np.array([(c.location, c.deriv_order, c.value)
                                 for c in conds]).reshape(-1, 3).T
    d = d.astype(int)
    # PiecewiseBvp keeps every condition in its domain: no range check here.
    g, s = seg.locate(where, np.searchsorted(seg.lo[seg.first[1:-1]], where, side="left"))
    # One table of powers: s, scale / h and scale per condition, then the
    # joints' mu / h on the left and mu / scale on the right.
    m, mu = len(conds), np.minimum(scale[:-1], scale[1:])
    raised = powers(np.concatenate([s, scale[g] / h[g], scale[g], mu / h[:-1], mu / scale[1:]]),
                    size)
    i = np.arange(m)
    weights = (_BINOMIAL[:size, d].T * raised[m + i, d, None]
               * raised[i[:, None], np.maximum(np.arange(size) - d[:, None], 0)])
    at = (weights[:, :, None] * seg.tables[g]).sum(1)
    values = values * raised[2 * m + i, d] / _FACTORIAL[d]
    left, right = raised[3 * m:3 * m + len(mu), :n], raised[3 * m + len(mu):, :n]
    ends = (_BINOMIAL[:size, :n].T @ seg.tables[:-1]) * left[..., None]
    pair = np.zeros((len(ends), n, 2 * n))
    pair[:, :, :n] = ends[..., :n]
    pair[:, np.arange(n), np.arange(n, 2 * n)] = -right
    last, joint = seg.first[1:-1] - 1, np.ones((len(ends), n), dtype=bool)
    joint[last] = False  # the rows of every order at a joint inside a piece
    take = np.concatenate([(last[:, None] * n + bvp.continuity.sorted_orders).ravel(),
                           np.flatnonzero(joint)])
    cut = m + len(last) * len(bvp.continuity.enforced_orders)  # the first pin row
    tail = -ends[..., n].ravel()[take]
    rhs = np.concatenate([values - at[:, n], tail[:cut - m], np.zeros(len(pins)), tail[cut - m:]])
    bands = list(zip((g * n).tolist(), (at[:, :n] + 0.0).tolist()))
    bands += zip((take // n * n).tolist(), (pair.reshape(-1, 2 * n)[take] + 0.0).tolist())
    system = MatchSystem(bands, rhs, n * len(seg.h), n, bvp, seg)
    if pins:  # rows cut.. of the system's bands and rhs, from its closed forms
        k = np.array([pin.piece_index for pin in pins])
        w, p = _closed_form_at_lo(bvp, system.forms, k)
        inverse = _in_basis(w, np.broadcast_to(np.eye(n), w.shape))
        pin_rows = inverse[np.arange(len(k)), [pin.basis_index for pin in pins]]
        pin_rhs = [pin.value for pin in pins] + (pin_rows * p).sum(1)
        pin_rows = pin_rows * seg.unscale(seg.first[k])
        top = np.abs(pin_rows).max(axis=1)
        bands[cut:cut] = zip((seg.first[k] * n).tolist(), (pin_rows / top[:, None] + 0.0).tolist())
        rhs[cut:cut + len(k)] = pin_rhs / top
    return system


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


def _minus_dot(acc: float, band, xs) -> float:
    """acc minus the dot of band and xs, one product at a time from the left
    in Python floats: the same bits on every Python version (a float sum is
    compensated from 3.12 on), and inf - inf is nan, not an error."""
    for a, y in zip(band, xs):
        acc -= a * y
    return acc


def _back_substitute(bands, b, pivots, x: list) -> list:
    """x with each pivot column solved from its echelon row, last row first:
    x[c] is b[r] minus row r's band right of its pivot c times x there, over
    the pivot.  The other columns keep their values in x (zeros, or a free
    column's 1)."""
    for r in range(len(pivots) - 1, -1, -1):
        (f, band), c = bands[r], pivots[r]
        x[c] = _minus_dot(b[r], band[c + 1 - f:], x[c + 1:f + len(band)]) / band[c - f]
    return x


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def gauss_solve(system: MatchSystem) -> np.ndarray:
    """The unknowns of the matching system, by one Gauss elimination with
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
    x = np.array(_back_substitute(bands, b, pivot_cols, [0.0] * n))
    if not np.isfinite(x).all():
        piece, index = divmod(int(np.argmin(np.isfinite(x))), system.order)
        raise SolveError(f"matching system solution is non-finite (overflow), "
                         f"first at unknown (piece {piece}, {index})")
    if len(rhs) > n and not (norm := residual_norm(system, x)) <= gate:
        raise InconsistentSystemError(norm)
    return x


@np.errstate(over="ignore", invalid="ignore")
def _in_basis_terms(system: MatchSystem, exc: RankDeficientError):
    """exc in the published basis: the null vectors of the system's echelon
    form mapped through W(lo)^-1, their free columns chosen as elimination
    chooses them, the pivots of their echelon form from the last column."""
    seg, n = system.segments, system.order
    first = seg.first[:-1]
    free = [g * n + j for g, j in exc.free_columns][:n * len(first)]
    bands, _, pivots = _echelon(system.bands, system.rhs, system.width)
    null = np.zeros((len(free), system.width))
    null[np.arange(len(free)), free] = 1.0
    zeros = [0.0] * len(pivots)
    null = np.array([_back_substitute(bands, zeros, pivots, x) for x in null.tolist()]).T
    data = null.reshape(-1, n, len(free))[first] * seg.unscale(first)[..., None]
    left = _in_basis(_closed_form_at_lo(system.bvp, system.forms, range(len(first)))[0], data)
    reverse = np.nan_to_num(left.reshape(-1, len(free)).T[:, ::-1], posinf=0.0, neginf=0.0)
    reverse /= np.maximum(np.abs(reverse).max(axis=1, keepdims=True), np.finfo(float).tiny)
    chosen = _echelon([(0, row) for row in reverse.tolist()], np.zeros(len(free)), reverse.shape[1])[2]
    return RankDeficientError(n * len(first) - len(free), len(free),
                              sorted(divmod(reverse.shape[1] - 1 - c, n) for c in chosen))


def solve_exact(bvp: PiecewiseBvp) -> PiecewiseSolution:
    """The segment tables and the matching system, solved for the Cauchy
    data; closed forms only for pins or pin advice.  Raises
    :class:`RankDeficientError` with pin advice or
    :class:`InconsistentSystemError`, each with the published basis' rank."""
    system = assemble_system(bvp)
    try:
        data = gauss_solve(system)
    except RankDeficientError as exc:
        raise _in_basis_terms(system, exc) from None
    except InconsistentSystemError as exc:
        if exc.rank is None:
            raise
        joints = system.width - bvp.order * len(bvp.pieces)  # each fixes one datum
        raise InconsistentSystemError(exc.norm, exc.rank - joints) from None
    return PiecewiseSolution(data.reshape(-1, bvp.order), system)


def eval_solution(sol: PiecewiseSolution, bvp: PiecewiseBvp, x,
                  deriv_order: int = 0):
    """Evaluate the piecewise solution at a scalar or an array x; breakpoints
    belong to the right piece (except the global endpoint b, owned by the
    last piece), by :meth:`PiecewiseSolution.evaluate`."""
    x = np.asarray(x, dtype=float)
    return sol.evaluate(x, bvp.owning_piece(x), [deriv_order])[0][()]
