"""Problem model: piecewise constant-coefficient linear ODE boundary-value problems.

A problem is an ordered list of contiguous pieces, each carrying a normalized
ODE u^(n) = sum_j a_j u^(j) + q(x) with polynomial forcing q, together with
point conditions, a continuity specification for the interior breakpoints,
and optional pinned constants for underdetermined systems.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SUPPORTED_ORDERS = (2, 3, 4)
MAX_FORCING_DEGREE = 6
MAX_PIECES = 16


class ProblemError(ValueError):
    """A problem definition violates a structural invariant."""


class SolveError(RuntimeError):
    """A closed-form solve failed: a matching system that is non-finite,
    rank-deficient or inconsistent, or a particular ansatz that did not hold."""


def _as_poly(coeffs) -> tuple[float, ...]:
    """Coerce a scalar or coefficient sequence to a trimmed tuple (q0, q1, ...)."""
    if np.isscalar(coeffs):
        coeffs = (float(coeffs),)
    out = [float(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class PieceOde:
    """One interval's normalized ODE: u^(n) = sum_j coeffs[j] * u^(j) + forcing(x).

    The leading coefficient is always +1; any leading sign must be folded in
    via :func:`normalize_piece`.  ``coeffs`` has length ``order`` (entries for
    u, u', ..., u^(n-1)); ``forcing`` is a polynomial coefficient tuple
    (q0, q1, ...) of degree at most 6.
    """

    order: int
    interval: tuple[float, float]
    coeffs: tuple[float, ...]
    forcing: tuple[float, ...]

    def __post_init__(self):
        if self.order not in SUPPORTED_ORDERS:
            raise ProblemError(f"unsupported order {self.order}; expected one of {SUPPORTED_ORDERS}")
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ProblemError(f"degenerate interval {self.interval}")
        if len(self.coeffs) != self.order:
            raise ProblemError(
                f"coeffs must have length {self.order}, got {len(self.coeffs)}"
            )
        if not self.forcing:
            raise ProblemError(f"forcing on {self.interval} has no coefficients")
        if len(self.forcing) - 1 > MAX_FORCING_DEGREE:
            raise ProblemError(
                f"forcing degree {len(self.forcing) - 1} exceeds maximum {MAX_FORCING_DEGREE}"
            )
        if not all(map(math.isfinite, (*self.coeffs, *self.forcing))):
            raise ProblemError(
                f"non-finite coefficient or forcing on {self.interval}: "
                f"coeffs {self.coeffs}, forcing {self.forcing}"
            )

    @property
    def lo(self) -> float:
        return self.interval[0]

    @property
    def hi(self) -> float:
        return self.interval[1]

    def forcing_value(self, x):
        return np.polynomial.polynomial.polyval(x, self.forcing)


@dataclass(frozen=True)
class PointCondition:
    """u^(deriv_order)(location) = value."""

    location: float
    deriv_order: int
    value: float

    def __post_init__(self):
        if self.deriv_order < 0:
            raise ProblemError(f"negative derivative order {self.deriv_order}")
        if not math.isfinite(self.value):
            raise ProblemError(f"non-finite condition value {self.value}")


@dataclass(frozen=True)
class ContinuitySpec:
    """Derivative orders matched at every interior breakpoint."""

    enforced_orders: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "enforced_orders", frozenset(self.enforced_orders))
        if not self.enforced_orders:
            raise ProblemError("continuity spec must enforce at least one order")
        if any(j < 0 for j in self.enforced_orders):
            raise ProblemError("continuity orders must be non-negative")

    @property
    def sorted_orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.enforced_orders))


@dataclass(frozen=True)
class PinnedConstant:
    """Fix one basis constant: constants[piece_index][basis_index] = value."""

    piece_index: int
    basis_index: int
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ProblemError(f"non-finite pin value {self.value}")


@dataclass(frozen=True)
class PiecewiseBvp:
    """A full piecewise problem: pieces + point conditions + continuity + pins,
    with an ODE table (:attr:`ode_table`) of which pieces share an ODE."""

    order: int
    pieces: tuple[PieceOde, ...]
    conditions: tuple[PointCondition, ...]
    continuity: ContinuitySpec
    pins: tuple[PinnedConstant, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "pins", tuple(self.pins))
        if not self.pieces:
            raise ProblemError("at least one piece required")
        if len(self.pieces) > MAX_PIECES:
            raise ProblemError(f"more than {MAX_PIECES} pieces not supported")
        for p in self.pieces:
            if p.order != self.order:
                raise ProblemError(
                    f"piece order {p.order} does not match problem order {self.order}"
                )
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ProblemError(
                    f"pieces not contiguous: {left.interval} then {right.interval}"
                )
        if any(j >= self.order for j in self.continuity.enforced_orders):
            raise ProblemError("continuity orders must be below the problem order")
        a, b = self.domain
        for cond in self.conditions:
            if not (a <= cond.location <= b):
                raise ProblemError(f"condition location {cond.location} outside [{a}, {b}]")
            if cond.deriv_order >= self.order:
                raise ProblemError(
                    f"condition derivative order {cond.deriv_order} >= problem order"
                )
        for pin in self.pins:
            if not (0 <= pin.piece_index < len(self.pieces)):
                raise ProblemError(f"pin piece index {pin.piece_index} out of range")
            if not (0 <= pin.basis_index < self.order):
                raise ProblemError(f"pin basis index {pin.basis_index} out of range")

    @cached_property
    def ode_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(each piece's row, each row's first piece), rows in first-seen
        order, built on first read: two pieces share a row exactly when the
        bits of coeffs + forcing are equal, so -0.0 and 0.0 differ."""
        rows = {}
        row = [rows.setdefault(struct.pack(f"{len(key)}d", *key), len(rows))
               for key in (p.coeffs + p.forcing for p in self.pieces)]
        return tuple(row), tuple(map(row.index, range(len(rows))))

    @cached_property
    def _cuts(self) -> np.ndarray:
        """The interior breakpoints as one array, built on first read."""
        return np.array(self.interior_breakpoints)

    @property
    def domain(self) -> tuple[float, float]:
        return self.pieces[0].lo, self.pieces[-1].hi

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(p.lo for p in self.pieces) + (self.pieces[-1].hi,)

    @property
    def interior_breakpoints(self) -> tuple[float, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    def owning_piece(self, x, side: str = "right"):
        """Index of the piece that owns x (a scalar or an array).

        Breakpoints belong to the right piece for ``side='right'`` (used for
        evaluation; intervals are half-open [lo, hi) except the last) and to
        the left-adjacent piece for ``side='left'`` (used for point
        conditions placed at interior breakpoints).
        """
        x = np.asarray(x, dtype=float)
        a, b = self.domain
        if x.size and not (a <= x.min() and x.max() <= b):  # a NaN fails both
            raise ProblemError(f"x = {x[~((a <= x) & (x <= b))][0]} outside domain [{a}, {b}]")
        return np.searchsorted(self._cuts, x, side=side)


@dataclass(frozen=True)
class BvpDiagnostics:
    """Structural report produced by :func:`validate_bvp` before any solve."""

    n_unknowns: int
    n_equations: int

    @property
    def determinacy(self) -> str:
        if self.n_equations == self.n_unknowns:
            return "square"
        return "overdetermined" if self.n_equations > self.n_unknowns else "underdetermined"


def normalize_piece(sign, raw_coeffs, raw_forcing, interval, order) -> PieceOde:
    """Build a PieceOde with leading coefficient +1.

    ``sign`` is the coefficient of u^(n) on the left-hand side as written
    (+1 or -1); for sign = -1 the right-hand side is negated.  ``raw_coeffs``
    may be shorter than ``order`` and is zero-padded.
    """
    if sign not in (1, -1):
        raise ProblemError(f"leading sign must be +1 or -1, got {sign}")
    if order not in SUPPORTED_ORDERS:  # before padding the coefficients to it
        raise ProblemError(f"unsupported order {order}; expected one of {SUPPORTED_ORDERS}")
    if len(interval) != 2:
        raise ProblemError(f"interval must be (lo, hi), got {tuple(interval)}")
    coeffs = [float(c) for c in raw_coeffs]
    if len(coeffs) > order:
        raise ProblemError(f"too many coefficients ({len(coeffs)}) for order {order}")
    coeffs += [0.0] * (order - len(coeffs))
    forcing = _as_poly(raw_forcing)
    if sign == -1:
        coeffs = [-c for c in coeffs]
        forcing = tuple(-q for q in forcing)
    return PieceOde(order=order, interval=(float(interval[0]), float(interval[1])),
                    coeffs=tuple(coeffs), forcing=forcing)


def validate_bvp(bvp: PiecewiseBvp) -> BvpDiagnostics:
    """Count unknowns vs equations and report the predicted determinacy class."""
    n_cont = len(bvp.continuity.enforced_orders) * (len(bvp.pieces) - 1)
    return BvpDiagnostics(n_unknowns=bvp.order * len(bvp.pieces),
                          n_equations=len(bvp.conditions) + n_cont + len(bvp.pins))


def _three_piece(order, g, f, r, a, c, d, b, conditions, continuity, coupling, pins):
    if not (a < c < d < b):
        raise ProblemError(f"breakpoints must satisfy a < c < d < b, got {(a, c, d, b)}")
    coupling = dict(coupling or {})
    if any(j <= 0 or j >= order for j in coupling):
        raise ProblemError("derivative couplings must target orders 1..n-1")
    outer = [0.0] * order
    for j, cj in coupling.items():
        outer[j] = float(cj)
    middle = list(outer)
    middle[0] += float(f)
    g_poly = list(_as_poly(g))
    mid_forcing = list(g_poly)
    mid_forcing[0] += float(r)
    pieces = (
        PieceOde(order, (float(a), float(c)), tuple(outer), tuple(g_poly)),
        PieceOde(order, (float(c), float(d)), tuple(middle), _as_poly(mid_forcing)),
        PieceOde(order, (float(d), float(b)), tuple(outer), tuple(g_poly)),
    )
    return PiecewiseBvp(
        order=order,
        pieces=pieces,
        conditions=tuple(conditions),
        continuity=continuity,
        pins=tuple(pins or ()),
    )


def build_second_order(g, f, r, a, c, d, b, conditions, continuity=None,
                       coupling=None, pins=()) -> PiecewiseBvp:
    """Three-piece second-order problem: u'' = g outside [c,d), u'' = f*u + g + r inside.

    ``g`` is a polynomial (scalar or coefficient sequence); a derivative
    coupling inside g (e.g. g containing u') is passed as
    ``coupling={deriv_order: coefficient}`` and folded into every piece.
    """
    cont = continuity or ContinuitySpec(frozenset({0, 1}))
    return _three_piece(2, g, f, r, a, c, d, b, conditions, cont, coupling, pins)


def build_third_order(g, f, r, a, c, d, b, conditions, continuity=None,
                      coupling=None, pins=()) -> PiecewiseBvp:
    """Three-piece third-order problem; continuity defaults to orders {1, 2}."""
    cont = continuity or ContinuitySpec(frozenset({1, 2}))
    return _three_piece(3, g, f, r, a, c, d, b, conditions, cont, coupling, pins)


def build_fourth_order(g, f, r, a, c, d, b, conditions, continuity=None,
                       coupling=None, pins=()) -> PiecewiseBvp:
    """Three-piece fourth-order problem; continuity defaults to orders {1, 2, 3}."""
    cont = continuity or ContinuitySpec(frozenset({1, 2, 3}))
    return _three_piece(4, g, f, r, a, c, d, b, conditions, cont, coupling, pins)
