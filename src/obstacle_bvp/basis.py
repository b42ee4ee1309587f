"""Characteristic roots and the real fundamental bases the solutions publish.

Each piece's operator u^(n) - sum_j a_j u^(j) has a degree-n characteristic
polynomial whose roots give n real basis functions x^k e^(lambda x),
x^k e^(alpha x) cos(beta x) and the matching sine.  :func:`piece_basis`
finds the raw roots of all ODE rows of one order in one stacked call, then
merges each row's n <= 4 roots into its basis in plain Python: a row is a
handful of scalars, and an array pass over the few rows of a problem costs
more in numpy calls than it saves.  :func:`basis_values` evaluates the
functions' derivatives in closed form, for each piece's Wronskian at its
left end, with its factor and power tables gathered by row.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .model import SUPPORTED_ORDERS, SolveError

# Roots closer than this (relative to the largest root modulus, at least 1)
# are merged.  A double root comes out of the quadratic formula or the
# companion eigenvalues split by about sqrt(eps)*scale ~ 1.5e-8*scale; left
# unmerged it gives two numerically identical exp columns.  Merging roots
# delta apart at their mean r leaves an ODE residual of about
# (delta/2)^2*|Q(r)|, Q the characteristic polynomial with the pair divided
# out: at most 2.5e-13*scale^2 here, far inside the verification tolerance.
CLUSTER_TOL = 1e-6

MAX_ORDER = max(SUPPORTED_ORDERS)

POLY_EXP = "PolyExp"
EXP_COS = "ExpCos"
EXP_SIN = "ExpSin"

_KIND_ORDER = {EXP_COS: 0, EXP_SIN: 1, POLY_EXP: 2}


class RootFindingError(SolveError):
    """The characteristic root finder failed or returned an unpaired complex root."""


@dataclass(frozen=True)
class BasisFunction:
    """One real fundamental solution.

    kind 'PolyExp':  x^k e^(alpha x)   (beta = 0; alpha = 0 is a monomial)
    kind 'ExpCos':   x^k e^(alpha x) cos(beta x)
    kind 'ExpSin':   x^k e^(alpha x) sin(beta x)
    """

    kind: str
    k: int
    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not 0 <= self.k < MAX_ORDER:
            raise ValueError(f"power k must be in [0, {MAX_ORDER - 1}]")
        if self.kind in (EXP_COS, EXP_SIN) and not self.beta > 0:
            raise ValueError("trigonometric kinds require beta > 0")
        if self.kind == POLY_EXP and self.beta != 0.0:
            raise ValueError("kind PolyExp requires beta = 0")

    def render(self) -> str:
        """Human-readable form, e.g. 'x^2*exp(-0.5x)*cos(0.866x)'."""
        parts = []
        if self.k == 1:
            parts.append("x")
        elif self.k > 1:
            parts.append(f"x^{self.k}")
        if self.alpha == 1.0:
            parts.append("exp(x)")
        elif self.alpha == -1.0:
            parts.append("exp(-x)")
        elif self.alpha != 0.0:
            parts.append(f"exp({self.alpha:g}x)")
        if self.kind == EXP_COS:
            parts.append(f"cos({self.beta:g}x)")
        elif self.kind == EXP_SIN:
            parts.append(f"sin({self.beta:g}x)")
        return "*".join(parts) if parts else "1"


def characteristic_coeffs(pieces) -> np.ndarray:
    """Characteristic polynomials lambda^n - sum_j a_j lambda^j of all pieces.

    Row k holds pieces[k]'s in ascending order (c0, ..., cn) with cn = 1,
    zero-padded to degree MAX_ORDER.
    """
    return np.array([[-a for a in p.coeffs] + [1.0] + [0.0] * (MAX_ORDER - p.order)
                     for p in pieces])


def _raw_roots(char: np.ndarray) -> list[list[complex]]:
    """Unmerged roots of every row of a stack of monic polynomials of one
    degree: the quadratic formula for degree 2, one stacked companion-matrix
    eigvals call for degrees 3 and 4.  LAPACK solves each matrix on its own,
    so a row's roots do not depend on the other rows, except that a real root
    comes back as a float or with a +-0 imaginary part, which merging snaps."""
    n = char.shape[1] - 1
    if n == 2:
        out = []
        for c0, c1, _ in char.tolist():  # Python floats overflow to inf silently
            disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
            out.append([(-c1 + disc) / 2.0, (-c1 - disc) / 2.0])
        return out
    comp = np.zeros((len(char), n, n))
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -char[:, :-1]
    return np.linalg.eigvals(comp).tolist()


_KINDS = (EXP_COS, EXP_SIN, POLY_EXP)  # by _KIND_ORDER
_REAL_IMAG = operator.attrgetter("real", "imag")


def _real_basis(raw, coeffs: list[float]) -> tuple[BasisFunction, ...]:
    """One ODE's real fundamental system from the raw roots of its
    characteristic polynomial coeffs.

    With tol = CLUSTER_TOL times the largest root modulus (at least 1),
    near-real roots are snapped onto the axis, roots within tol of a
    cluster's first root merge into one root of higher multiplicity at the
    cluster mean, and each complex root pairs with the first unpaired root
    within 2 tol of its conjugate, which must have the same multiplicity; the
    pair shares the averaged alpha and beta.  Ordering is deterministic:
    ascending real part, then kind (cos, sin, exp), then power k, so solved
    constants are comparable across runs.
    """
    raw = [complex(r) for r in raw]
    if not all(map(cmath.isfinite, raw)):
        raise RootFindingError(f"root finder diverged on polynomial {coeffs}")
    tol = CLUSTER_TOL * max(1.0, *map(abs, raw))

    clusters: list[list[complex]] = []
    for r in sorted([complex(r.real, 0.0) if -tol <= r.imag <= tol else r for r in raw],
                    key=_REAL_IMAG):
        for group in clusters:
            if abs(r - group[0]) <= tol:
                group.append(r)
                break
        else:
            clusters.append([r])

    roots = []  # (value, multiplicity): real roots, then one root per pair
    complex_roots = []
    for group in clusters:
        mean = sum(group) / len(group)
        # Members are all snapped or all more than tol off one side of the axis.
        if mean.imag == 0.0:
            roots.append((complex(mean.real, 0.0), len(group)))
        else:
            complex_roots.append((mean, len(group)))
    while complex_roots:
        r, m = complex_roots.pop(0)
        mate = next((j for j, (s, _) in enumerate(complex_roots)
                     if abs(s - r.conjugate()) <= 2 * tol), None)
        if mate is None or complex_roots[mate][1] != m:
            raise RootFindingError(f"unpaired complex root {r} of polynomial {coeffs}")
        s = complex_roots.pop(mate)[0]
        roots.append((complex((r.real + s.real) / 2.0, (abs(r.imag) + abs(s.imag)) / 2.0), m))

    # (alpha, kind order, beta, k) of every function, sorted as plain tuples.
    keys = sorted((r.real, kind, r.imag, k) for r, m in roots
                  for kind in ((_KIND_ORDER[POLY_EXP],) if r.imag == 0.0 else
                               (_KIND_ORDER[EXP_COS], _KIND_ORDER[EXP_SIN]))
                  for k in range(m))
    return tuple(BasisFunction(_KINDS[kind], k, alpha, beta) for alpha, kind, beta, k in keys)


# _FACTORS[m * MAX_ORDER + k, i] = comb(m, i) * perm(k, i): the factor of
# term i of the m-th derivative of x^k e^(lambda x), zero past min(k, m);
# _BELOW[p, i] = max(p - i, 0), the power of a factor of term i.
_FACTORS = np.array([[math.comb(m, i) * math.perm(k, i) for i in range(MAX_ORDER)]
                     for m in range(MAX_ORDER + 1) for k in range(MAX_ORDER)], dtype=float)
_BELOW = np.maximum(np.arange(MAX_ORDER + 1)[:, None] - np.arange(MAX_ORDER), 0)


@np.errstate(over="ignore", invalid="ignore")
def basis_values(fns, x, orders) -> np.ndarray:
    """Entry [..., j] is fns[j]^(orders[..., j]) at x[..., j], x and orders
    broadcast with fns along their last axis: e^(lambda x) times the sum over
    i <= min(k, m) of comb(m, i) k!/(k - i)! lambda^(m - i) x^(k - i), its
    real part (PolyExp, ExpCos) or imaginary part (ExpSin).  Elementwise,
    powers by products: an entry does not depend on the others.  An overflow
    gives inf or nan and raises nothing."""
    x, m = np.asarray(x, dtype=float), np.asarray(orders)
    shape = np.broadcast(x, m, np.empty(len(fns))).shape
    x, m = np.full(shape, x).ravel(), np.full(shape, m).ravel()
    j = np.arange(x.size) % max(len(fns), 1)  # entry e is function j[e]
    lam = np.array([complex(fn.alpha, fn.beta) for fn in fns] or [0j])[j]
    k = np.array([fn.k for fn in fns] or [0])[j]
    at = np.arange(x.size)[:, None]  # term i, factor 0 past min(k, m)
    terms = (_FACTORS[m * MAX_ORDER + k]
             * powers(lam, MAX_ORDER + 1)[at, _BELOW[m]]
             * powers(x, MAX_ORDER)[at, _BELOW[k]])
    env = np.zeros(x.size, dtype=complex)
    for term in terms.T:
        env += term
    z = np.exp(lam * x) * env
    return np.where(np.array([fn.kind == EXP_SIN for fn in fns] or [False])[j],
                    z.imag, z.real).reshape(shape)


def powers(x, count: int) -> np.ndarray:
    """[..., p] = x^p for p < count by repeated products, so that an entry
    does not depend on the array it sits in, as numpy's power may."""
    table = np.empty(np.shape(x) + (count,), dtype=np.result_type(x, 1.0))
    table[...] = np.asarray(x)[..., None]
    table[..., 0] = 1.0
    return np.cumprod(table, axis=-1)


def piece_basis(pieces) -> list[tuple[BasisFunction, ...]]:
    """Real basis of every piece: characteristic polynomials as one array,
    raw roots in one pass per order, then each piece's basis from its raw
    roots in piece order, so the first piece that fails raises."""
    char = characteristic_coeffs(pieces)
    orders = [p.order for p in pieces]
    raw = [None] * len(pieces)
    for n in set(orders):
        at = [k for k, order in enumerate(orders) if order == n]
        for k, roots in zip(at, _raw_roots(char[at, :n + 1])):
            raw[k] = roots
    return [_real_basis(roots, c[:n + 1]) for roots, c, n in zip(raw, char.tolist(), orders)]
