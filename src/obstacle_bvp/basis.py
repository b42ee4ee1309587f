"""Characteristic roots and real fundamental bases for constant-coefficient pieces.

Each piece's homogeneous operator u^(n) - sum_j a_j u^(j) has a degree-n
characteristic polynomial; its roots generate n real basis functions of the
forms x^k e^(lambda x), x^k e^(alpha x) cos(beta x) and the matching sine.
Derivatives of basis functions are expanded analytically (never by finite
differences) so that matching rows and residual checks are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import zip_longest

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
        if self.k < 0:
            raise ValueError("power k must be non-negative")
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
    if any(not (math.isfinite(r.real) and math.isfinite(r.imag)) for r in raw):
        raise RootFindingError(f"root finder diverged on polynomial {coeffs}")
    tol = CLUSTER_TOL * max(1.0, max(abs(r) for r in raw))

    clusters: list[list[complex]] = []
    for r in sorted((complex(r.real, 0.0) if abs(r.imag) <= tol else r for r in raw),
                    key=lambda z: (z.real, z.imag)):
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

    out = []
    for r, m in sorted(roots, key=lambda rm: (rm[0].real, rm[0].imag)):
        kinds = (POLY_EXP,) if r.imag == 0.0 else (EXP_COS, EXP_SIN)
        out += [BasisFunction(kind, k, r.real, r.imag) for kind in kinds for k in range(m)]
    return tuple(sorted(out, key=lambda b: (b.alpha, _KIND_ORDER[b.kind], b.beta, b.k)))


def basis_derivatives(fns, x, orders):
    """Entry [..., j] is fns[j]^(orders[j]) at x[..., j], exact and analytic.

    The last axis of x matches fns; orders is one int or one per function.
    Every kind is the real part (PolyExp, ExpCos) or the imaginary part
    (ExpSin) of x^k e^(lambda x) with lambda = alpha + i beta, whose m-th
    derivative is e^(lambda x) * sum_i C(m, i) k!/(k-i)! lambda^(m-i) x^(k-i).
    Coefficients are Python complex numbers, x meets only scalar integer
    powers and complex products are written out in real arithmetic (numpy's
    vectorised complex multiply rounds differently from its scalar one), so
    an entry does not depend on its neighbours.  Overflow is silent (inf/nan).
    """
    return eval_terms(basis_terms(fns, [orders]), np.asarray(x, dtype=float), [0])[0]


def basis_terms(fns, order_sets):
    """The kernel's x-independent half: lambdas, all real?, largest k and per
    order set (an int or one per function) its term rows.  Row i is term i of
    every function: real and imaginary coefficients (zero where a function has
    fewer terms) and the power of x, one int or one per function."""
    lams, rows = [complex(fn.alpha, fn.beta) for fn in fns], []
    for orders in order_sets:
        if isinstance(orders, (int, np.integer)):
            orders = (orders,) * len(fns)
        coefs, powers = [], []
        for fn, lam, m in zip(fns, lams, orders):
            m = int(m)  # lambda ** m stays CPython's complex power
            if not 0 <= m <= 4:
                raise ValueError(f"derivative order {m} outside [0, 4]")
            try:
                cs = [math.comb(m, i) * math.perm(fn.k, i) * lam ** (m - i)
                      for i in range(min(fn.k, m) + 1)]
            except OverflowError:  # CPython's complex power raises, numpy's gives inf
                cs = [complex(math.nan, math.nan)] * (min(fn.k, m) + 1)
            if fn.kind == EXP_SIN:  # Im(z) = Re(-i z)
                cs = [complex(c.imag, -c.real) for c in cs]
            coefs.append(cs)
            powers.append(range(fn.k, fn.k - len(cs), -1))
        coefs = np.array(list(zip_longest(*coefs, fillvalue=0j)))
        rows.append([(c.real, c.imag, p[0] if len(set(p)) == 1 else np.array(p))
                     for c, p in zip(coefs, zip_longest(*powers, fillvalue=0))])
    return np.array(lams), all(fn.kind == POLY_EXP for fn in fns), max(fn.k for fn in fns), rows


@np.errstate(over="ignore", invalid="ignore")
def eval_terms(terms, x, sets):
    """The kernel's numeric half: the order sets at indices sets of
    :func:`basis_terms`' terms at a float array x, one array each; exp(lambda x)
    and the powers of x are computed once for all of them."""
    lams, real, k_max, rows = terms
    x_pows = [1.0] + [x ** p for p in range(1, k_max + 1)]
    e = np.exp(lams * x)
    out = []
    for s in sets:
        if k_max == 0:  # one term, times x^0 = 1
            env_r, env_i, _ = rows[s][0]
        else:
            env_r = env_i = 0.0
            for c_r, c_i, p in rows[s]:
                xp = x_pows[p] if isinstance(p, int) else np.choose(p, x_pows)
                env_r = env_r + c_r * xp
                if not real:  # a real lambda has e.imag = +-0
                    env_i = env_i + c_i * xp
        out.append(e.real * env_r if real else e.real * env_r - e.imag * env_i)
    return out


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
