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

from .model import PieceOde

# Roots closer than this (relative to the largest root modulus, at least 1)
# are merged.  A double root comes out of the quadratic formula or the
# companion eigenvalues split by about sqrt(eps)*scale ~ 1.5e-8*scale; left
# unmerged it gives two numerically identical exp columns.  Merging roots
# delta apart at their mean r leaves an ODE residual of about
# (delta/2)^2*|Q(r)|, Q the characteristic polynomial with the pair divided
# out: at most 2.5e-13*scale^2 here, far inside the verification tolerance.
CLUSTER_TOL = 1e-6

POLY_EXP = "PolyExp"
EXP_COS = "ExpCos"
EXP_SIN = "ExpSin"

_KIND_ORDER = {EXP_COS: 0, EXP_SIN: 1, POLY_EXP: 2}


class RootFindingError(RuntimeError):
    """The characteristic root finder failed or returned an unpaired complex root."""


@dataclass(frozen=True)
class CharRoot:
    value: complex
    multiplicity: int


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


def monomial(k: int) -> BasisFunction:
    return BasisFunction(POLY_EXP, k, 0.0)


def characteristic_coeffs(piece: PieceOde) -> np.ndarray:
    """Characteristic polynomial lambda^n - sum_j a_j lambda^j.

    Returned in ascending order (c0, ..., cn) with cn = 1.
    """
    c = np.zeros(piece.order + 1)
    c[-1] = 1.0
    c[:-1] = [-a for a in piece.coeffs]
    return c


def find_roots(coeffs) -> list[CharRoot]:
    """All roots of a monic real polynomial of degree 2..4, with multiplicity.

    Degree 2 uses the quadratic formula; degrees 3 and 4 use companion-matrix
    eigenvalues.  Nearby roots (relative distance below CLUSTER_TOL) are merged
    into one root with higher multiplicity, and conjugate symmetry is restored
    exactly by averaging each pair.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    if n not in (2, 3, 4):
        raise RootFindingError(f"expected degree 2..4, got {n}")
    if coeffs[-1] != 1.0:
        raise RootFindingError("polynomial must be monic")

    if n == 2:
        c0, c1, _ = coeffs.tolist()  # Python floats overflow to inf silently
        disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
        raw = [(-c1 + disc) / 2.0, (-c1 - disc) / 2.0]
    else:
        comp = np.zeros((n, n))
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -coeffs[:-1]
        raw = list(np.linalg.eigvals(comp))
    if any(not (math.isfinite(r.real) and math.isfinite(r.imag)) for r in map(complex, raw)):
        raise RootFindingError(f"root finder diverged on polynomial {coeffs.tolist()}")

    scale = max(1.0, max(abs(complex(r)) for r in raw))
    tol = CLUSTER_TOL * scale

    # Snap near-real roots onto the axis before clustering / pairing.
    snapped = []
    for r in map(complex, raw):
        snapped.append(complex(r.real, 0.0) if abs(r.imag) <= tol else r)

    clusters: list[list[complex]] = []
    for r in sorted(snapped, key=lambda z: (z.real, z.imag)):
        for group in clusters:
            if abs(r - group[0]) <= tol:
                group.append(r)
                break
        else:
            clusters.append([r])

    roots = []
    for group in clusters:
        mean = sum(group) / len(group)
        if abs(mean.imag) <= tol:
            mean = complex(mean.real, 0.0)
        roots.append(CharRoot(mean, len(group)))

    # Enforce exact conjugate symmetry on the complex roots.
    complex_roots = [r for r in roots if r.value.imag != 0.0]
    real_roots = [r for r in roots if r.value.imag == 0.0]
    paired: list[CharRoot] = []
    used = [False] * len(complex_roots)
    for i, r in enumerate(complex_roots):
        if used[i]:
            continue
        mate = None
        for j in range(i + 1, len(complex_roots)):
            if not used[j] and abs(complex_roots[j].value - r.value.conjugate()) <= 2 * tol:
                mate = j
                break
        if mate is None or complex_roots[mate].multiplicity != r.multiplicity:
            raise RootFindingError(
                f"unpaired complex root {r.value} of polynomial {coeffs.tolist()}"
            )
        used[i] = used[mate] = True
        alpha = (r.value.real + complex_roots[mate].value.real) / 2.0
        beta = (abs(r.value.imag) + abs(complex_roots[mate].value.imag)) / 2.0
        paired.append(CharRoot(complex(alpha, beta), r.multiplicity))
        paired.append(CharRoot(complex(alpha, -beta), r.multiplicity))
    roots = real_roots + paired
    total = sum(r.multiplicity for r in roots)
    if total != n:
        raise RootFindingError(f"root multiplicities sum to {total}, expected {n}, "
                               f"for polynomial {coeffs.tolist()}")
    return sorted(roots, key=lambda r: (r.value.real, r.value.imag))


def real_basis(roots: list[CharRoot]) -> list[BasisFunction]:
    """Real fundamental system from a conjugate-complete root list.

    Ordering is deterministic: ascending real part, then kind (cos, sin,
    exp), then power k, so solved constants are comparable across runs.
    """
    out: list[BasisFunction] = []
    seen_pairs = set()
    for r in roots:
        if r.value.imag == 0.0:
            for k in range(r.multiplicity):
                out.append(BasisFunction(POLY_EXP, k, r.value.real))
        else:
            key = (r.value.real, abs(r.value.imag))
            if key in seen_pairs:
                continue
            pair_tol = 1e-12 * (1.0 + abs(r.value))
            mates = [s for s in roots
                     if s is not r and abs(s.value - r.value.conjugate()) <= pair_tol]
            if not mates:
                raise RootFindingError(f"unpaired complex root {r.value}")
            seen_pairs.add(key)
            alpha, beta = key
            for k in range(r.multiplicity):
                out.append(BasisFunction(EXP_COS, k, alpha, beta))
            for k in range(r.multiplicity):
                out.append(BasisFunction(EXP_SIN, k, alpha, beta))
    out.sort(key=lambda b: (b.alpha, _KIND_ORDER[b.kind], b.beta, b.k))
    return out


@np.errstate(over="ignore", invalid="ignore")
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
    x = np.asarray(x, dtype=float)
    if isinstance(orders, (int, np.integer)):
        orders = (orders,) * len(fns)
    terms = []  # per function: lambda, coefficients, powers of x
    for fn, m in zip(fns, orders):
        m = int(m)  # lambda ** m stays CPython's complex power
        if not 0 <= m <= 4:
            raise ValueError(f"derivative order {m} outside [0, 4]")
        lam = complex(fn.alpha, fn.beta)
        cs = [math.comb(m, i) * math.perm(fn.k, i) * lam ** (m - i)
              for i in range(min(fn.k, m) + 1)]
        if fn.kind == EXP_SIN:  # Im(z) = Re(-i z)
            cs = [complex(c.imag, -c.real) for c in cs]
        terms.append((lam, cs, range(fn.k, fn.k - len(cs), -1)))
    lams, coefs, powers = zip(*terms)
    # Row i: term i of every function (zero where a function has fewer terms).
    coefs = np.array(list(zip_longest(*coefs, fillvalue=0j)))
    real = all(fn.kind == POLY_EXP for fn in fns)  # real lambda: e.imag = +-0
    k_max = max(fn.k for fn in fns)
    if k_max == 0:  # one term, times x^0 = 1
        env_r, env_i = coefs[0].real, coefs[0].imag
    else:
        x_pows = [1.0] + [x ** p for p in range(1, k_max + 1)]
        env_r = env_i = 0.0
        for c, p in zip(coefs, zip_longest(*powers, fillvalue=0)):
            xp = x_pows[p[0]] if len(set(p)) == 1 else np.choose(p, x_pows)
            env_r = env_r + c.real * xp
            if not real:
                env_i = env_i + c.imag * xp
    e = np.exp(np.array(lams) * x)
    return e.real * env_r if real else e.real * env_r - e.imag * env_i


def eval_basis(fn: BasisFunction, x, deriv_order: int = 0):
    """Exact analytic derivative of one basis function at a scalar or an array."""
    x = np.asarray(x, dtype=float)[..., None]
    return basis_derivatives((fn,), x, deriv_order)[..., 0][()]


def piece_basis(piece: PieceOde) -> list[BasisFunction]:
    """Convenience composition: characteristic polynomial -> roots -> real basis."""
    return real_basis(find_roots(characteristic_coeffs(piece)))
