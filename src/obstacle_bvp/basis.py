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
import struct
from dataclasses import dataclass
from typing import NamedTuple

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


# _TERMS[k, sin, :, m, i]: term i of the m-th derivative of x^k e^(lambda x)
# is comb(m, i) * perm(k, i) * lambda^(m - i) * x^(k - i); the fields hold
# that integer factor, the power of lambda and the power of x.  Past min(k, m)
# a term is padding: factor 0, x power 0 and lambda power -1, or -2 for an
# ExpSin function (sin = 1), the last two columns of basis_terms' power table.
_TERMS = np.array([[[[(math.comb(m, i) * math.perm(k, i), m - i, k - i) if i <= min(k, m)
                      else (0, -1 - sin, 0) for i in range(MAX_ORDER)]
                     for m in range(MAX_ORDER + 1)] for sin in (0, 1)]
                   for k in range(MAX_ORDER)]).transpose(0, 1, 4, 2, 3)

# The exact bits of a lambda's two parts: +0.0 and -0.0 differ.
_PAIR_BITS = struct.Struct("dd").pack


class Terms(NamedTuple):
    """Kernel terms of columns (:func:`basis_terms`) or of entries
    (:func:`take_terms`), with what :func:`eval_terms` may skip."""

    lams: np.ndarray              # the lambda of each column
    exps: np.ndarray              # the lambdas exp runs on
    exp_index: np.ndarray | None  # column j takes exp row exp_index[j]; None: row j
    zero: bool                    # every lambda is +-0 + +-0 i: no exp
    real: bool                    # every lambda is real
    k_max: int                    # the largest power of x
    coefs: np.ndarray             # (real, imaginary) coefficient of each term
    powers: np.ndarray | None     # power of x of each term
    paired: bool                  # each entry pairs with the entry of x at its place
    chosen: dict                  # per tuple of order sets, what eval_terms reads


def basis_terms(fns, top: int) -> Terms:
    """The kernel's x-independent half: terms of every function in fns for
    the derivative orders 0..top (at most 4), order set m holding order m.
    In set s, column j's term i is coefficient (real, imaginary)
    coefs[j, s, i] times x ** powers[j, s, i].  The table evaluates every
    column at every point of x.

    Term i of order m is the integer factor K = comb(m, i) * perm(k, i)
    times each part of z = lambda ** (m - i): (K z.real, K z.imag), with no
    cross term, and an ExpSin term becomes the real coefficient pair of
    Im(z) = Re(-i z).  z comes from complex products, once per distinct
    lambda: lambda * lambda, lambda * lambda ** 2 and lambda ** 2 *
    lambda ** 2, the products of CPython's integer power, so a finite
    nonzero part has the bits of ``lam ** p``.  A power that overflows
    gives a non-finite term; nothing raises.  Set m has min(k_max, m) + 1
    terms; a function with fewer is padded with +0.0 terms times x ** 0.

    What :func:`eval_terms` can skip is decided here, once per table: zero
    says every lambda is +-0 + +-0 i, so exp(lambda x) is 1 wherever x is
    finite, and exps (a column vector) holds each distinct lambda once,
    keyed on the bits of both parts so that +0.0 and -0.0 stay apart: an
    ExpCos/ExpSin pair and the columns of a repeated root share one exp.
    """
    slot, lams, index = {}, [], []
    for fn in fns:
        key = _PAIR_BITS(fn.alpha, fn.beta)
        if key not in slot:
            slot[key] = len(lams)
            lams.append(complex(fn.alpha, fn.beta))
        index.append(slot[key])
    table = []
    for lam in lams:
        sq = lam * lam
        for z in (1 + 0j, lam, sq, lam * sq, sq * sq)[:top + 1]:
            table += (z.real, z.imag)
        # The padding columns: times the zero factor, (0, 0) gives the term
        # (+0.0, +0.0), and (-1, 1) gives (-0.0, +0.0), which the ExpSin
        # swap below turns into (+0.0, +0.0).
        table += (-1.0, 1.0, 0.0, 0.0)
    ks, sin = [fn.k for fn in fns], [int(fn.kind == EXP_SIN) for fn in fns]
    k_max = max(ks)
    table = np.array(table).reshape(len(lams), top + 3, 2)
    fields = _TERMS[ks, sin][:, :, :top + 1, :min(k_max, top) + 1]
    factor, lam_pow, x_pow = fields.transpose(1, 0, 2, 3)
    coefs = factor[..., None] * table[np.array(index)[:, None, None], lam_pow]
    if any(sin):  # (c_r, c_i) -> (c_i, -c_r)
        sin = np.array(sin, dtype=bool)
        swapped = coefs[sin]
        np.negative(swapped[..., 0], out=swapped[..., 0])
        coefs[sin] = swapped[..., ::-1]
    exps = np.array(lams)
    shared = len(lams) < len(fns)  # else every lambda is its column's
    return Terms(exps[index] if shared else exps, exps[:, None],
                 np.array(index) if shared else None,
                 not any(lams), not any(lam.imag for lam in lams), k_max, coefs, x_pow,
                 False, {})


def take_terms(terms: Terms, sets, columns) -> Terms:
    """Terms with one order set over the broadcast shape of the index arrays
    sets and columns: entry [...] is column columns[...] of a
    :func:`basis_terms` table in its order set sets[...].  Each entry is
    evaluated at the entry of x it pairs with, so x must have as many axes
    as the entries.  One gather per array; the terms are laid out for
    :func:`eval_terms` here, term axis first."""
    lams, coefs = terms.lams[columns], terms.coefs[columns, sets]
    r = coefs.ndim - 2
    axes = (r, *range(r))
    coefs = coefs.transpose(*axes, r + 1)[:, None]  # [term, set, *entries]
    powers, k_max = None, 0
    if terms.k_max:  # else no term takes a power of x
        powers = terms.powers[columns, sets].transpose(axes)[:, None]
        k_max = int(powers[0].max(initial=0))
    n = min(k_max + 1, len(coefs))
    chosen = (np.ascontiguousarray(coefs[:n, ..., 0]), np.ascontiguousarray(coefs[:n, ..., 1]),
              None if powers is None else np.ascontiguousarray(powers[:n]))
    return Terms(lams, lams, None, terms.zero, terms.real or not lams.imag.any(), k_max,
                 coefs, powers, True, {(0,): chosen})


@np.errstate(over="ignore", invalid="ignore")
def eval_terms(terms: Terms, x, sets) -> np.ndarray:
    """The kernel's numeric half: the order sets at indices sets of terms at
    a float array x, set t of sets in row t of the result.  A
    :func:`basis_terms` table gives row [t, j] for column j at every point
    of x; a :func:`take_terms` table gives row [t] over the broadcast shape
    of its entries and x.

    x is read C-contiguous once: numpy's power can round differently on a
    strided array, so every entry keeps the bits of a contiguous
    evaluation, whatever the layout of the x it came from.  The powers of
    x are one stacked table, x ** 0 = 1.0 first, from which each term
    gathers its power (the same rows for every point, or for a take_terms
    table the row of each entry at its own point).  A padding term adds
    +0.0 to a sum that starts at +0.0, and so can never be -0.0, which
    leaves it as it is; so all sets run the terms of the longest.

    exp runs once per distinct lambda, or not at all in a zero table: for
    finite x, exp(+-0 x + +-0 x i) is exactly 1 + +-0 i, so e.real * env
    is env bit for bit, and at an infinite or NaN x it is the quiet NaN
    that exp gives there.
    """
    shape, x = np.shape(x), np.ascontiguousarray(x)
    chosen = terms.chosen.get(tuple(sets))
    if chosen is None:  # a basis_terms table: [term, set, column, point]
        n = min(terms.k_max, max(sets)) + 1
        c = terms.coefs[:, list(sets), :n].transpose(2, 1, 0, 3)[..., None, :]
        chosen = terms.chosen[tuple(sets)] = (
            np.ascontiguousarray(c[..., 0]), np.ascontiguousarray(c[..., 1]),
            terms.powers[:, list(sets), :n].transpose(2, 1, 0))
    c_r, c_i, at = chosen
    u = x if terms.paired else x.reshape(-1)
    if not terms.zero:
        e = np.exp(terms.exps * u)
        if terms.exp_index is not None:
            e = e[terms.exp_index]
        e_r, e_i = e.real, e.imag
    if terms.k_max == 0:  # one term, times x^0 = 1
        env_r, env_i = c_r[0], c_i[0]
    else:
        table = np.empty((terms.k_max + 1,) + u.shape)
        table[0], table[1] = 1.0, u
        for p in range(2, terms.k_max + 1):
            table[p] = u ** p
        if terms.paired:
            x_pow = table.reshape(-1)[at * u.size + np.arange(u.size).reshape(u.shape)]
        else:
            x_pow = table[at]
        env_r = env_i = 0.0
        for term in c_r * x_pow:
            env_r = env_r + term
        if not terms.real:  # a real lambda has e.imag = +-0
            for term in c_i * x_pow:
                env_i = env_i + term
    if terms.zero:  # e.real * env is env; at a non-finite x, exp's NaN
        out = np.where(np.isfinite(u), env_r, np.nan)
    else:
        out = e_r * env_r if terms.real else e_r * env_r - e_i * env_i
    return out if terms.paired else out.reshape(out.shape[:2] + shape)


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
