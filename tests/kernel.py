"""Reference code for tests: the closed-form basis at given points (the
evaluator the solver itself uses for each piece's Wronskian at its left
end), and frozen copies of the per-ODE-row stage as it was written before
its passes were trimmed, which the solver's stage must match bit for bit."""

import cmath
import math

import numpy as np

from obstacle_bvp.basis import (CLUSTER_TOL, EXP_COS, EXP_SIN, MAX_ORDER, POLY_EXP,
                                BasisFunction, RootFindingError, basis_values)
from obstacle_bvp.model import SolveError


def basis_derivatives(fns, x, orders):
    """Entry [..., j] is fns[j]^(orders[j]) at x[..., j]: basis_values with
    each function paired with its entry of x.  The last axis of x matches
    fns; orders is one int or one per function."""
    return basis_values(fns, np.asarray(x, dtype=float), np.broadcast_to(orders, (len(fns),)))


_KIND_ORDER = {EXP_COS: 0, EXP_SIN: 1, POLY_EXP: 2}


def frozen_raw_roots(char):
    """Unmerged roots of a stack of monic polynomials of one degree: the
    quadratic formula row by row, or one stacked eigvals call."""
    n = char.shape[1] - 1
    if n == 2:
        out = []
        for c0, c1, _ in char.tolist():
            disc = cmath.sqrt(c1 * c1 - 4.0 * c0)
            out.append([(-c1 + disc) / 2.0, (-c1 - disc) / 2.0])
        return out
    comp = np.zeros((len(char), n, n))
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -char[:, :-1]
    return np.linalg.eigvals(comp).tolist()


def frozen_real_basis(raw, coeffs):
    """One ODE's real basis from its raw roots: snap, cluster in sorted
    order, pair conjugates, then sort the functions."""
    raw = [complex(r) for r in raw]
    if any(not (math.isfinite(r.real) and math.isfinite(r.imag)) for r in raw):
        raise RootFindingError(f"root finder diverged on polynomial {coeffs}")
    tol = CLUSTER_TOL * max(1.0, max(abs(r) for r in raw))

    clusters = []
    for r in sorted((complex(r.real, 0.0) if abs(r.imag) <= tol else r for r in raw),
                    key=lambda z: (z.real, z.imag)):
        for group in clusters:
            if abs(r - group[0]) <= tol:
                group.append(r)
                break
        else:
            clusters.append([r])

    roots = []
    complex_roots = []
    for group in clusters:
        mean = sum(group) / len(group)
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


def frozen_piece_basis(pieces):
    """Every piece's basis: raw roots per order, then each row in piece
    order, so the first piece that fails raises."""
    char = np.array([[-a for a in p.coeffs] + [1.0] + [0.0] * (MAX_ORDER - p.order)
                     for p in pieces])
    orders = [p.order for p in pieces]
    raw = [None] * len(pieces)
    for n in set(orders):
        at = [k for k, order in enumerate(orders) if order == n]
        for k, roots in zip(at, frozen_raw_roots(char[at, :n + 1])):
            raw[k] = roots
    return [frozen_real_basis(roots, c[:n + 1]) for roots, c, n in zip(raw, char.tolist(), orders)]


def frozen_particular_solution(pieces):
    """Every piece's polynomial particular, one stacked build, solve and
    identity check per (shift, forcing degree) group; the first piece whose
    identity fails raises."""
    char = np.array([[-a for a in p.coeffs] + [1.0] + [0.0] * (MAX_ORDER - p.order)
                     for p in pieces])
    groups = {}
    for k, piece in enumerate(pieces):
        s = next((j for j, aj in enumerate(piece.coeffs) if aj != 0.0), piece.order)
        groups.setdefault((s, len(piece.forcing) - 1), []).append(k)
    polys, checks = [None] * len(pieces), [None] * len(pieces)
    with np.errstate(over="ignore", invalid="ignore"):
        for (s, m), at in groups.items():
            size = s + m + 1
            c = char[at]
            q = np.array([pieces[k].forcing for k in at])
            p, j = np.nonzero([[math.perm(p, j) for j in range(MAX_ORDER + 1)]
                               for p in range(size)])
            falling = np.array([float(math.perm(a, b)) for a, b in zip(p, j)])
            full_op = np.zeros((len(at), size, size))
            full_op[:, p - j, p] = np.where(c[:, j] != 0.0, c[:, j] * falling, 0.0)
            t = np.linalg.solve(full_op[:, : m + 1, s:], q[..., None])[..., 0]
            poly = np.concatenate([np.zeros((len(at), s)), t], axis=1)
            residual = (full_op @ poly[..., None])[..., 0]
            residual[:, : m + 1] -= q
            scale = 1.0 + np.abs(q).max(axis=1) + np.abs(poly).max(axis=1)
            for k, row, defect, tol in zip(at, poly.tolist(),
                                           np.abs(residual).max(axis=1).tolist(),
                                           (1e-10 * scale).tolist()):
                polys[k], checks[k] = row, (defect, tol)
    for piece, poly, (defect, tol) in zip(pieces, polys, checks):
        if not defect <= tol:
            raise SolveError(f"particular ansatz failed on {piece.interval}: identity "
                             f"defect {defect:.3e}, tolerance {tol:.3e}")
        while len(poly) > 1 and poly[-1] == 0.0:
            poly.pop()
    return [tuple(poly) for poly in polys]
