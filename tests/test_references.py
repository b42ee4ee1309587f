"""End-to-end references: the true solution of each problem in 50-digit (or
finer) Decimal arithmetic, from its piecewise closed form, whose constants a
Decimal elimination of the problem's own conditions and C^(n-1) matching
finds.  The solver's u must lie within 1e-13 max |u| of it on 201 points of
the domain: a change of 1e-12 relative in u fails every case.  These share no code with the solver: the breakpoints
and data are the problem's floats, read exactly.  The clamped beam over a
floor is checked against its float closed form, an overdetermined problem."""

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from obstacle_bvp.exact import eval_solution, solve_exact
from obstacle_bvp.examples import get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp, PointCondition,
                                build_fourth_order)
from obstacle_bvp.oracle import shooting_solve
from obstacle_bvp.verify import verification_report

PRECISION = 80  # digits; the a0 family cancels about 33 of them
TOLERANCE = 1e-13  # of max |u|


def _pow(x, i):
    return x ** i if i else Decimal(1)  # Decimal refuses 0 ** 0


def _exp(k, p=0):
    """x^p e^(k x) and its derivatives, the d-th e^(k x) times the sum over
    i <= min(p, d) of comb(d, i) p!/(p - i)! k^(d - i) x^(p - i)."""
    def f(x, order):
        e = (k * x).exp()
        return [e * sum(math.comb(d, i) * math.perm(p, i) * _pow(k, d - i) * _pow(x, p - i)
                        for i in range(min(p, d) + 1)) for d in range(order)]
    return f


def _poly(*c):
    """The polynomial sum_i c[i] x^i and its derivatives."""
    def f(x, order):
        out, coefs = [], list(c)
        for _ in range(order):
            out.append(sum(a * _pow(x, i) for i, a in enumerate(coefs)))
            coefs = [i * a for i, a in enumerate(coefs)][1:] or [Decimal(0)]
        return out
    return f


def _reference(bvp, closed_forms):
    """u as a function of Decimal x: per piece, closed_forms[k] = (basis,
    particular), callables of (x, orders) giving derivatives 0..orders-1;
    the constants solve the conditions and continuity of orders 0..n-1."""
    n, cuts = bvp.order, [Decimal(x) for x in bvp.breakpoints]
    width = n * len(bvp.pieces)
    rows = []
    for c in bvp.conditions:
        x = Decimal(c.location)
        k = max(j for j in range(len(bvp.pieces)) if cuts[j] < x or j == 0)
        basis, part = closed_forms[k]
        row = [Decimal(0)] * width
        row[n * k:n * k + n] = [f(x, n)[c.deriv_order] for f in basis]
        rows.append(row + [Decimal(c.value) - part(x, n)[c.deriv_order]])
    for k, x in enumerate(cuts[1:-1]):
        (left, p_left), (right, p_right) = closed_forms[k], closed_forms[k + 1]
        for d in range(n):
            row = [Decimal(0)] * width
            row[n * k:n * k + n] = [f(x, n)[d] for f in left]
            row[n * k + n:n * k + 2 * n] = [-f(x, n)[d] for f in right]
            rows.append(row + [p_right(x, n)[d] - p_left(x, n)[d]])
    for c in range(width):  # Gauss elimination with partial pivoting
        p = max(range(c, width), key=lambda r: abs(rows[r][c]))
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, width):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    constants = [Decimal(0)] * width
    for r in range(width - 1, -1, -1):
        constants[r] = (rows[r][width] - sum(rows[r][j] * constants[j]
                                             for j in range(r + 1, width))) / rows[r][r]

    def u(x):
        k = min(j for j in range(len(bvp.pieces)) if x < cuts[j + 1] or j == len(bvp.pieces) - 1)
        basis, part = closed_forms[k]
        return part(x, 1)[0] + sum(a * f(x, 1)[0] for a, f in zip(constants[n * k:], basis))
    return u


def solve_case(case):
    """(u, reference) on the case's 201 points: by the solver, and by its
    Decimal reference rounded to floats."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        bvp, closed_forms = CASES[case]()
        xs = np.linspace(*bvp.domain, 201)
        u = _reference(bvp, closed_forms)
        truth = np.array([float(u(Decimal(x))) for x in xs.tolist()])
    return eval_solution(solve_exact(bvp), bvp, xs), truth


def error(got, truth):
    """max |u - reference| over max |reference|."""
    return float(np.abs(got - truth).max() / np.abs(truth).max())


ONE = Decimal(1)
# u'' = 0 outside, u'' = u - 1 inside (3.1.1, 3.1.4)
_FLAT = ([_poly(ONE), _poly(0, ONE)], _poly(0))
_COSH = ([_exp(ONE), _exp(-ONE)], _poly(ONE))


def _shifted(bvp, s):
    def move(p):
        q = Polynomial(p.forcing)(Polynomial([-s, 1.0])).coef
        return PieceOde(p.order, (p.lo + s, p.hi + s), p.coeffs, tuple(float(c) for c in q))

    return dataclasses.replace(
        bvp, pieces=tuple(move(p) for p in bvp.pieces),
        conditions=tuple(dataclasses.replace(c, location=c.location + s)
                         for c in bvp.conditions))


def _one_piece(order, interval, coeffs, forcing, conditions):
    return PiecewiseBvp(order, (PieceOde(order, interval, coeffs, forcing),),
                        tuple(PointCondition(*c) for c in conditions),
                        ContinuitySpec(frozenset(range(order))))


def _near_resonant(a0):
    """u'' = a0 u + x^3 on [0, 3], u(0) = u(3) = 0: basis cosh, sinh of
    sqrt(a0) x and particular -x^3/a0 - 6x/a0^2, or 1, x and x^5/20 at 0."""
    bvp = _one_piece(2, (0.0, 3.0), (a0, 0.0), (0.0, 0.0, 0.0, 1.0), [(0.0, 0, 0.0), (3.0, 0, 0.0)])
    if a0 == 0.0:
        return bvp, [([_poly(ONE), _poly(0, ONE)], _poly(0, 0, 0, 0, 0, Decimal(1) / 20))]
    a = Decimal(a0)
    return bvp, [([_exp(a.sqrt()), _exp(-a.sqrt())], _poly(0, -6 / (a * a), 0, -1 / a))]


CASES = {
    "3.1.1": lambda: (get_example("3.1.1").bvp, [_FLAT, _COSH, _FLAT]),
    "3.1.2": lambda: (get_example("3.1.2").bvp,  # u'' = x outside, u'' = u + x - 1 inside
                      [([_poly(ONE), _poly(0, ONE)], _poly(0, 0, 0, Decimal(1) / 6)),
                       ([_exp(ONE), _exp(-ONE)], _poly(ONE, -ONE)),
                       ([_poly(ONE), _poly(0, ONE)], _poly(0, 0, 0, Decimal(1) / 6))]),
    "3.1.4": lambda: (get_example("3.1.4").bvp, [_FLAT, _COSH, _FLAT]),
    **{f"a0={a0:g}": (lambda a0=a0: _near_resonant(a0))
       for a0 in (0.0, 1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2)},
    # u''' = 6u'' - 12u' + 8u + 1: (lambda - 2)^3, particular -1/8
    "triple root": lambda: (
        _one_piece(3, (0.0, 1.0), (8.0, -12.0, 6.0), (1.0,),
                   [(0.0, 0, 0.0), (0.0, 1, 0.0), (1.0, 0, 1.0)]),
        [([_exp(Decimal(2), p) for p in range(3)], _poly(Decimal(-1) / 8))]),
    # u'''' = 8u''' - 24u'' + 32u' - 16u + 1: (lambda - 2)^4, particular 1/16
    "quadruple root": lambda: (
        _one_piece(4, (0.0, 1.0), (-16.0, 32.0, -24.0, 8.0), (1.0,),
                   [(0.0, 0, 0.0), (0.0, 1, 0.0), (1.0, 0, 1.0), (1.0, 1, 0.0)]),
        [([_exp(Decimal(2), p) for p in range(4)], _poly(Decimal(1) / 16))]),
    "3.1.1 moved by 100": lambda: (_shifted(get_example("3.1.1").bvp, 100.0), [_FLAT, _COSH, _FLAT]),
    "3.1.1 moved by 1000": lambda: (_shifted(get_example("3.1.1").bvp, 1000.0), [_FLAT, _COSH, _FLAT]),
    # u'' = 4u - 1 on [0, 30], u = 0 at both ends: boundary layers e^(+-2x)
    "4u - 1 on [0, 30]": lambda: (
        _one_piece(2, (0.0, 30.0), (4.0, 0.0), (-1.0,), [(0.0, 0, 0.0), (30.0, 0, 0.0)]),
        [([_exp(Decimal(2)), _exp(Decimal(-2))], _poly(Decimal(1) / 4))]),
}


@pytest.mark.parametrize("case", CASES)
def test_solution_within_1e_13_of_its_decimal_reference(case):
    assert error(*solve_case(case)) <= TOLERANCE


def test_clamped_beam_over_a_floor():
    # u'''' = -q on [0, 1], u = u' = 0 at both ends, over the floor -c: for
    # 72c/q < 1/16 it lies on the floor on [a, 1 - a], a = (72c/q)^(1/4), and
    # on [0, a] u = -q y^4/24 + q a y^3/9 - q a^2 y^2/12, y the distance to
    # the nearer end.  u = -c, u' = u'' = 0 at both contact points make 16
    # rows for 12 unknowns: overdetermined, and consistent only at this a.
    q, c = 1.0, 1e-4
    a = (72.0 * c / q) ** 0.25
    clamp = [PointCondition(x, d, 0.0) for x in (0.0, 1.0) for d in range(2)]
    touch = [PointCondition(x, d, -c if d == 0 else 0.0) for x in (a, 1.0 - a) for d in range(3)]
    bvp = build_fourth_order(g=-q, f=0.0, r=q, a=0.0, c=a, d=1.0 - a, b=1.0,
                             conditions=clamp + touch,
                             continuity=ContinuitySpec(frozenset({0, 1, 2})))
    sol = solve_exact(bvp)
    assert len(sol.system.rhs) > sol.system.width  # so residual_norm gates the solve
    xs = np.linspace(0.0, 1.0, 201)
    y = np.minimum(xs, 1.0 - xs)
    truth = np.where(y < a, -q * y ** 4 / 24 + q * a * y ** 3 / 9 - q * a * a * y ** 2 / 12, -c)
    assert np.abs(eval_solution(sol, bvp, xs) - truth).max() <= 1e-13 * c
    # the edge reaction: u''' jumps by q a / 3 at the contact point
    left, right = (sol.evaluate(np.array(a), k, [3])[0][()] for k in (0, 1))
    assert right - left == pytest.approx(q * a / 3, rel=1e-12, abs=0.0)
    assert verification_report(sol, bvp, shooting_solve(bvp, 1e-3)).passed
