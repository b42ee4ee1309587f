"""Well-posed one-piece problems from four stress families, drawn from
``numpy.random.default_rng([seed, family])``: near-resonant, near-multiple
roots, shifted far from 0 and stiff.  None may be refused, and each one the
shooting oracle can integrate must pass every check of the report."""

import numpy as np
import pytest

from obstacle_bvp.cli import _refuse_unmet
from obstacle_bvp.exact import solve_exact
from obstacle_bvp.model import ContinuitySpec, PieceOde, PiecewiseBvp, PointCondition
from obstacle_bvp.oracle import IntegrationError, shooting_solve
from obstacle_bvp.verify import verification_report

FAMILIES = ("near-resonant", "near-multiple", "shifted", "stiff")
PER_FAMILY = 10


def _draw(rng, family):
    """One problem: the family's roots or coefficients, forcing of degree 0-3
    with coefficients U(-2, 2), u^(j)(lo) for j < ceil(n/2) and u^(j)(hi) for
    j < floor(n/2) with values U(-1, 1)."""
    lo, length, n = 0.0, rng.uniform(1.0, 3.0), 2
    if family == "near-resonant":  # u'' = a0 u + q, a0 = +-10^U(-16, -2)
        coeffs = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -2)), 0.0)
    elif family == "near-multiple":  # n - 1 roots r + j delta, delta = 10^U(-12, -2)
        n = int(rng.integers(3, 5))
        r, delta = rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-12, -2)
        roots = [r + j * delta for j in range(n - 1)] + [rng.uniform(-2.0, 2.0)]
        coeffs = tuple(float(-c) for c in np.poly(roots)[::-1][:-1])
    elif family == "shifted":  # real roots U(-2, 2) on [s, s + L], s = 10^U(0, 2.5)
        roots = rng.uniform(-2.0, 2.0, 2)
        coeffs = (float(-roots[0] * roots[1]), float(roots[0] + roots[1]))
        lo = 10.0 ** rng.uniform(0.0, 2.5)
    else:  # u'' = k^2 u + q, k = 10^U(0, 1.3), L = min(U(1, 3), 20 / k)
        k = 10.0 ** rng.uniform(0.0, 1.3)
        coeffs, length = (k * k, 0.0), min(length, 20.0 / k)
    forcing = tuple(float(q) for q in rng.uniform(-2.0, 2.0, int(rng.integers(0, 4)) + 1))
    hi = lo + length
    conditions = ([PointCondition(lo, j, float(rng.uniform(-1.0, 1.0))) for j in range((n + 1) // 2)]
                  + [PointCondition(hi, j, float(rng.uniform(-1.0, 1.0))) for j in range(n // 2)])
    return PiecewiseBvp(n, (PieceOde(n, (lo, hi), coeffs, forcing),), tuple(conditions),
                        ContinuitySpec(frozenset(range(n))))


@pytest.mark.parametrize("family", FAMILIES)
def test_family_is_solved_and_verified(family):
    rng = np.random.default_rng([1, FAMILIES.index(family)])
    checked = 0
    for _ in range(PER_FAMILY):
        bvp = _draw(rng, family)
        sol = solve_exact(bvp)
        _refuse_unmet(sol, bvp)
        try:
            numeric = shooting_solve(bvp, 1e-3)
        except IntegrationError:
            continue
        report = verification_report(sol, bvp, numeric)
        assert report.passed, (bvp, report.render_table())
        checked += 1
    assert checked >= PER_FAMILY // 2
