"""Metamorphic relations: transform a problem in a way whose effect on the
solution is known, and check the solver's answer moves exactly that way."""

import dataclasses

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from obstacle_bvp.exact import RankDeficientError, eval_solution, solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import PieceOde
from obstacle_bvp.verify import solution_scale

# Entries whose continuity covers every order below the problem order, so
# an extra breakpoint inside a piece leaves the problem unchanged.
FULL_CONTINUITY = ("3.1.1", "3.1.2", "3.1.3", "3.1.4", "eq11")


def _constants(sol):
    return np.concatenate([p.constants for p in sol.pieces])


def _grid(bvp, points=2001):
    return np.linspace(*bvp.domain, points)


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_scaling_data_by_power_of_two_scales_constants_exactly(ex_id, k):
    # The problem is linear in (forcing, condition values, pin values), and a
    # power of two scales every rounding exactly.
    f = 2.0 ** k
    bvp = get_example(ex_id).bvp
    scaled = dataclasses.replace(
        bvp,
        pieces=tuple(dataclasses.replace(p, forcing=tuple(f * q for q in p.forcing))
                     for p in bvp.pieces),
        conditions=tuple(dataclasses.replace(c, value=f * c.value) for c in bvp.conditions),
        pins=tuple(dataclasses.replace(p, value=f * p.value) for p in bvp.pins))
    assert np.array_equal(_constants(solve_exact(scaled)), f * _constants(solve_exact(bvp)))


@pytest.mark.parametrize("ex_id", FULL_CONTINUITY)
def test_midpoint_split_leaves_solution_unchanged(ex_id):
    bvp = get_example(ex_id).bvp
    halves = []
    for p in bvp.pieces:
        mid = 0.5 * (p.lo + p.hi)
        halves += [dataclasses.replace(p, interval=(p.lo, mid)),
                   dataclasses.replace(p, interval=(mid, p.hi))]
    split = dataclasses.replace(bvp, pieces=tuple(halves))
    sol = solve_exact(bvp)
    xs = _grid(bvp)
    delta = np.abs(eval_solution(solve_exact(split), split, xs) - eval_solution(sol, bvp, xs))
    assert delta.max() <= 1e-15 * solution_scale(sol, bvp)


def _shifted(bvp, s):
    """The problem moved right by s, each forcing re-expanded about the shift."""
    def move(p):
        q = Polynomial(p.forcing)(Polynomial([-s, 1.0])).coef
        return PieceOde(p.order, (p.lo + s, p.hi + s), p.coeffs, tuple(float(c) for c in q))

    return dataclasses.replace(
        bvp, pieces=tuple(move(p) for p in bvp.pieces),
        conditions=tuple(dataclasses.replace(c, location=c.location + s)
                         for c in bvp.conditions))


@pytest.mark.xfail(strict=True, raises=RankDeficientError,
                   reason="ROADMAP item 3: _echelon's rank tolerance scales with the "
                          "largest entry, e^100 here, and sinks the polynomial columns")
def test_shifted_domain_solves_like_the_original():
    bvp = get_example("3.1.1").bvp
    moved = _shifted(bvp, 100.0)
    sol = solve_exact(bvp)
    xs = _grid(bvp)
    delta = np.abs(eval_solution(solve_exact(moved), moved, xs + 100.0)
                   - eval_solution(sol, bvp, xs))
    assert delta.max() <= 1e-9 * solution_scale(sol, bvp)
