"""Metamorphic relations: transform a problem in a way whose effect on the
solution is known, and check the solver's answer moves exactly that way."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from obstacle_bvp.exact import eval_solution, solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp, PointCondition,
                                SolveError)
from obstacle_bvp.oracle import sample, shooting_solve
from obstacle_bvp.verify import solution_scale, verification_report

# Entries whose continuity covers every order below the problem order, so
# an extra breakpoint inside a piece leaves the problem unchanged.
FULL_CONTINUITY = ("3.1.1", "3.1.2", "3.1.3", "3.1.4", "eq11")
UNPINNED = tuple(e for e in EXAMPLE_IDS if not get_example(e).bvp.pins)


def _constants(sol):
    return np.concatenate([p.constants for p in sol.pieces])


def _grid(bvp, points=2001):
    return np.linspace(*bvp.domain, points)


def _with_data(bvp, forcing_factor, values, pin_factor):
    """bvp with every forcing coefficient and pin value times a factor, and
    the given condition values."""
    return dataclasses.replace(
        bvp,
        pieces=tuple(dataclasses.replace(p, forcing=tuple(forcing_factor * q for q in p.forcing))
                     for p in bvp.pieces),
        conditions=tuple(dataclasses.replace(c, value=v) for c, v in zip(bvp.conditions, values)),
        pins=tuple(dataclasses.replace(p, value=pin_factor * p.value) for p in bvp.pins))


def _scaled(bvp, f):
    return _with_data(bvp, f, [f * c.value for c in bvp.conditions], f)


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_scaling_data_by_power_of_two_scales_constants_exactly(ex_id, k):
    # The problem is linear in (forcing, condition values, pin values), and a
    # power of two scales every rounding exactly.
    bvp = get_example(ex_id).bvp
    assert np.array_equal(_constants(solve_exact(_scaled(bvp, 2.0 ** k))),
                          2.0 ** k * _constants(solve_exact(bvp)))


def _sweep_like_bvp(seed, order, n_pieces, degree):
    """A problem drawn like the solve-sweep benchmark's: per piece a random
    characteristic polynomial (coefficients in [-2, 2], about 3 in 10
    zeroed), a repeated real root or a complex pair, forcing of the given
    degree; cut widths in ratio up to 3 over a domain of length 1 to pi that
    starts in [-1, 0]; C^(n-1) continuity and conditions at both ends."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.5, 1.5, n_pieces)
    lo, length = rng.uniform(-1.0, 0.0), rng.uniform(1.0, np.pi)
    cuts = (lo + length * np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])).tolist()
    pieces = []
    for k in range(n_pieces):
        family = rng.integers(6)
        if family < 4:
            coeffs = np.where(rng.random(order) < 0.3, 0.0, rng.uniform(-2.0, 2.0, order))
        else:
            alpha, beta = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
            pair = [alpha] * 2 if family == 4 else [complex(alpha, beta), complex(alpha, -beta)]
            # lambda^n - sum_j a_j lambda^j = prod (lambda - root)
            coeffs = -np.real(np.poly(pair + list(rng.uniform(-2.0, 2.0, order - 2))))[:0:-1]
        pieces.append(PieceOde(order, (cuts[k], cuts[k + 1]), tuple(coeffs.tolist()),
                               tuple(rng.uniform(-2.0, 2.0, degree + 1).tolist())))
    ends = ([(cuts[0], j) for j in range((order + 1) // 2)]
            + [(cuts[-1], j) for j in range(order // 2)])
    return PiecewiseBvp(order, tuple(pieces),
                        tuple(PointCondition(x, j, float(rng.uniform(-1.0, 1.0))) for x, j in ends),
                        ContinuitySpec(frozenset(range(order))))


def _verified_sweep_like(seed, order, n_pieces, degree):
    """(bvp, sol) of a drawn problem that solves and passes verify's own
    checks.  Any other draw is rejected: those are ROADMAP item 2's
    near-coincident roots, which a metamorphic relation must not be asked
    to repair."""
    bvp = _sweep_like_bvp(seed, order, n_pieces, degree)
    try:
        sol = solve_exact(bvp)
        verified = verification_report(sol, bvp).passed
    except SolveError:
        verified = False
    assume(verified)
    return bvp, sol


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 3, 4]),
       n_pieces=st.integers(1, 16), degree=st.integers(0, 3))
def test_scaling_random_family_by_power_of_two_scales_constants_exactly(seed, order, n_pieces,
                                                                        degree):
    # As on the registry, bit for bit, sign of zero included; an input that
    # raises at either scale (a tolerance with an absolute part) is skipped.
    bvp = _sweep_like_bvp(seed, order, n_pieces, degree)
    try:
        plain = _constants(solve_exact(bvp))
        scaled = {k: _constants(solve_exact(_scaled(bvp, 2.0 ** k))) for k in (-10, 10)}
    except SolveError:
        return
    for k, constants in scaled.items():
        assert constants.tobytes() == (2.0 ** k * plain).tobytes()


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("ex_id", UNPINNED)
def test_scaling_data_by_power_of_two_scales_oracle_exactly(ex_id, k):
    # The oracle's homogeneous states do not see the data and its forced
    # states are linear in it, so every rounding scales exactly too.
    bvp = get_example(ex_id).bvp
    plain = shooting_solve(bvp, 0.01).piece_trajectories
    scaled = shooting_solve(_scaled(bvp, 2.0 ** k), 0.01).piece_trajectories
    for (xs, ys, top), (xs_s, ys_s, top_s) in zip(plain, scaled):
        assert np.array_equal(xs_s, xs)
        assert np.array_equal(ys_s, 2.0 ** k * ys)
        assert np.array_equal(top_s, 2.0 ** k * top)


def _reflected(bvp):
    """The problem under x -> -x: v(x) = u(-x) has v^(j)(x) = (-1)^j u^(j)(-x)."""
    n = bvp.order
    pieces = tuple(PieceOde(n, (-p.hi, -p.lo),
                            tuple((-1.0) ** (n - j) * a for j, a in enumerate(p.coeffs)),
                            tuple((-1.0) ** (n + j) * q for j, q in enumerate(p.forcing)))
                   for p in reversed(bvp.pieces))
    conditions = tuple(dataclasses.replace(c, location=-c.location,
                                           value=(-1.0) ** c.deriv_order * c.value)
                       for c in bvp.conditions)
    return dataclasses.replace(bvp, pieces=pieces, conditions=conditions)


@pytest.mark.parametrize("ex_id", UNPINNED)
def test_reflection_mirrors_every_derivative(ex_id):
    # Only signs change, so the input is reflected without rounding.
    bvp = get_example(ex_id).bvp
    mirror = _reflected(bvp)
    sol, sol_m = solve_exact(bvp), solve_exact(mirror)
    xs = _grid(bvp)
    for j in range(bvp.order):
        delta = np.abs(eval_solution(sol_m, mirror, -xs, j)
                       - (-1.0) ** j * eval_solution(sol, bvp, xs, j))
        assert delta.max() <= 1e-14 * solution_scale(sol, bvp)


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_superposition_of_forcing_and_condition_data(ex_id):
    # Solution of (q, v) = solution of (q, 0) + solution of (0, v), where v
    # holds the condition and pin values.
    bvp = get_example(ex_id).bvp
    values = [0.5 - 0.375 * i for i in range(len(bvp.conditions))]
    sols = [solve_exact(_with_data(bvp, *data))
            for data in ((1.0, values, 1.0), (1.0, [0.0] * len(values), 0.0), (0.0, values, 1.0))]
    xs = _grid(bvp)
    for j in range(bvp.order):
        u, u_forced, u_conditioned = (eval_solution(s, bvp, xs, j) for s in sols)
        assert np.abs(u_forced + u_conditioned - u).max() <= 1e-14 * (1 + np.abs(u).max())


@pytest.mark.parametrize("ex_id", UNPINNED)
def test_oracle_reflection_mirrors_every_derivative(ex_id):
    # The mirrored problem is stepped from the other end on another grid, so
    # the relation holds to the RK4 and Hermite errors, O(h^4): <= 2e-11 of
    # the scale on the registry at h = 0.01.
    bvp = get_example(ex_id).bvp
    numeric, mirror = shooting_solve(bvp, 0.01), shooting_solve(_reflected(bvp), 0.01)
    xs, scale = _grid(bvp), solution_scale(solve_exact(bvp), bvp)
    for j in range(bvp.order):
        delta = np.abs(sample(mirror, -xs, j) - (-1.0) ** j * sample(numeric, xs, j))
        assert delta.max() <= 1e-9 * scale


@pytest.mark.parametrize("ex_id", UNPINNED)
def test_oracle_superposition_of_forcing_and_condition_data(ex_id):
    # The fundamental maps do not see the data and the forced states are
    # linear in it, so only the rounding of the solve and the sums remains.
    bvp = get_example(ex_id).bvp
    values = [0.5 - 0.375 * i for i in range(len(bvp.conditions))]
    numerics = [shooting_solve(_with_data(bvp, *data), 0.01)
                for data in ((1.0, values, 1.0), (1.0, [0.0] * len(values), 0.0),
                             (0.0, values, 1.0))]
    xs = _grid(bvp)
    for j in range(bvp.order):
        u, u_forced, u_conditioned = (sample(n, xs, j) for n in numerics)
        assert np.abs(u_forced + u_conditioned - u).max() <= 1e-14 * (1 + np.abs(u).max())


def _split(bvp):
    """bvp with every piece cut at its midpoint into two pieces of its ODE."""
    halves = []
    for p in bvp.pieces:
        mid = 0.5 * (p.lo + p.hi)
        halves += [dataclasses.replace(p, interval=(p.lo, mid)),
                   dataclasses.replace(p, interval=(mid, p.hi))]
    return dataclasses.replace(bvp, pieces=tuple(halves))


def _split_gap(bvp, sol):
    """(max |u_split - u| over the grid, solution_scale of sol)."""
    split = _split(bvp)
    xs = _grid(bvp)
    delta = np.abs(eval_solution(solve_exact(split), split, xs) - eval_solution(sol, bvp, xs))
    return delta.max(), solution_scale(sol, bvp)


@pytest.mark.parametrize("ex_id", FULL_CONTINUITY)
def test_midpoint_split_leaves_solution_unchanged(ex_id):
    bvp = get_example(ex_id).bvp
    gap, scale = _split_gap(bvp, solve_exact(bvp))
    assert gap <= 1e-15 * scale


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 3, 4]),
       n_pieces=st.integers(1, 8), degree=st.integers(0, 3))
def test_midpoint_split_random_family_leaves_solution_unchanged(seed, order, n_pieces, degree):
    # Every half has a twin of its ODE, so the split problem has twice the
    # pieces and the same ODE table rows.  The bound is verify's residual
    # tolerance, relative to solution_scale.
    bvp, sol = _verified_sweep_like(seed, order, n_pieces, degree)
    assert _split(bvp).ode_table[1] == tuple(2 * k for k in bvp.ode_table[1])
    gap, scale = _split_gap(bvp, sol)
    assert gap <= 1e-8 * scale


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 3, 4]),
       n_pieces=st.integers(1, 8), degree=st.integers(0, 3))
def test_reflection_random_family_mirrors_every_derivative(seed, order, n_pieces, degree):
    # As on the registry, with the midpoint split's precondition and bound:
    # verify's residual tolerance, relative to solution_scale.
    bvp, sol = _verified_sweep_like(seed, order, n_pieces, degree)
    mirror = _reflected(bvp)
    sol_m, xs = solve_exact(mirror), _grid(bvp)
    for j in range(order):
        delta = np.abs(eval_solution(sol_m, mirror, -xs, j)
                       - (-1.0) ** j * eval_solution(sol, bvp, xs, j))
        assert delta.max() <= 1e-8 * solution_scale(sol, bvp)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([2, 3, 4]),
       n_pieces=st.integers(1, 8), degree=st.integers(0, 3))
def test_superposition_random_family_of_forcing_and_condition_data(seed, order, n_pieces,
                                                                    degree):
    # As on the registry, with the midpoint split's precondition and its
    # 1e-8 bound, relative to 1 + max |u^(j)| per order.
    bvp, sol = _verified_sweep_like(seed, order, n_pieces, degree)
    values = [c.value for c in bvp.conditions]
    parts = [solve_exact(_with_data(bvp, *data))
             for data in ((1.0, [0.0] * len(values), 0.0), (0.0, values, 1.0))]
    xs = _grid(bvp)
    for j in range(order):
        u, u_forced, u_conditioned = (eval_solution(s, bvp, xs, j) for s in [sol] + parts)
        assert np.abs(u_forced + u_conditioned - u).max() <= 1e-8 * (1 + np.abs(u).max())


def _shifted(bvp, s):
    """The problem moved right by s, each forcing re-expanded about the shift."""
    def move(p):
        q = Polynomial(p.forcing)(Polynomial([-s, 1.0])).coef
        return PieceOde(p.order, (p.lo + s, p.hi + s), p.coeffs, tuple(float(c) for c in q))

    return dataclasses.replace(
        bvp, pieces=tuple(move(p) for p in bvp.pieces),
        conditions=tuple(dataclasses.replace(c, location=c.location + s)
                         for c in bvp.conditions))


def test_shifted_domain_solves_like_the_original():
    bvp = get_example("3.1.1").bvp
    moved = _shifted(bvp, 100.0)
    sol = solve_exact(bvp)
    xs = _grid(bvp)
    delta = np.abs(eval_solution(solve_exact(moved), moved, xs + 100.0)
                   - eval_solution(sol, bvp, xs))
    assert delta.max() <= 1e-9 * solution_scale(sol, bvp)


def _verifies(order, interval, coeffs, forcing, conditions):
    """One-piece problem u^(n) = coeffs . (u, ..., u^(n-1)) + forcing passes
    every check of the report, the oracle's at h = 1e-3 included."""
    bvp = PiecewiseBvp(order, (PieceOde(order, interval, coeffs, forcing),),
                       tuple(PointCondition(*c) for c in conditions),
                       ContinuitySpec(frozenset(range(order))))
    return verification_report(solve_exact(bvp), bvp, shooting_solve(bvp, 1e-3)).passed


@pytest.mark.parametrize("a0", [0.0, 1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2])
def test_near_resonant_family_verifies(a0):
    # u'' = a0 u + x^3 on [0, 3], u(0) = u(3) = 0: well posed for every a0 >= 0.
    assert _verifies(2, (0.0, 3.0), (a0, 0.0), (0.0, 0.0, 0.0, 1.0),
                     [(0.0, 0, 0.0), (3.0, 0, 0.0)])


def test_triple_root_verifies():
    # u''' = 6u'' - 12u' + 8u + 1, characteristic polynomial (lambda - 2)^3;
    # u(0) = u'(0) = 0, u(1) = 1.
    assert _verifies(3, (0.0, 1.0), (8.0, -12.0, 6.0), (1.0,),
                     [(0.0, 0, 0.0), (0.0, 1, 0.0), (1.0, 0, 1.0)])
