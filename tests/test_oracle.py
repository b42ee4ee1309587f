import ast
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from obstacle_bvp import oracle
from obstacle_bvp.exact import MatchSystem, gauss_solve, solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError,
                                build_second_order, normalize_piece)
from obstacle_bvp.oracle import (IntegrationError, _generator, _hermite, _rk4_map,
                                 _stacks, integrate_fundamental, sample, shooting_solve)
from obstacle_bvp.penalty import Obstacle, PenaltyProblem, reformulate
from obstacle_bvp.verify import compare_solutions, pin_anchors


def _package_imports(source):
    """(module, name) for every import in source, module without the package
    prefix or leading dots; importing a module itself gives (module, "*")."""
    pairs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            pairs |= {(a.name.removeprefix("obstacle_bvp."), "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "obstacle_bvp"):
            pairs |= {(a.name, "*") for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            pairs |= {(node.module.removeprefix("obstacle_bvp."), a.name) for a in node.names}
    return pairs


def _trajectory(piece, h):
    """The sweep of one piece alone, with no points to reach."""
    return integrate_fundamental((piece,), h, np.zeros(0, int), np.zeros(0))[0][0]


def _single_piece_bvp(piece, conditions):
    return PiecewiseBvp(piece.order, (piece,), conditions,
                        ContinuitySpec(frozenset(range(piece.order))))


class TestIntegrateFundamental:
    def test_straight_line_is_exact(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        traj = _trajectory(piece, 0.1)
        # RK4 is exact on polynomials of degree <= 3: solutions 1 and x
        assert np.allclose(traj.states[:, 0, 0], 1.0, atol=0)
        assert np.allclose(traj.states[:, 0, 1], traj.xs, atol=1e-15)

    def test_cosh_endpoint(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (0.0,))
        traj = _trajectory(piece, 1e-3)
        # unit state (1, 0) evolves to (cosh, sinh)
        assert traj.states[-1, 0, 0] == pytest.approx(math.cosh(1.0), abs=1e-10)
        assert traj.states[-1, 1, 0] == pytest.approx(math.sinh(1.0), abs=1e-10)

    def test_forced_particular_endpoint(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (-1.0,))  # u'' = u - 1
        traj = _trajectory(piece, 1e-3)
        assert traj.particular[-1][0] == pytest.approx(1.0 - math.cosh(1.0), abs=1e-9)

    def test_rejects_bad_step(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        for h in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ProblemError):
                _trajectory(piece, h)

    def test_rejects_step_too_small_for_domain(self):
        with pytest.raises(ProblemError, match="RK4 steps"):
            shooting_solve(get_example("3.1.1").bvp, 1e-14)

    def test_cubic_particular_is_exact(self):
        # u'' = 6x from the zero state is (x^3, 3x^2); RK4 integrates a cubic
        # exactly, on the full steps and on the shortened last one.
        piece = PieceOde(2, (0.0, 1.3), (0.0, 0.0), (0.0, 6.0))
        traj = _trajectory(piece, 0.125)
        assert traj.xs[-1] - traj.xs[-2] == pytest.approx(0.05)
        assert np.abs(traj.particular[:, 0] - traj.xs ** 3).max() <= 1e-13
        assert np.abs(traj.particular[:, 1] - 3 * traj.xs ** 2).max() <= 1e-13

    def test_off_grid_state_matches_shorter_piece(self):
        coeffs, forcing = (-2.0, 0.5), (1.0, -3.0, 0.5)
        piece = PieceOde(2, (0.0, 1.0), coeffs, forcing)
        traj = _trajectory(piece, 0.1)
        where = np.array([0.537, 0.05, 0.99, traj.xs[0], traj.xs[5], traj.xs[-1]])
        at = integrate_fundamental((piece,), 0.1, np.zeros(len(where), int), where)[1]
        for x, state in zip(where[:3], at):
            phi, part = state[:, :2], state[:, 2]
            short = _trajectory(PieceOde(2, (0.0, x), coeffs, forcing), 0.1)
            assert np.abs(phi - short.states[-1, :, :2]).max() <= (
                1e-13 * np.abs(phi).max())
            assert np.abs(part - short.particular[-1]).max() <= (
                1e-13 * np.abs(part).max())
        # On a grid node (both ends included) the state is the node's own.
        for i, state in zip((0, 5, len(traj.xs) - 1), at[3:]):
            assert np.array_equal(state[:, :2], traj.states[i, :, :2])
            assert np.array_equal(state[:, 2], traj.particular[i])

    def test_blow_up_raises_without_warnings(self):
        piece = PieceOde(2, (0.0, 1.0), (1e6, 0.0), (0.0,))  # u'' = 1e6 u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="blew up near x"):
                _trajectory(piece, 1e-3)


def _grid(piece, h):
    xs = piece.lo + h * np.arange(int((piece.hi - piece.lo) / h) + 2)
    return np.append(xs[xs < piece.hi - 1e-15 * max(1.0, abs(piece.hi))], piece.hi)


def _sequential_sweep(piece, h):
    """Reference sweep: one step of the augmented RK4 map per node, in grid
    order, applied to all n + d initial states."""
    xs, n = _grid(piece, h), piece.order
    a = _generator(piece)
    full = _rk4_map(a, h)
    states = [np.eye(len(a))]
    for i, (x0, x1) in enumerate(zip(xs, xs[1:])):
        step = x1 - x0 if i == len(xs) - 2 else h
        states.append((full if step == h else _rk4_map(a, step)) @ states[-1])
    states = np.array(states)[:, :n]
    return xs, states[:, :, :n], states[:, :, -1]


def _companion(piece):
    """Matrix A of y' = A y + e_n q(x), y = (u, ..., u^(n-1))."""
    n = piece.order
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1] = piece.coeffs
    return a


def _step_maps(a, h):
    """One classic RK4 step of length h on y' = A y + e_n q(x) as an affine
    map: y(x + h) = T y(x) + B @ (q(x), q(x + h/2), q(x + h))."""
    eye = np.eye(len(a))
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    t = eye + m + m2 / 2 + m3 / 6 + m3 @ m / 24
    b = h / 6 * np.column_stack([(eye + m + m2 / 2 + m3 / 4)[:, -1],
                                 (4 * eye + 2 * m + m2 / 2)[:, -1],
                                 eye[:, -1]])
    return t, b


def _stage_forcing_sweep(piece, h):
    """Independent reference: RK4 on the unaugmented system, the forcing
    evaluated exactly at each step's three stage abscissae."""
    xs, n = _grid(piece, h), piece.order
    a = _companion(piece)
    phi, part = [np.eye(n)], [np.zeros(n)]
    for x0, x1 in zip(xs, xs[1:]):
        step = x1 - x0 if x1 == xs[-1] else h
        t, b = _step_maps(a, step)
        q = np.polynomial.polynomial.polyval([x0, x0 + step / 2, x1], piece.forcing)
        phi.append(t @ phi[-1])
        part.append(t @ part[-1] + b @ q)
    return xs, np.array(phi), np.array(part)


def _assert_sweeps_match(piece, h, reference, rel):
    """The same grid, and states equal up to rel times the largest state."""
    traj = _trajectory(piece, h)
    xs, phi, part = reference(piece, h)
    assert np.array_equal(traj.xs, xs)
    assert np.abs(traj.states[:, :, :piece.order] - phi).max() <= rel * np.abs(phi).max()
    assert np.abs(traj.particular - part).max() <= rel * np.abs(part).max()


STEPS = [1e-3, 0.01, 0.025, 0.05, 0.125]
STEP_COUNTS = [1, 2, 3, 4, 5, 64, 65, 1024, 1025]


def _step_count_piece(steps, h=0.01):
    # steps - 1 full steps and a last one of h/2; one step is a piece shorter
    # than h.  The forcing is quadratic.
    return PieceOde(3, (0.2, 0.2 + (steps - 0.5) * h), (-1.0, 0.5, -0.3), (1.0, -2.0, 0.5))


def _polyder_generator(piece):
    """Â with the forcing's Taylor coefficients from numpy polyder and
    polyval, one call each per coefficient."""
    npoly = np.polynomial.polynomial
    n, d = piece.order, len(piece.forcing)
    taylor = [npoly.polyval(piece.lo, npoly.polyder(piece.forcing, k)) for k in range(d)]
    a = np.eye(n + d, k=1)
    a[n - 1] = [*piece.coeffs, *taylor[::-1]]
    return a


class TestGenerator:
    """The Horner Taylor shift is bitwise numpy's polyder and polyval."""

    def test_registry_pieces(self):
        for ex_id in EXAMPLE_IDS:
            for piece in get_example(ex_id).bvp.pieces:
                assert _generator(piece).tobytes() == _polyder_generator(piece).tobytes()

    @pytest.mark.parametrize("degree", range(7))
    def test_random_forcing(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(200):
            lo = float(rng.choice([0.0, -1.0, rng.uniform(-3.0, 3.0)]))
            order = int(rng.integers(2, 5))
            forcing = rng.uniform(-2.0, 2.0, degree + 1) * (rng.random(degree + 1) > 0.2)
            piece = PieceOde(order, (lo, lo + 1.5), tuple(rng.uniform(-2.0, 2.0, order)),
                             tuple(forcing.tolist()))
            assert _generator(piece).tobytes() == _polyder_generator(piece).tobytes()


class TestDoublingSweep:
    """The doubling sweep against the per-step one of the same map."""

    @pytest.mark.parametrize("h", STEPS)
    def test_registry_pieces(self, h):
        for ex_id in EXAMPLE_IDS:
            for piece in get_example(ex_id).bvp.pieces:
                _assert_sweeps_match(piece, h, _sequential_sweep, 1e-12)

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    def test_step_counts(self, steps):
        piece = _step_count_piece(steps)
        assert len(_trajectory(piece, 0.01).xs) == steps + 1
        _assert_sweeps_match(piece, 0.01, _sequential_sweep, 1e-12)

    def test_long_fourth_order_piece(self):
        # u^(4) = -u - 2u'' + q: roots +-i, each double; 30,000 steps.
        piece = PieceOde(4, (0.0, 30.0), (-1.0, 0.0, -2.0, 0.0), (1.0, -0.5, 0.02))
        assert len(_trajectory(piece, 1e-3).xs) == 30_001
        _assert_sweeps_match(piece, 1e-3, _sequential_sweep, 1e-11)


class TestStageForcingReference:
    """The augmented map against RK4 with the forcing evaluated at the stage
    abscissae.  The two agree up to rounding for forcing of degree <= 1; from
    degree 2 on, the stages of w are not exact monomials, and they differ at
    O(h^4)."""

    @pytest.mark.parametrize("h", STEPS)
    def test_registry_pieces(self, h):
        # Registry forcing has degree <= 1.
        for ex_id in EXAMPLE_IDS:
            for piece in get_example(ex_id).bvp.pieces:
                _assert_sweeps_match(piece, h, _stage_forcing_sweep, 1e-12)

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    def test_quadratic_forcing(self, steps):
        _assert_sweeps_match(_step_count_piece(steps), 0.01, _stage_forcing_sweep, 1e-9)

    def test_degree_six_forcing_converges_at_fourth_order(self):
        # u'' = -u + 0.5u' + q with q chosen so that the degree-6 polynomial
        # p is the exact solution: the error from its Cauchy data at lo must
        # fall by ~16 when h halves.
        p = (1.0, -2.0, 0.5, 1.0, -0.3, 0.2, 0.1)
        npoly = np.polynomial.polynomial
        q = npoly.polysub(npoly.polyder(p, 2),
                          npoly.polyadd(0.5 * npoly.polyder(p), npoly.polymul([-1.0], p)))
        piece = PieceOde(2, (0.3, 2.3), (-1.0, 0.5), tuple(float(c) for c in q))
        assert len(piece.forcing) == 7

        def error(h):
            traj = _trajectory(piece, h)
            y0 = [npoly.polyval(piece.lo, npoly.polyder(p, j)) for j in (0, 1)]
            exact = np.stack([npoly.polyval(traj.xs, npoly.polyder(p, j)) for j in (0, 1)],
                             axis=1)
            return np.abs(traj.states[:, :, :2] @ y0 + traj.particular - exact).max()

        assert error(0.05) / error(0.025) >= 12.0


def _reference_map(a, h):
    m = h * a
    m2 = m @ m
    m3 = m2 @ m
    return np.eye(len(a)) + m + m2 / 2 + m3 / 6 + m3 @ m / 24


def _reference_integrate(piece, h):
    """The per-piece doubling sweep, frozen as the bitwise reference for the
    stacked one: (xs, states, Â) of one piece on its own."""
    n, lo, hi = piece.order, piece.lo, piece.hi
    xs = lo + h * np.arange(int((hi - lo) / h) + 2)
    keep = xs < hi - 1e-15 * max(1.0, abs(hi))
    keep[0] = True
    xs = np.append(xs[keep], hi)
    a = _generator(piece)
    m, width = len(xs) - 1, len(a)
    states = np.empty((m + 1, n, width))
    states[0] = np.eye(n, width)
    rows = states.reshape(-1, width)
    s, power = 1, _reference_map(a, h)
    with np.errstate(over="ignore", invalid="ignore"):
        while s < m:
            k = min(s, m - s)
            rows[s * n:(s + k) * n] = rows[:k * n] @ power
            s, power = 2 * s, power @ power
        states[m] = states[m - 1] @ _reference_map(a, xs[-1] - xs[-2])
    bad = ~np.isfinite(states).all(axis=(1, 2))
    if bad.any():
        raise IntegrationError(f"integration blew up near x = {xs[np.argmax(bad)]}")
    return xs, states, a


def _reference_partial_step(traj, x):
    """Fundamental matrix and particular state at x: one partial step from
    the node at or below x."""
    xs, states, a = traj
    i = int(np.searchsorted(xs, x, side="right")) - 1
    state = states[i] @ _reference_map(a, x - xs[i])
    return state[:, :len(state)], state[:, -1]


@np.errstate(over="ignore", invalid="ignore")
def _reference_shooting(bvp, h):
    """(bands, rhs, per-piece (xs, ys, top)) as the per-piece oracle built
    them, each piece integrated and each condition stepped on its own."""
    n, orders = bvp.order, bvp.continuity.sorted_orders
    trajs = [_reference_integrate(p, h) for p in bvp.pieces]
    rhs, bands = np.zeros(len(bvp.conditions) + (len(trajs) - 1) * len(orders)), []
    for r, cond in enumerate(bvp.conditions):
        k = int(bvp.owning_piece(cond.location, side="left"))
        phi, part = _reference_partial_step(trajs[k], cond.location)
        rhs[r] = cond.value - part[cond.deriv_order]
        bands.append((k * n, (phi[cond.deriv_order] + 0.0).tolist()))
    r = len(bvp.conditions)
    for k, (_, states, _) in enumerate(trajs[:-1]):
        for j in orders:
            rhs[r] = -states[-1, j, -1]
            bands.append((k * n, (states[-1, j, :n] + 0.0).tolist() + [0.0] * j + [-1.0]))
            r += 1
    constants = gauss_solve(MatchSystem(bands, rhs, n * len(bvp.pieces), n, bvp))
    out = []
    for k, (piece, (xs, states, _)) in enumerate(zip(bvp.pieces, trajs)):
        ys = states[:, :, :n] @ constants[k * n:(k + 1) * n] + states[:, :, -1]
        top = ys @ np.asarray(piece.coeffs) + np.polynomial.polynomial.polyval(xs, piece.forcing)
        out.append((xs, ys, top))
    return bands, rhs, out


def _band_bytes(bands):
    return [(first, np.array(band, dtype=float).tobytes()) for first, band in bands]


def _anchored(bvp):
    if not bvp.pins:
        return bvp
    return dataclasses.replace(bvp, pins=(), conditions=bvp.conditions
                               + pin_anchors(solve_exact(bvp), bvp))


def _obstacle16():
    """The 16-region penalty obstacle of the CI solve-and-verify step."""
    cuts = [math.pi * k / 16 for k in range(17)]
    regions = tuple(((cuts[k], cuts[k + 1]), 1.0 if k % 3 else -0.5 - 0.1 * k)
                    for k in range(16))
    ends = (PointCondition(0.0, 0, 0.0), PointCondition(math.pi, 0, 0.0))
    return reformulate(PenaltyProblem(Obstacle(regions), 0.7, ends))


def _cantilever16():
    """The order-4, 16-piece cantilever of the CI solve-and-verify step."""
    cuts = [2.0 * k / 16 for k in range(17)]
    pieces = tuple(normalize_piece(1, [-4.0 if k % 2 else 0.0, 0.0, 0.0, 0.0],
                                   [-1.0, 0.1 * k], (cuts[k], cuts[k + 1]), 4)
                   for k in range(16))
    conditions = (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                  PointCondition(2.0, 2, 0.0), PointCondition(2.0, 3, 0.0))
    return PiecewiseBvp(4, pieces, conditions, ContinuitySpec(frozenset(range(4))))


def _mixed_family(seed):
    """Orders 2-4, forcing degrees 0-6 drawn per piece (several widths, so
    several stacks), piece lengths differing 100x, and conditions at a grid
    node, between two nodes, at an interior breakpoint (the left piece's hi)
    and at both ends.  Returns (bvp, h)."""
    rng = np.random.default_rng(seed)
    n, count = int(rng.integers(2, 5)), int(rng.integers(4, 17))
    h = float(rng.choice([1e-3, 0.0037, 0.015]))
    lengths = rng.uniform(1.0, 2.0, count)
    lengths[rng.integers(count)] = 100.0
    cuts = np.concatenate([[0.0], np.cumsum(lengths / lengths.sum() * rng.uniform(2.0, 4.0))])
    cuts = (cuts + rng.uniform(-1.0, 0.0)).tolist()
    pieces = tuple(PieceOde(n, (cuts[k], cuts[k + 1]), tuple(rng.uniform(-2.0, 2.0, n).tolist()),
                            tuple(rng.uniform(-2.0, 2.0, int(rng.integers(0, 7)) + 1).tolist()))
                   for k in range(count))
    k = int(rng.integers(count))
    places = [cuts[0], cuts[k] + 3 * h, cuts[k] + 2.5 * h, cuts[1], cuts[-1]]
    conditions = tuple(PointCondition(places[i], i % n, float(rng.uniform(-1.0, 1.0)))
                       for i in range(n))
    return PiecewiseBvp(n, pieces, conditions, ContinuitySpec(frozenset(range(n)))), h


def _assert_bitwise_oracle(bvp, h, monkeypatch):
    """Node states, point states, the oracle's bands and rhs and its (xs, ys,
    top) are bit for bit those of the per-piece reference."""
    where = np.array([c.location for c in bvp.conditions])
    owner = bvp.owning_piece(where, side="left")
    trajectories, at = integrate_fundamental(bvp.pieces, h, owner, where)
    for piece, traj in zip(bvp.pieces, trajectories):
        xs, states, _ = _reference_integrate(piece, h)
        assert traj.xs.tobytes() == xs.tobytes()
        assert traj.states.tobytes() == states.tobytes()
    for cond, k, state in zip(bvp.conditions, owner, at):
        phi, part = _reference_partial_step(_reference_integrate(bvp.pieces[k], h),
                                            cond.location)
        assert state[:, :-1].tobytes() == phi.tobytes()
        assert state[:, -1].tobytes() == part.tobytes()
    systems = []
    monkeypatch.setattr(oracle, "gauss_solve",
                        lambda system: systems.append(system) or gauss_solve(system))
    numeric = shooting_solve(bvp, h)
    bands, rhs, reference = _reference_shooting(bvp, h)
    assert _band_bytes(systems[0].bands) == _band_bytes(bands)
    assert systems[0].rhs.tobytes() == rhs.tobytes()
    for got, want in zip(numeric.piece_trajectories, reference, strict=True):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestStackedSweep:
    """The stacked sweep against the frozen per-piece one, bit for bit."""

    @pytest.mark.parametrize("h", [1e-3, 0.015])
    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry(self, ex_id, h, monkeypatch):
        _assert_bitwise_oracle(_anchored(get_example(ex_id).bvp), h, monkeypatch)

    @pytest.mark.parametrize("build", [_obstacle16, _cantilever16])
    def test_ci_sixteen_pieces(self, build, monkeypatch):
        _assert_bitwise_oracle(build(), 1e-3, monkeypatch)

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_widths_and_lengths(self, seed, monkeypatch):
        bvp, h = _mixed_family(seed)
        steps = [len(_reference_integrate(p, h)[0]) - 1 for p in bvp.pieces]
        stacks = _stacks([p.order + len(p.forcing) for p in bvp.pieces], steps)
        assert len(stacks) > 1
        _assert_bitwise_oracle(bvp, h, monkeypatch)

    def test_family_pads_and_splits(self):
        # Across the family, some stack pads a shorter piece and some width
        # group is split by length.
        padded = split = False
        for seed in range(12):
            bvp, h = _mixed_family(seed)
            steps = [len(_reference_integrate(p, h)[0]) - 1 for p in bvp.pieces]
            widths = [p.order + len(p.forcing) for p in bvp.pieces]
            stacks = _stacks(widths, steps)
            padded |= any(steps[s[-1]] < steps[s[0]] for s in stacks)
            split |= len({widths[s[0]] for s in stacks}) < len(stacks)
        assert padded and split

    @pytest.mark.parametrize("seed", range(20))
    def test_stack_rule(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 17))
        widths = rng.integers(3, 6, count).tolist()
        steps = (rng.integers(1, 4000, count) * rng.choice([1, 100], count)).tolist()
        stacks = _stacks(widths, steps)
        assert sorted(k for s in stacks for k in s) == list(range(count))
        for s in stacks:
            assert len({widths[k] for k in s}) == 1
            assert [steps[k] for k in s] == sorted((steps[k] for k in s), reverse=True)
            assert len(s) * (steps[s[0]] + 1) <= 2 * sum(steps[k] + 1 for k in s)

    def test_padding_stays_within_the_step_cap(self):
        # The second piece has more than half the nodes of the first, but
        # padding it would take the stacks past MAX_STEPS nodes; the last
        # two pieces' padding still fits.
        assert _stacks([3] * 4, [600_000, 340_000, 10_000, 9_000]) == [[0], [1], [2, 3]]
        assert _stacks([3] * 4, [6_000, 3_400, 100, 90]) == [[0, 1], [2, 3]]

    def test_skewed_pieces_keep_the_padding_bound_in_memory(self):
        # One piece 100x longer than each of 15 others of one width: one
        # stack of all 16 would hold ~14x the real node states.
        cuts = np.concatenate([[0.0], np.cumsum([1.0] + [0.01 * (1 + k / 15) for k in range(15)])])
        pieces = tuple(PieceOde(2, (float(lo), float(hi)), (-1.0, 0.0), (1.0,))
                       for lo, hi in zip(cuts, cuts[1:]))
        h = 1e-4
        real = sum(len(_reference_integrate(p, h)[0]) * 2 * 3 * 8 for p in pieces)
        tracemalloc.start()
        try:
            trajectories, _ = integrate_fundamental(pieces, h, np.zeros(0, int), np.zeros(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum({id(t.states.base): t.states.base.nbytes for t in trajectories}.values())
        assert held <= 2 * real
        assert peak <= 2.5 * real

    def test_overflow_in_padding_neither_raises_nor_warns(self):
        # u'' = 4.9e5 u on [2, 3] (h·sqrt(λ) = 0.7) is padded to the 2,000
        # steps of u'' = 0 on [0, 2].  Its real nodes grow to ~e^705, and the
        # doubling pass that reaches them runs on to node 1,023, ~e^721.
        pieces = (PieceOde(2, (0.0, 2.0), (0.0, 0.0), (0.0,)),
                  PieceOde(2, (2.0, 3.0), (4.9e5, 0.0), (0.0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectories, _ = integrate_fundamental(pieces, 1e-3, np.zeros(0, int), np.zeros(0))
        stiff = trajectories[1]
        assert stiff.states.base is trajectories[0].states.base
        assert np.isfinite(stiff.states).all()
        assert not np.isfinite(stiff.states.base).all()
        assert stiff.states.tobytes() == _reference_integrate(pieces[1], 1e-3)[1].tobytes()

    def test_overflow_on_a_real_node_raises_naming_x(self):
        pieces = (PieceOde(2, (0.0, 2.0), (0.0, 0.0), (0.0,)),
                  PieceOde(2, (2.0, 3.0), (1e6, 0.0), (0.0,)))
        with pytest.raises(IntegrationError) as reference:
            _reference_integrate(pieces[1], 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as stacked:
                integrate_fundamental(pieces, 1e-3, np.zeros(0, int), np.zeros(0))
        assert str(stacked.value) == str(reference.value)
        assert "blew up near x = 2.7" in str(stacked.value)


class TestShootingSolve:
    def test_straight_line(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        bvp = _single_piece_bvp(piece, (PointCondition(0.0, 0, 0.0),
                                        PointCondition(1.0, 0, 1.0)))
        numeric = shooting_solve(bvp, 0.05)
        assert sample(numeric, 0.5) == pytest.approx(0.5, abs=1e-13)
        assert sample(numeric, 0.25) == pytest.approx(0.25, abs=1e-13)

    def test_single_piece_coupled(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (-1.0,))
        bvp = _single_piece_bvp(piece, (PointCondition(0.0, 0, 0.0),
                                        PointCondition(1.0, 0, 0.0)))
        numeric = shooting_solve(bvp, 1e-3)
        expected = 1.0 - 1.0 / math.cosh(0.5)  # closed form 1 - cosh(x-1/2)/cosh(1/2)
        assert sample(numeric, 0.5) == pytest.approx(expected, abs=1e-9)

    def test_first_example_against_exact(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        numeric = shooting_solve(entry.bvp, 1e-3)
        expected = 1.0 - 4.0 * math.sqrt(math.e) / (1.0 + 3.0 * math.e)
        assert sample(numeric, 0.0) == pytest.approx(expected, abs=1e-8)
        assert compare_solutions(sol, entry.bvp, numeric) <= 1e-8

    def test_pins_require_anchors(self):
        entry = get_example("3.1.6")
        with pytest.raises(ProblemError):
            shooting_solve(entry.bvp, 1e-2)

    def test_pinned_problem_with_anchors(self):
        entry = get_example("3.1.6")
        sol = solve_exact(entry.bvp)
        anchored = dataclasses.replace(
            entry.bvp, pins=(), conditions=entry.bvp.conditions + pin_anchors(sol, entry.bvp))
        numeric = shooting_solve(anchored, 1e-3)
        assert compare_solutions(sol, entry.bvp, numeric) <= 1e-6

    def test_no_basis_machinery_dependency(self):
        # the oracle must stay independent of the closed-form path: nothing
        # from the basis module, and from the exact one only the linear solve
        import obstacle_bvp.oracle as oracle_mod
        source = Path(oracle_mod.__file__).read_text()
        for name in ("piece_basis", "real_basis", "particular_solution", "eval_terms"):
            assert name not in source
        imports = _package_imports(source)
        assert not [pair for pair in imports if pair[0] == "basis"]
        assert {name for module, name in imports if module == "exact"} <= {"MatchSystem",
                                                                           "gauss_solve"}


def _per_piece_sample(numeric, x, j):
    """The oracle's sampling as a loop over pieces, each point on the piece
    that owns it (breakpoints on the right piece), kept as a reference."""
    owner = np.searchsorted(numeric.breakpoints[1:-1], x, side="right")
    out = np.empty(x.shape)
    for k in np.unique(owner):
        mask = owner == k
        xs, ys, top = numeric.piece_trajectories[k]
        values = ys[:, j]
        slopes = ys[:, j + 1] if j + 1 < numeric.order else top
        i = np.minimum(np.searchsorted(xs, x[mask], side="right"), len(xs) - 1) - 1
        out[mask] = _hermite(x[mask], xs[i], xs[i + 1], values[i], values[i + 1],
                             slopes[i], slopes[i + 1])
    return out[()]


def _bitwise(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestSample:
    def test_grid_point_is_exact(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        bvp = _single_piece_bvp(piece, (PointCondition(0.0, 0, 0.0),
                                        PointCondition(1.0, 0, 1.0)))
        numeric = shooting_solve(bvp, 0.125)
        xs, ys, _ = numeric.piece_trajectories[0]
        assert sample(numeric, float(xs[3])) == ys[3, 0]
        assert np.array_equal(sample(numeric, xs), ys[:, 0])

    def test_breakpoint_is_right_piece_first_node(self):
        # Breakpoints belong to the right piece: sampling there returns that
        # piece's first node state exactly, in every state component.
        entry = get_example("3.1.2")
        numeric = shooting_solve(entry.bvp, 1e-3)
        assert len(numeric.piece_trajectories) == 3
        breakpoints = entry.bvp.interior_breakpoints
        for k, x in enumerate(breakpoints, start=1):
            xs, ys, _ = numeric.piece_trajectories[k]
            assert xs[0] == x
            for j in range(numeric.order):
                assert sample(numeric, x, j) == ys[0, j]
                assert np.array_equal(sample(numeric, np.array(breakpoints), j)[k - 1],
                                      ys[0, j])

    def test_trig_example_midpoint(self):
        entry = get_example("3.1.4")
        sol = solve_exact(entry.bvp)
        numeric = shooting_solve(entry.bvp, 1e-3)
        x = math.pi / 2.0
        from obstacle_bvp.exact import eval_solution
        assert sample(numeric, x) == pytest.approx(
            eval_solution(sol, entry.bvp, x), abs=1e-6)

    def test_derivative_orders(self):
        entry = get_example("3.1.1")
        numeric = shooting_solve(entry.bvp, 1e-3)
        sol = solve_exact(entry.bvp)
        from obstacle_bvp.exact import eval_solution
        for x in (-0.8, -0.3, 0.1, 0.9):
            assert sample(numeric, x, 1) == pytest.approx(
                eval_solution(sol, entry.bvp, x, 1), abs=1e-8)
        xs = np.concatenate([np.linspace(-1.0, 1.0, 37), entry.bvp.breakpoints])
        for j in (0, 1):
            scalar = np.array([sample(numeric, x, j) for x in xs])
            assert np.abs(sample(numeric, xs, j) - scalar).max() <= (
                1e-15 * np.abs(scalar).max())

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_one_pass_equals_the_per_piece_loop(self, ex_id):
        bvp = get_example(ex_id).bvp
        if bvp.pins:
            bvp = dataclasses.replace(bvp, pins=(), conditions=bvp.conditions
                                      + pin_anchors(solve_exact(bvp), bvp))
        numeric = shooting_solve(bvp, 1e-3)
        a, b = bvp.domain
        xs = np.concatenate([np.linspace(a, b, 2001), bvp.breakpoints, [a, b]])
        for j in range(bvp.order):
            assert _bitwise(sample(numeric, xs, j), _per_piece_sample(numeric, xs, j))
            for x in (a, b, *bvp.breakpoints):
                assert _bitwise(sample(numeric, x, j), _per_piece_sample(numeric, np.array(x), j))

    def test_out_of_range(self):
        entry = get_example("3.1.1")
        numeric = shooting_solve(entry.bvp, 1e-2)
        with pytest.raises(ProblemError):
            sample(numeric, 2.0)
        with pytest.raises(ProblemError):
            sample(numeric, 0.0, 2)
        with pytest.raises(ProblemError):
            sample(numeric, np.array([-1.0, 0.0, 2.0]))


class TestConvergence:
    def test_fourth_order_error_decay(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        coarse = compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 0.05))
        fine = compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 0.025))
        assert coarse / fine >= 12.0
