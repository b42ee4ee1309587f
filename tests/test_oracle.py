import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from obstacle_bvp.exact import solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError,
                                build_second_order)
from obstacle_bvp.oracle import (IntegrationError, _generator, _hermite,
                                 _partial_step, _rk4_map, integrate_fundamental,
                                 sample, shooting_solve)
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


def _single_piece_bvp(piece, conditions):
    return PiecewiseBvp(piece.order, (piece,), conditions,
                        ContinuitySpec(frozenset(range(piece.order))))


class TestIntegrateFundamental:
    def test_straight_line_is_exact(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        traj = integrate_fundamental(piece, 0.1)
        # RK4 is exact on polynomials of degree <= 3: solutions 1 and x
        assert np.allclose(traj.homogeneous[:, 0, 0], 1.0, atol=0)
        assert np.allclose(traj.homogeneous[:, 0, 1], traj.xs, atol=1e-15)

    def test_cosh_endpoint(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (0.0,))
        traj = integrate_fundamental(piece, 1e-3)
        # unit state (1, 0) evolves to (cosh, sinh)
        assert traj.homogeneous[-1][0, 0] == pytest.approx(math.cosh(1.0), abs=1e-10)
        assert traj.homogeneous[-1][1, 0] == pytest.approx(math.sinh(1.0), abs=1e-10)

    def test_forced_particular_endpoint(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (-1.0,))  # u'' = u - 1
        traj = integrate_fundamental(piece, 1e-3)
        assert traj.particular[-1][0] == pytest.approx(1.0 - math.cosh(1.0), abs=1e-9)

    def test_rejects_bad_step(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        for h in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ProblemError):
                integrate_fundamental(piece, h)

    def test_rejects_step_too_small_for_domain(self):
        with pytest.raises(ProblemError, match="RK4 steps"):
            shooting_solve(get_example("3.1.1").bvp, 1e-14)

    def test_cubic_particular_is_exact(self):
        # u'' = 6x from the zero state is (x^3, 3x^2); RK4 integrates a cubic
        # exactly, on the full steps and on the shortened last one.
        piece = PieceOde(2, (0.0, 1.3), (0.0, 0.0), (0.0, 6.0))
        traj = integrate_fundamental(piece, 0.125)
        assert traj.xs[-1] - traj.xs[-2] == pytest.approx(0.05)
        assert np.abs(traj.particular[:, 0] - traj.xs ** 3).max() <= 1e-13
        assert np.abs(traj.particular[:, 1] - 3 * traj.xs ** 2).max() <= 1e-13

    def test_off_grid_state_matches_shorter_piece(self):
        coeffs, forcing = (-2.0, 0.5), (1.0, -3.0, 0.5)
        piece = PieceOde(2, (0.0, 1.0), coeffs, forcing)
        traj = integrate_fundamental(piece, 0.1)
        for x in (0.537, 0.05, 0.99):
            phi, part = _partial_step(traj, x)
            short = integrate_fundamental(PieceOde(2, (0.0, x), coeffs, forcing), 0.1)
            assert np.abs(phi - short.homogeneous[-1]).max() <= (
                1e-13 * np.abs(phi).max())
            assert np.abs(part - short.particular[-1]).max() <= (
                1e-13 * np.abs(part).max())
        # On a grid node (both ends included) the state is the node's own.
        for i in (0, 5, len(traj.xs) - 1):
            phi, part = _partial_step(traj, traj.xs[i])
            assert np.array_equal(phi, traj.homogeneous[i])
            assert np.array_equal(part, traj.particular[i])

    def test_blow_up_raises_without_warnings(self):
        piece = PieceOde(2, (0.0, 1.0), (1e6, 0.0), (0.0,))  # u'' = 1e6 u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="blew up near x"):
                integrate_fundamental(piece, 1e-3)


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
    traj = integrate_fundamental(piece, h)
    xs, phi, part = reference(piece, h)
    assert np.array_equal(traj.xs, xs)
    assert np.abs(traj.homogeneous - phi).max() <= rel * np.abs(phi).max()
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
        assert len(integrate_fundamental(piece, 0.01).xs) == steps + 1
        _assert_sweeps_match(piece, 0.01, _sequential_sweep, 1e-12)

    def test_long_fourth_order_piece(self):
        # u^(4) = -u - 2u'' + q: roots +-i, each double; 30,000 steps.
        piece = PieceOde(4, (0.0, 30.0), (-1.0, 0.0, -2.0, 0.0), (1.0, -0.5, 0.02))
        assert len(integrate_fundamental(piece, 1e-3).xs) == 30_001
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
            traj = integrate_fundamental(piece, h)
            y0 = [npoly.polyval(piece.lo, npoly.polyder(p, j)) for j in (0, 1)]
            exact = np.stack([npoly.polyval(traj.xs, npoly.polyder(p, j)) for j in (0, 1)],
                             axis=1)
            return np.abs(traj.homogeneous @ y0 + traj.particular - exact).max()

        assert error(0.05) / error(0.025) >= 12.0


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
        for name in ("piece_basis", "real_basis", "particular_solution", "basis_derivatives"):
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
