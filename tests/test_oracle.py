import dataclasses
import math
import warnings

import numpy as np
import pytest

from obstacle_bvp.exact import solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError,
                                build_second_order)
from obstacle_bvp.oracle import (IntegrationError, _companion, _partial_step,
                                 _step_maps, integrate_fundamental, sample,
                                 shooting_solve)
from obstacle_bvp.verify import compare_solutions, pin_anchors


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
        assert traj.end_matrix()[0, 0] == pytest.approx(math.cosh(1.0), abs=1e-10)
        assert traj.end_matrix()[1, 0] == pytest.approx(math.sinh(1.0), abs=1e-10)

    def test_forced_particular_endpoint(self):
        piece = PieceOde(2, (0.0, 1.0), (1.0, 0.0), (-1.0,))  # u'' = u - 1
        traj = integrate_fundamental(piece, 1e-3)
        assert traj.end_particular()[0] == pytest.approx(1.0 - math.cosh(1.0), abs=1e-9)

    def test_rejects_bad_step(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        for h in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ProblemError):
                integrate_fundamental(piece, h)

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
            phi, part = _partial_step(piece, traj, x)
            short = integrate_fundamental(PieceOde(2, (0.0, x), coeffs, forcing), 0.1)
            assert np.abs(phi - short.end_matrix()).max() <= (
                1e-13 * np.abs(phi).max())
            assert np.abs(part - short.end_particular()).max() <= (
                1e-13 * np.abs(part).max())
        # On a grid node (both ends included) the state is the node's own.
        for i in (0, 5, len(traj.xs) - 1):
            phi, part = _partial_step(piece, traj, traj.xs[i])
            assert np.array_equal(phi, traj.homogeneous[i])
            assert np.array_equal(part, traj.particular[i])

    def test_blow_up_raises_without_warnings(self):
        piece = PieceOde(2, (0.0, 1.0), (1e6, 0.0), (0.0,))  # u'' = 1e6 u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="blew up near x"):
                integrate_fundamental(piece, 1e-3)


def _sequential_sweep(piece, h):
    """Reference sweep: one affine RK4 step per node, in grid order."""
    n, lo, hi = piece.order, piece.lo, piece.hi
    xs = lo + h * np.arange(int((hi - lo) / h) + 2)
    xs = np.append(xs[xs < hi - 1e-15 * max(1.0, abs(hi))], hi)
    a = _companion(piece)
    full = _step_maps(a, h)
    phi, part = [np.eye(n)], [np.zeros(n)]
    for i, (x0, x1) in enumerate(zip(xs, xs[1:])):
        step = x1 - x0 if i == len(xs) - 2 else h
        t, b = full if step == h else _step_maps(a, step)
        q = np.polynomial.polynomial.polyval([x0, x0 + step / 2, x1], piece.forcing)
        phi.append(t @ phi[-1])
        part.append(t @ part[-1] + b @ q)
    return xs, np.array(phi), np.array(part)


class TestDoublingSweep:
    """The doubling sweep against the per-step one: the same grid, and states
    equal up to rounding relative to the largest state."""

    @staticmethod
    def _assert_matches_sequential(piece, h, rel):
        traj = integrate_fundamental(piece, h)
        xs, phi, part = _sequential_sweep(piece, h)
        assert np.array_equal(traj.xs, xs)
        assert np.abs(traj.homogeneous - phi).max() <= rel * np.abs(phi).max()
        assert np.abs(traj.particular - part).max() <= rel * np.abs(part).max()

    @pytest.mark.parametrize("h", [1e-3, 0.01, 0.025, 0.05, 0.125])
    def test_registry_pieces(self, h):
        for ex_id in EXAMPLE_IDS:
            for piece in get_example(ex_id).bvp.pieces:
                self._assert_matches_sequential(piece, h, 1e-12)

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 64, 65, 1024, 1025])
    def test_step_counts(self, steps):
        # steps - 1 full steps and a last one of h/2; one step is a piece
        # shorter than h.
        h = 0.01
        piece = PieceOde(3, (0.2, 0.2 + (steps - 0.5) * h), (-1.0, 0.5, -0.3),
                         (1.0, -2.0, 0.5))
        assert len(integrate_fundamental(piece, h).xs) == steps + 1
        self._assert_matches_sequential(piece, h, 1e-12)

    def test_long_fourth_order_piece(self):
        # u^(4) = -u - 2u'' + q: roots +-i, each double; 30,000 steps.
        piece = PieceOde(4, (0.0, 30.0), (-1.0, 0.0, -2.0, 0.0), (1.0, -0.5, 0.02))
        assert len(integrate_fundamental(piece, 1e-3).xs) == 30_001
        self._assert_matches_sequential(piece, 1e-3, 1e-11)


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
        pinless = dataclasses.replace(entry.bvp, pins=())
        numeric = shooting_solve(pinless, 1e-3, anchors=pin_anchors(sol, entry.bvp))
        assert compare_solutions(sol, entry.bvp, numeric) <= 1e-6

    def test_no_basis_machinery_dependency(self):
        # the oracle must stay independent of the closed-form path
        import obstacle_bvp.oracle as oracle_mod
        source = open(oracle_mod.__file__).read()
        for name in ("find_roots", "real_basis", "particular_solution", "eval_basis"):
            assert name not in source


class TestSample:
    def test_grid_point_is_exact(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        bvp = _single_piece_bvp(piece, (PointCondition(0.0, 0, 0.0),
                                        PointCondition(1.0, 0, 1.0)))
        numeric = shooting_solve(bvp, 0.125)
        i = 3
        assert sample(numeric, float(numeric.grid[i])) == numeric.states[i, 0]
        assert np.array_equal(sample(numeric, numeric.grid), numeric.states[:, 0])

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
        coarse = compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 0.05), 501)
        fine = compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 0.025), 501)
        assert coarse / fine >= 12.0
