import math

import numpy as np
import pytest

from obstacle_bvp.basis import piece_basis
from obstacle_bvp.exact import (InconsistentSystemError, MatchSystem,
                                RankDeficientError, SolveError, assemble_system,
                                eval_solution, gauss_solve,
                                particular_solution, solve_exact)
from obstacle_bvp.examples import get_example
from obstacle_bvp.verify import verification_report
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError, build_second_order,
                                build_third_order)

E = math.e


def _system_for(bvp):
    bases = [piece_basis(p) for p in bvp.pieces]
    parts = [particular_solution(p) for p in bvp.pieces]
    return assemble_system(bvp, bases, parts)


class TestParticularSolution:
    def test_constant_forcing_with_coupling(self):
        piece = PieceOde(2, (0.25, 0.75), (1.0, 0.0), (-1.0,))  # u'' = u - 1
        assert particular_solution(piece) == (1.0,)

    def test_resonant_monomial(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0, 1.0))  # u'' = x
        assert particular_solution(piece) == pytest.approx((0.0, 0.0, 0.0, 1.0 / 6.0))

    def test_third_order_linear_forcing(self):
        piece = PieceOde(3, (0.25, 0.75), (1.0, 0.0, 0.0), (-1.0, 1.0))  # u''' = u + x - 1
        assert particular_solution(piece) == pytest.approx((1.0, -1.0))

    def test_quartic_resonance(self):
        piece = PieceOde(3, (0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0))  # u''' = x
        assert particular_solution(piece) == pytest.approx((0.0, 0.0, 0.0, 0.0, 1.0 / 24.0))

    def test_failed_ansatz_raises(self):
        # a_0 = 1e-200 makes the ansatz solve overflow; the identity check is
        # an explicit error, so it still fires under python -O.
        piece = PieceOde(2, (0.0, 1.0), (1e-200, 0.0), (1.0,) * 7)
        with np.errstate(all="ignore"):
            with pytest.raises(SolveError, match="particular ansatz failed"):
                particular_solution(piece)

    def test_identity_holds_for_random_pieces(self):
        rng = np.random.default_rng(3)
        poly = np.polynomial.polynomial
        for _ in range(100):
            order = int(rng.integers(2, 5))
            coeffs = tuple(np.where(rng.random(order) < 0.3, 0.0,
                                    rng.uniform(-3, 3, order)))
            forcing = tuple(rng.uniform(-2, 2, int(rng.integers(1, 4))))
            piece = PieceOde(order, (0.0, 1.0), coeffs, forcing)
            up = particular_solution(piece)
            for x in np.linspace(-1.0, 1.0, 7):
                lhs = poly.polyval(x, poly.polyder(up, order))
                for j, aj in enumerate(coeffs):
                    lhs -= aj * poly.polyval(x, poly.polyder(up, j) if j else up)
                assert lhs == pytest.approx(piece.forcing_value(x), abs=1e-9)


class TestAssembleSystem:
    def test_first_example_is_square(self):
        system = _system_for(get_example("3.1.1").bvp)
        assert system.shape == (6, 6)
        assert len(system.labels) == 6

    def test_third_order_without_pin(self):
        bvp = build_third_order(
            0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0),
                        PointCondition(0.25, 1, 0.0), PointCondition(0.75, 1, 0.0)),
        )
        assert _system_for(bvp).shape == (8, 9)

    def test_third_order_with_pin(self):
        assert _system_for(get_example("3.1.6").bvp).shape == (9, 9)

    def test_row_ordering_is_deterministic(self):
        system = _system_for(get_example("3.1.1").bvp)
        assert system.row_labels[0].startswith("u^(0)(-1)")
        assert "continuity order 0 at x = -0.5" in system.row_labels[2]
        assert "continuity order 1 at x = 0.5" in system.row_labels[5]


class TestGaussSolve:
    def test_identity(self):
        system = MatchSystem(np.eye(2), np.array([3.0, 4.0]),
                             ((0, 0), (0, 1)), ())
        result = gauss_solve(system)
        assert result.constants == pytest.approx([3.0, 4.0])

    def test_consistent_singular_reports_rank(self):
        system = MatchSystem(np.array([[1.0, 1.0], [2.0, 2.0]]),
                             np.array([1.0, 2.0]), ((0, 0), (0, 1)), ())
        with pytest.raises(RankDeficientError) as exc:
            gauss_solve(system)
        assert (exc.value.rank, exc.value.nullity) == (1, 1)
        assert len(exc.value.free_columns) == 1

    def test_inconsistent_overdetermined_raises(self):
        system = MatchSystem(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
                             ((0, 0),), ())
        with pytest.raises(InconsistentSystemError) as exc:
            gauss_solve(system)
        assert exc.value.residual_norm > 0.1

    def test_consistent_redundant_rows_accepted(self):
        system = MatchSystem(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                             np.array([2.0, 3.0, 5.0]), ((0, 0), (0, 1)), ())
        result = gauss_solve(system)
        assert result.constants == pytest.approx([2.0, 3.0])

    def test_first_example_constants(self):
        result = gauss_solve(_system_for(get_example("3.1.1").bvp))
        a1 = 2.0 * (E - 1.0) / (1.0 + 3.0 * E)
        assert result.constants[1] == pytest.approx(a1, abs=1e-12)

    @pytest.mark.parametrize("coeff, hi", [(1e6, 1.0), (1.0, 800.0)])
    def test_overflowing_system_is_not_rank_deficient(self, coeff, hi):
        # u'' = coeff*u on [0, hi]: e^{sqrt(coeff)*hi} overflows, so no pin
        # can help; the solve must name the overflow, not give pin advice.
        piece = PieceOde(2, (0.0, hi), (coeff, 0.0), (1.0,))
        bvp = PiecewiseBvp(2, (piece,), (PointCondition(0.0, 0, 0.0),
                                         PointCondition(hi, 0, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolveError, match="non-finite") as exc:
                solve_exact(bvp)
        assert not isinstance(exc.value, RankDeficientError)
        assert "pin" not in str(exc.value)

    def test_random_square_systems_residual(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 17))
            a = rng.normal(size=(n, n))
            if np.linalg.cond(a) >= 1e6:
                continue
            b = rng.normal(size=n)
            labels = tuple((0, i) for i in range(n))
            result = gauss_solve(MatchSystem(a, b, labels, ()))
            assert np.abs(a @ result.constants - b).max() <= 1e-10 * np.abs(b).max()
            checked += 1


class TestSolveExact:
    def test_first_example_midpoint(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        expected = 1.0 - 4.0 * math.sqrt(E) / (1.0 + 3.0 * E)
        assert eval_solution(sol, entry.bvp, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_trigonometric_example_slope(self):
        entry = get_example("3.1.4")
        sol = solve_exact(entry.bvp)
        a1 = 4.0 / (math.pi + 4.0 / math.tanh(math.pi / 4.0))
        assert sol.pieces[0].constants[1] == pytest.approx(a1, abs=1e-12)

    def test_zero_problem_is_identically_zero(self):
        bvp = build_second_order(0.0, 0.0, 0.0, a=0.0, c=0.3, d=0.7, b=1.0,
                                 conditions=(PointCondition(0.0, 0, 0.0),
                                             PointCondition(1.0, 0, 0.0)))
        sol = solve_exact(bvp)
        for x in np.linspace(0.0, 1.0, 20):
            assert eval_solution(sol, bvp, x) == pytest.approx(0.0, abs=1e-14)

    def test_rank_deficiency_carries_pin_advice(self):
        import dataclasses
        bvp = dataclasses.replace(get_example("3.1.6").bvp, pins=())
        with pytest.raises(RankDeficientError) as exc:
            solve_exact(bvp)
        assert exc.value.nullity == 1
        assert len(exc.value.free_columns) == 1
        assert "pin" in str(exc.value)

    def test_pinning_invariance_differs_by_null_vector(self):
        import dataclasses
        from obstacle_bvp.model import PinnedConstant
        base = get_example("3.1.6").bvp
        unpinned = dataclasses.replace(base, pins=())
        sols = []
        for value in (1.0, 2.0):
            bvp = dataclasses.replace(base, pins=(PinnedConstant(2, 0, value),))
            sol = solve_exact(bvp)
            sols.append(np.concatenate([p.constants for p in sol.pieces]))
        diff = sols[1] - sols[0]
        system = _system_for(unpinned)
        assert np.abs(system.matrix @ diff).max() <= 1e-8

    @pytest.mark.parametrize("roots", [
        [1.3, 1.3 + 1e-7],
        [0.8, 0.8, -0.5],
        [1.2, 1.2, 0.5, -0.5],
    ])
    def test_near_double_roots_merge_and_verify(self, roots):
        n = len(roots)
        monic = np.real(np.poly(roots))[::-1]
        piece = PieceOde(n, (0.0, 1.0), tuple(float(-c) for c in monic[:-1]), (1.0,))
        conditions = ([PointCondition(0.0, j, 1.0) for j in range((n + 1) // 2)]
                      + [PointCondition(1.0, j, 0.0) for j in range(n // 2)])
        bvp = PiecewiseBvp(n, (piece,), tuple(conditions),
                           ContinuitySpec(frozenset({0})))
        assert [fn.k for fn in piece_basis(piece)].count(1) == 1
        sol = solve_exact(bvp)
        assert verification_report(sol, bvp).passed

    def test_rank_report_attached(self):
        sol = solve_exact(get_example("3.1.1").bvp)
        assert sol.rank_report.rank == 6
        assert sol.rank_report.nullity == 0
        assert sol.rank_report.residual_norm <= 1e-12


class TestEvalSolution:
    def test_boundary_values(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        assert eval_solution(sol, entry.bvp, -1.0) == pytest.approx(0.0, abs=1e-12)
        assert eval_solution(sol, entry.bvp, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_first_branch_value(self):
        entry = get_example("3.1.2")
        sol = solve_exact(entry.bvp)
        assert eval_solution(sol, entry.bvp, 0.125) == pytest.approx(
            entry.reference(0.125), abs=1e-12)

    def test_breakpoints_belong_to_right_piece(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        # second derivative jumps at the breakpoint; right ownership decides
        middle = sol.pieces[1].value(-0.5, 2)
        assert eval_solution(sol, entry.bvp, -0.5, 2) == pytest.approx(middle)

    @pytest.mark.parametrize("ex_id", ["3.1.1", "3.1.4", "3.1.6"])
    def test_array_matches_scalar_calls(self, ex_id):
        bvp = get_example(ex_id).bvp
        sol = solve_exact(bvp)
        a, b = bvp.domain
        xs = np.concatenate([np.linspace(a, b, 41), bvp.breakpoints])
        for j in range(bvp.order + 1):
            scalar = np.array([eval_solution(sol, bvp, x, j) for x in xs])
            got = eval_solution(sol, bvp, xs, j)
            assert got.shape == xs.shape
            assert np.abs(got - scalar).max() <= 1e-15 * np.abs(scalar).max()
            piece = sol.pieces[1]
            per_point = np.array([piece.value(x, j) for x in xs])
            assert np.abs(piece.value(xs, j) - per_point).max() <= (
                1e-15 * np.abs(per_point).max())

    def test_outside_domain_rejected(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        with pytest.raises(Exception):
            eval_solution(sol, entry.bvp, 2.0)
        with pytest.raises(ProblemError):
            eval_solution(sol, entry.bvp, np.array([-1.0, 0.0, 1.0 + 1e-12]))
