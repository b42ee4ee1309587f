import dataclasses
import math

import numpy as np
import pytest

from obstacle_bvp.exact import PieceSolution, solve_exact
from obstacle_bvp.examples import get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError)
from obstacle_bvp.oracle import shooting_solve
from obstacle_bvp.verify import (DEFAULT_PROFILE, JumpEntry,
                                 ToleranceProfile, VerificationReport,
                                 compare_solutions, condition_report,
                                 continuity_report, pin_anchors,
                                 residual_report, verification_report)

E = math.e


def _perturb_particular(sol, piece_index, delta):
    piece = sol.pieces[piece_index]
    particular = list(piece.particular)
    particular[0] += delta
    new_piece = PieceSolution(piece.basis, piece.constants, tuple(particular))
    pieces = list(sol.pieces)
    pieces[piece_index] = new_piece
    return dataclasses.replace(sol, pieces=tuple(pieces))


class TestResidualReport:
    def test_exact_solution_is_clean(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        assert max(residual_report(sol, entry.bvp)) <= 1e-10

    def test_perturbation_is_detected(self):
        entry = get_example("3.1.1")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-3)
        residuals = residual_report(sol, entry.bvp)
        assert residuals[1] >= 1e-4

    def test_zero_problem(self):
        from obstacle_bvp.model import build_second_order
        bvp = build_second_order(0.0, 0.0, 0.0, a=0.0, c=0.3, d=0.7, b=1.0,
                                 conditions=(PointCondition(0.0, 0, 0.0),
                                             PointCondition(1.0, 0, 0.0)))
        assert max(residual_report(solve_exact(bvp), bvp)) == 0.0

    def test_max_nondecreasing_in_samples(self):
        entry = get_example("3.1.3")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-5)
        coarse = max(residual_report(sol, entry.bvp, 50))
        fine = max(residual_report(sol, entry.bvp, 5000))
        assert fine >= coarse

    def test_rejects_too_few_samples(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        with pytest.raises(ProblemError):
            residual_report(sol, entry.bvp, 1)


class TestContinuityReport:
    def test_enforced_jumps_are_tiny(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        for jump in continuity_report(sol, entry.bvp):
            if jump.enforced:
                assert jump.jump <= 1e-9

    def test_matched_value_at_breakpoint(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        expected = (E - 1.0) / (1.0 + 3.0 * E)
        assert sol.pieces[0].value(-0.5) == pytest.approx(expected, abs=1e-12)
        assert sol.pieces[1].value(-0.5) == pytest.approx(expected, abs=1e-12)

    def test_mismatched_constants_show_up(self):
        entry = get_example("3.1.1")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-3)
        jumps = [j for j in continuity_report(sol, entry.bvp)
                 if j.order == 0 and j.breakpoint == -0.5]
        assert jumps[0].jump == pytest.approx(1e-3, rel=1e-6)

    def test_single_piece_empty(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        bvp = PiecewiseBvp(2, (piece,),
                           (PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 1.0)),
                           ContinuitySpec(frozenset({0, 1})))
        assert continuity_report(solve_exact(bvp), bvp) == ()

    def test_unenforced_orders_reported_informationally(self):
        entry = get_example("3.1.6")  # continuity on {1, 2} only
        sol = solve_exact(entry.bvp)
        jumps = continuity_report(sol, entry.bvp)
        assert any(not j.enforced and j.order == 0 for j in jumps)


class TestCompareSolutions:
    def test_first_example(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        assert compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 1e-3)) <= 1e-6

    def test_trig_example(self):
        entry = get_example("3.1.4")
        sol = solve_exact(entry.bvp)
        assert compare_solutions(sol, entry.bvp, shooting_solve(entry.bvp, 1e-3)) <= 1e-6

    def test_domain_mismatch_rejected(self):
        entry = get_example("3.1.1")
        other = get_example("3.1.2")
        sol = solve_exact(entry.bvp)
        numeric = shooting_solve(other.bvp, 1e-2)
        with pytest.raises(ProblemError):
            compare_solutions(sol, entry.bvp, numeric)


class TestVerificationReport:
    def test_full_report_passes(self):
        entry = get_example("3.1.2")
        sol = solve_exact(entry.bvp)
        report = verification_report(sol, entry.bvp, shooting_solve(entry.bvp, 1e-3))
        assert report.passed
        assert report.oracle_delta <= 1e-6

    def test_pass_flag_monotone_in_tolerances(self):
        entry = get_example("3.1.1")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-6)
        tight = verification_report(sol, entry.bvp)
        loose = dataclasses.replace(
            tight, tolerances=ToleranceProfile(residual=1.0, jump=1.0, condition=1.0))
        assert loose.passed or not tight.passed
        assert loose.passed  # loosening never flips pass -> fail

    def test_unenforced_jump_never_fails(self):
        entry = get_example("3.1.6")
        sol = solve_exact(entry.bvp)
        report = verification_report(sol, entry.bvp)
        assert any(not j.enforced and j.jump > 1e-9 for j in report.jumps)
        assert report.passed

    def test_serialization_round_trip(self):
        import json
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        report = verification_report(sol, entry.bvp)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert len(data["piece_residuals"]) == 3
        # The keys come from the report's field names: renaming a field
        # changes the JSON.
        assert set(data) == {"passed", "piece_residuals", "jumps", "condition_violations",
                             "oracle_delta", "tolerances", "residual_scale"}
        assert set(data["tolerances"]) == {"residual", "jump", "condition", "oracle_delta"}
        assert set(data["jumps"][0]) == {"breakpoint", "order", "jump", "enforced"}
        assert "overall: PASS" in report.render_table()

    def test_condition_report(self):
        entry = get_example("3.1.6")
        sol = solve_exact(entry.bvp)
        assert max(condition_report(sol, entry.bvp)) <= 1e-9

    def test_breakpoint_condition_uses_left_piece(self):
        # u jumps by 1e-3 at both interior breakpoints, -0.5 and 0.5.
        entry = get_example("3.1.1")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-3)
        conds = (PointCondition(-0.5, 0, 0.25), PointCondition(1.0, 0, 0.0),
                 PointCondition(0.5, 1, 0.0), PointCondition(-1.0, 0, 0.0),
                 PointCondition(0.5, 0, 0.0), PointCondition(-0.5, 0, -0.5))
        bvp = dataclasses.replace(entry.bvp, conditions=conds)
        owners = (0, 2, 1, 0, 1, 0)
        expected = tuple(abs(sol.pieces[k].value(c.location, c.deriv_order) - c.value)
                         for k, c in zip(owners, conds))
        assert condition_report(sol, bvp) == expected


def _report(**changes):
    """A passing report with rows of every kind (residual tolerance 2e-8),
    with the given fields replaced."""
    report = VerificationReport(
        piece_residuals=(1e-12, 2e-12),
        jumps=(JumpEntry(0.5, 0, 1e-13, True), JumpEntry(0.5, 1, 0.3, False)),
        condition_violations=(0.0, 1e-12),
        oracle_delta=1e-8,
        tolerances=DEFAULT_PROFILE,
        residual_scale=2.0,
    )
    return dataclasses.replace(report, **changes)


def _statuses(table):
    """Status column of every check row (header and verdict line dropped)."""
    return [line.split()[-1] for line in table.splitlines()[1:-1]]


class TestVerdict:
    @pytest.mark.parametrize("changes", [
        {"piece_residuals": (1e-12, math.nan)},
        {"jumps": (JumpEntry(0.5, 0, math.nan, True), JumpEntry(0.5, 1, 0.3, False))},
        {"condition_violations": (math.nan, 0.0)},
        {"oracle_delta": math.nan},
    ], ids=["residual", "jump", "condition", "oracle"])
    def test_nan_check_fails(self, changes):
        report = _report(**changes)
        assert not report.passed
        table = report.render_table()
        assert table.endswith("overall: FAIL")
        assert _statuses(table).count("FAIL") == 1

    @pytest.mark.parametrize("changes, passed", [
        ({}, True),
        ({"piece_residuals": (1e-12, 3e-8)}, False),
        ({"piece_residuals": (1e-12, 2e-8)}, True),  # value == tolerance passes
        ({"jumps": (JumpEntry(0.5, 0, 2e-9, True), JumpEntry(0.5, 1, 0.3, False))}, False),
        ({"jumps": (JumpEntry(0.5, 0, 1e-13, True), JumpEntry(0.5, 1, 1e9, False))}, True),
        ({"condition_violations": (0.0, 1e-6)}, False),
        ({"oracle_delta": 1e-3}, False),
        ({"oracle_delta": None}, True),
    ])
    def test_status_column_agrees_with_verdict(self, changes, passed):
        report = _report(**changes)
        assert report.passed is passed
        table = report.render_table()
        statuses = _statuses(table)
        assert ("FAIL" in statuses) is not passed
        assert table.endswith(f"overall: {'PASS' if passed else 'FAIL'}")
        for line, status in zip(table.splitlines()[1:-1], statuses):
            assert (status == "-") == ("(info" in line)


class TestPinAnchors:
    def test_one_anchor_per_pin(self):
        entry = get_example("3.1.6")
        sol = solve_exact(entry.bvp)
        anchors = pin_anchors(sol, entry.bvp)
        assert len(anchors) == 1
        piece = entry.bvp.pieces[2]
        assert anchors[0].location == pytest.approx((piece.lo + piece.hi) / 2)
