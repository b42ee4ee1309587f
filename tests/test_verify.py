import dataclasses
import math
import warnings
from functools import cached_property

import numpy as np
import pytest

from obstacle_bvp.exact import SolveError, solve_exact
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PointCondition, ProblemError)
from obstacle_bvp.oracle import shooting_solve
from obstacle_bvp.verify import (DEFAULT_PROFILE, JumpEntry,
                                 ToleranceProfile, VerificationReport,
                                 compare_solutions, condition_report,
                                 continuity_report, matching_values, pin_anchors,
                                 residual_report, solution_scale,
                                 verification_report)

E = math.e


def _perturb_particular(sol, piece_index, delta):
    """The solution with u shifted by delta on every piece of piece_index's
    ODE row: the constant term of the forced column of each of their
    segments' tables, the particular of that segment, moves by delta."""
    system = sol.system
    seg, row = system.segments, system.bvp.ode_table[0]
    tables = seg.tables.copy()
    for k, r in enumerate(row):
        if r == row[piece_index]:
            tables[seg.first[k]:seg.first[k + 1], 0, -1] += delta
    segments = dataclasses.replace(seg, tables=tables)
    return dataclasses.replace(sol, system=dataclasses.replace(system, segments=segments))


class TestResidualReport:
    def test_exact_solution_is_clean(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        assert max(residual_report(sol, entry.bvp)) <= 1e-10

    def test_perturbation_is_detected(self):
        entry = get_example("3.1.1")
        sol = _perturb_particular(solve_exact(entry.bvp), 1, 1e-3)
        residuals = residual_report(sol, entry.bvp)
        row = entry.bvp.ode_table[0]
        # every piece of piece 1's row, and no other, carries the shift
        assert [residuals[k] >= 1e-4 for k in range(len(row))] == [r == row[1] for r in row]

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


# The per-call reports: one PieceSolution.value call per order, per piece
# and per condition.  The reports evaluate every order a piece needs in one
# kernel pass; each entry must come out of the same IEEE operations.

def _residuals_per_call(sol, bvp, samples_per_piece=1000):
    n = bvp.order
    out = []
    for piece, psol in zip(bvp.pieces, sol.pieces):
        xs = np.linspace(piece.lo, piece.hi, samples_per_piece + 2)[1:-1]
        r = psol.value(xs, n) - piece.forcing_value(xs)
        for j, aj in enumerate(piece.coeffs):
            if aj != 0.0:
                r -= aj * psol.value(xs, j)
        out.append(float(np.abs(r).max()))
    return tuple(out)


def _jumps_per_call(sol, bvp):
    ends = [[psol.value(np.array(piece.interval), j)
             for piece, psol in zip(bvp.pieces, sol.pieces)]
            for j in range(bvp.order)]
    return tuple(JumpEntry(x, j, abs(ends[j][k][1] - ends[j][k + 1][0]),
                           j in bvp.continuity.enforced_orders)
                 for k, x in enumerate(bvp.interior_breakpoints)
                 for j in range(bvp.order))


def _conditions_per_call(sol, bvp):
    out = []
    for cond in bvp.conditions:
        k = bvp.owning_piece(cond.location, side="left")
        out.append(abs(sol.pieces[k].value(cond.location, cond.deriv_order) - cond.value))
    return tuple(out)


def _scale_per_call(sol, bvp):
    return 1.0 + max(
        float(np.abs(psol.value(np.linspace(piece.lo, piece.hi, 100))).max())
        for piece, psol in zip(bvp.pieces, sol.pieces))


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _assert_reports_bitwise(sol, bvp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(residual_report(sol, bvp)) == _bits(_residuals_per_call(sol, bvp))
        jumps, reference = continuity_report(sol, bvp), _jumps_per_call(sol, bvp)
        assert [(j.breakpoint, j.order, j.enforced) for j in jumps] == [
            (j.breakpoint, j.order, j.enforced) for j in reference]
        assert _bits([j.jump for j in jumps]) == _bits([j.jump for j in reference])
        misses, table = matching_values(sol, bvp)
        assert _bits(misses) == _bits(_conditions_per_call(sol, bvp))
        assert table.shape == (len(bvp.interior_breakpoints), bvp.order)
        assert _bits(table.ravel()) == _bits([j.jump for j in reference])
        assert _bits(condition_report(sol, bvp)) == _bits(_conditions_per_call(sol, bvp))
        assert _bits(solution_scale(sol, bvp)) == _bits(_scale_per_call(sol, bvp))


def _sixteen_region_obstacle():
    from obstacle_bvp.penalty import Obstacle, PenaltyProblem, reformulate
    rng = np.random.default_rng(7)
    cuts = np.linspace(0.0, math.pi, 17)
    contact = rng.permutation([True, False] * 8)
    regions = tuple(((cuts[k], cuts[k + 1]),
                     1.0 if contact[k] else float(rng.uniform(-2.0, 0.5)))
                    for k in range(16))
    return reformulate(PenaltyProblem(
        Obstacle(regions), force=0.7,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(math.pi, 0, 0.0))))


def _random_bvp(rng, order):
    """1-4 pieces with random coefficients (some zeroed), forcing of degree
    0-3 and conditions at both ends, at interior breakpoints and inside
    pieces, several of them on one piece."""
    n_pieces = int(rng.integers(1, 5))
    cuts = np.sort(rng.uniform(-1.0, 2.5, n_pieces - 1)).tolist()
    cuts = [-1.0] + cuts + [2.5]
    pieces = tuple(PieceOde(order, (cuts[k], cuts[k + 1]),
                            tuple(float(c) * (rng.random() > 0.3)
                                  for c in rng.uniform(-2.0, 2.0, order)),
                            tuple(float(q) for q in rng.uniform(-2.0, 2.0, rng.integers(1, 5))))
                   for k in range(n_pieces))
    where = [-1.0, 2.5] + cuts[1:-1] + rng.uniform(-1.0, 2.5, order).tolist()
    conditions = tuple(PointCondition(float(x), int(rng.integers(0, order)),
                                      float(rng.uniform(-1.0, 1.0)))
                       for x in rng.choice(where, order, replace=False))
    return PiecewiseBvp(order, pieces, conditions,
                        ContinuitySpec(frozenset(range(order))))


class TestReportsEqualPerCallReports:
    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry(self, ex_id):
        bvp = get_example(ex_id).bvp
        _assert_reports_bitwise(solve_exact(bvp), bvp)

    def test_sixteen_region_obstacle(self):
        bvp = _sixteen_region_obstacle()
        _assert_reports_bitwise(solve_exact(bvp), bvp)

    def test_perturbed_solution(self):
        entry = get_example("3.1.1")
        _assert_reports_bitwise(_perturb_particular(solve_exact(entry.bvp), 1, 1e-3),
                                entry.bvp)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_random_family(self, order):
        rng = np.random.default_rng(order)
        solved = 0
        for _ in range(40):
            bvp = _random_bvp(rng, order)
            try:
                sol = solve_exact(bvp)
            except SolveError:
                continue
            _assert_reports_bitwise(sol, bvp)
            solved += 1
        assert solved >= 20


class TestOnePassPerPiece:
    def _count(self, monkeypatch):
        """The orders of every PiecewiseSolution.evaluate call, one Horner
        pass over its points each."""
        import obstacle_bvp.exact as exact_module
        calls = []
        original = exact_module.PiecewiseSolution.evaluate

        def counted(self, x, owner, orders):
            calls.append(list(orders))
            return original(self, x, owner, orders)

        monkeypatch.setattr(exact_module.PiecewiseSolution, "evaluate", counted)
        return calls

    def test_residual_and_continuity(self, monkeypatch):
        bvp = get_example("3.1.2").bvp  # three pieces
        sol = solve_exact(bvp)
        calls = self._count(monkeypatch)
        residual_report(sol, bvp)
        assert len(calls) == 3
        assert [list(orders)[-1] for orders in calls] == [bvp.order] * 3
        # Both ends of every piece go through one evaluate call, one pass
        # whatever ODE each piece has.
        calls.clear()
        continuity_report(sol, bvp)
        assert [list(orders) for orders in calls] == [list(range(bvp.order))]

    def test_continuity_one_pass_per_ode_on_sixteen_pieces(self, monkeypatch):
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        assert len({p.coeffs + p.forcing for p in bvp.pieces}) == 2
        calls = self._count(monkeypatch)
        continuity_report(sol, bvp)
        assert [list(orders) for orders in calls] == [list(range(bvp.order))]

    def test_condition_report_one_pass_per_owning_piece(self, monkeypatch):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        conds = (PointCondition(-0.5, 0, 0.25), PointCondition(1.0, 0, 0.0),
                 PointCondition(0.5, 1, 0.0), PointCondition(-1.0, 0, 0.0),
                 PointCondition(0.5, 0, 0.0), PointCondition(-0.5, 1, -0.5))
        bvp = dataclasses.replace(entry.bvp, conditions=conds)
        calls = self._count(monkeypatch)
        condition_report(sol, bvp)
        assert len(calls) == 1  # owners 0, 1 and 2 in one pass

    @pytest.mark.parametrize("make_bvp, passes", [(lambda: get_example("3.1.2").bvp, 7),
                                                  (lambda: get_example("3.1.6").bvp, 7),
                                                  (_sixteen_region_obstacle, 33)])
    def test_verification_evaluates_conditions_and_jumps_once(self, monkeypatch,
                                                              make_bvp, passes):
        # One pass per piece for the residuals and for the scale, and one for
        # the conditions and jumps together.
        bvp = make_bvp()
        sol = solve_exact(bvp)
        calls = self._count(monkeypatch)
        verification_report(sol, bvp)
        assert len(calls) == passes

    def test_verification_builds_the_kernel_once_per_ode(self, monkeypatch):
        # The derivative table every pass reads is built once per solution,
        # and the closed forms, one per ODE, are not evaluated at all.
        import obstacle_bvp.exact as exact_module
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        assert len({p.coeffs + p.forcing for p in bvp.pieces}) == len(sol.forms) == 2
        built = []
        table = exact_module.PiecewiseSolution._derivatives
        monkeypatch.setattr(exact_module.PiecewiseSolution, "_derivatives", cached_property(
            lambda self: built.append(self) or table.func(self)))
        exact_module.PiecewiseSolution._derivatives.__set_name__(
            exact_module.PiecewiseSolution, "_derivatives")
        monkeypatch.setattr(exact_module, "basis_values", None)
        verification_report(sol, bvp)
        assert built == [sol]
