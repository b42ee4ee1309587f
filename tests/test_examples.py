import dataclasses
import math

import numpy as np
import pytest

from obstacle_bvp.exact import eval_solution, solve_exact
from obstacle_bvp.examples import (EXAMPLE_IDS, eq11_printed_bvp, get_example,
                                   list_examples, reference_values)
from obstacle_bvp.exact import InconsistentSystemError
from obstacle_bvp.model import ProblemError
from obstacle_bvp.oracle import shooting_solve
from obstacle_bvp.verify import pin_anchors, verification_report


class TestRegistry:
    def test_nine_entries(self):
        assert len(list_examples()) == 9
        assert [ex_id for ex_id, _ in list_examples()] == list(EXAMPLE_IDS)

    def test_unknown_id(self):
        with pytest.raises(ProblemError):
            get_example("9.9.9")

    def test_first_example_shape(self):
        entry = get_example("3.1.1")
        assert entry.bvp.order == 2
        assert entry.bvp.breakpoints == (-1.0, -0.5, 0.5, 1.0)
        assert entry.has_reference

    def test_third_order_entry(self):
        entry = get_example("3.1.6")
        assert entry.bvp.order == 3
        assert len(entry.bvp.conditions) == 4
        assert entry.bvp.pins[0].value == 1.0
        assert entry.bvp.continuity.enforced_orders == frozenset({1, 2})

    def test_flagged_entry(self):
        entry = get_example("3.1.5")
        assert "printed-solution-inconsistent" in entry.flags
        assert not entry.oracle_comparable
        # leading sign -1 already folded in: outer pieces read u'' = -u - 1
        assert entry.bvp.pieces[0].coeffs == (-1.0, 0.0)
        assert entry.bvp.pieces[0].forcing == (-1.0,)
        listed = dict(list_examples())
        assert "printed-solution-inconsistent" in listed["3.1.5"]

    def test_eq11_is_penalty_reformulation(self):
        entry = get_example("eq11")
        assert entry.bvp.breakpoints == (0.0, 0.25, 0.75, 1.0)
        assert entry.bvp.pieces[1].coeffs == (1.0, 0.0)

    def test_eq11_printed_version_is_inconsistent(self):
        with pytest.raises(InconsistentSystemError):
            solve_exact(eq11_printed_bvp())

    def test_all_bvps_contiguous(self):
        for ex_id in EXAMPLE_IDS:
            pieces = get_example(ex_id).bvp.pieces
            assert all(left.hi == right.lo for left, right in zip(pieces, pieces[1:]))


class TestReferenceValues:
    @pytest.mark.parametrize("ex_id", ["3.1.1", "3.1.2", "3.1.4"])
    def test_solver_matches_reference_grid(self, ex_id):
        entry = get_example(ex_id)
        sol = solve_exact(entry.bvp)
        a, b = entry.bvp.domain
        xs = np.linspace(a, b, 101)
        refs = reference_values(ex_id, xs)
        got = np.array([eval_solution(sol, entry.bvp, float(x)) for x in xs])
        assert np.abs(got - refs).max() <= 1e-9

    def test_point_values(self):
        E = math.e
        assert reference_values("3.1.1", [-0.75])[0] == pytest.approx(
            2.0 * (E - 1.0) * 0.25 / (1.0 + 3.0 * E))
        assert reference_values("3.1.2", [0.0])[0] == 0.0
        a1 = 4.0 / (math.pi + 4.0 / math.tanh(math.pi / 4.0))
        x = math.pi / 4.0 - 1e-9
        assert reference_values("3.1.4", [x])[0] == pytest.approx(a1 * x)

    def test_id_without_reference(self):
        with pytest.raises(ProblemError):
            reference_values("3.1.3", [0.5])


class TestRegistryVerification:
    @pytest.mark.parametrize("ex_id", ["3.1.6", "3.1.7", "3.1.8"])
    def test_pinned_entries_pass_all_checks(self, ex_id):
        entry = get_example(ex_id)
        sol = solve_exact(entry.bvp)
        anchored = dataclasses.replace(
            entry.bvp, pins=(), conditions=entry.bvp.conditions + pin_anchors(sol, entry.bvp))
        numeric = shooting_solve(anchored, 1e-3)
        report = verification_report(sol, entry.bvp, numeric)
        assert report.passed
        assert report.oracle_delta <= 1e-6

    def test_every_entry_solves_and_verifies(self):
        for ex_id in EXAMPLE_IDS:
            entry = get_example(ex_id)
            sol = solve_exact(entry.bvp)
            assert verification_report(sol, entry.bvp).passed, ex_id
