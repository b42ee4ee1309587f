import pytest

from obstacle_bvp.model import PointCondition, ProblemError
from obstacle_bvp.penalty import (Obstacle, PenaltyProblem, reformulate,
                                  standard_obstacle)

BCS = (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0))


class TestObstacle:
    def test_standard_regions(self):
        obs = standard_obstacle()
        assert [level for _, level in obs.regions] == [-1.0, 1.0, -1.0]
        assert obs.domain == (0.0, 1.0)

    def test_rejects_non_contiguous(self):
        with pytest.raises(ProblemError):
            Obstacle((((0.0, 0.25), -1.0), ((0.5, 1.0), 1.0)))

    def test_rejects_empty(self):
        with pytest.raises(ProblemError):
            Obstacle(())


class TestReformulate:
    def test_reproduces_string_system(self):
        bvp = reformulate(PenaltyProblem(standard_obstacle(), 2.0, BCS))
        assert len(bvp.pieces) == 3
        assert bvp.breakpoints == (0.0, 0.25, 0.75, 1.0)
        assert bvp.pieces[0].coeffs == (0.0, 0.0)
        assert bvp.pieces[0].forcing == (2.0,)
        assert bvp.pieces[1].coeffs == (1.0, 0.0)  # u'' = u + f - 1
        assert bvp.pieces[1].forcing == (1.0,)
        assert bvp.pieces[2] == bvp.pieces[0].__class__(
            2, (0.75, 1.0), (0.0, 0.0), (2.0,))
        assert bvp.conditions == BCS

    def test_single_free_region(self):
        obs = Obstacle((((0.0, 1.0), -1.0),))
        bvp = reformulate(PenaltyProblem(obs, 3.0, BCS))
        assert len(bvp.pieces) == 1
        assert bvp.pieces[0].coeffs == (0.0, 0.0)
        assert bvp.pieces[0].forcing == (3.0,)

    def test_zero_force_matches_first_example_family(self):
        bvp = reformulate(PenaltyProblem(standard_obstacle(), 0.0, BCS))
        assert bvp.pieces[1].coeffs == (1.0, 0.0)
        assert bvp.pieces[1].forcing == (-1.0,)  # u'' = u - 1
        assert bvp.pieces[0].forcing == (0.0,)   # u'' = 0

    def test_piece_count_matches_regions(self):
        obs = Obstacle((((0.0, 0.2), -1.0), ((0.2, 0.4), 1.0),
                        ((0.4, 0.6), -1.0), ((0.6, 1.0), 1.0)))
        bvp = reformulate(PenaltyProblem(obs, 1.0, BCS))
        assert len(bvp.pieces) == 4
        assert all(left.hi == right.lo for left, right in zip(bvp.pieces, bvp.pieces[1:]))

    def test_deterministic(self):
        p = PenaltyProblem(standard_obstacle(), 1.5, BCS)
        assert reformulate(p) == reformulate(p)
