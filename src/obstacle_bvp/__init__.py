"""Piecewise linear obstacle boundary-value problems: closed-form solutions
with an independent numeric shooting oracle."""

from .model import (ContinuitySpec, PieceOde, PiecewiseBvp, PinnedConstant,
                    PointCondition, ProblemError, build_fourth_order,
                    build_second_order, build_third_order, normalize_piece,
                    validate_bvp)
from .exact import (InconsistentSystemError, PiecewiseSolution,
                    RankDeficientError, eval_solution, solve_exact)
from .oracle import NumericSolution, sample, shooting_solve
from .penalty import Obstacle, PenaltyProblem, reformulate, standard_obstacle
from .verify import (ToleranceProfile, VerificationReport, compare_solutions,
                     verification_report)
from .examples import get_example, list_examples, reference_values

__all__ = [
    "ContinuitySpec", "PieceOde", "PiecewiseBvp", "PinnedConstant",
    "PointCondition", "ProblemError", "build_second_order",
    "build_third_order", "build_fourth_order", "normalize_piece",
    "validate_bvp", "InconsistentSystemError", "PiecewiseSolution",
    "RankDeficientError", "eval_solution", "solve_exact", "NumericSolution",
    "sample", "shooting_solve", "Obstacle", "PenaltyProblem",
    "reformulate", "standard_obstacle", "ToleranceProfile",
    "VerificationReport", "compare_solutions", "verification_report",
    "get_example", "list_examples", "reference_values",
]
