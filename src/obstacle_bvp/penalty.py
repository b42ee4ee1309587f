"""Penalty reformulation of the string-over-obstacle problem.

A piecewise-constant obstacle splits the domain into contact and free
regions; the discontinuous penalty multiplier turns the constrained problem
into a piecewise second-order ODE system: u'' = u + f - 1 where the string
touches the obstacle and u'' = f where it does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ContinuitySpec, PieceOde, PiecewiseBvp, PointCondition, ProblemError


@dataclass(frozen=True)
class Obstacle:
    """Piecewise-constant obstacle: contiguous (interval, level) regions."""

    regions: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self):
        object.__setattr__(self, "regions",
                           tuple(((float(lo), float(hi)), float(level))
                                 for (lo, hi), level in self.regions))
        if not self.regions:
            raise ProblemError("obstacle needs at least one region")
        for (lo, hi), level in self.regions:
            if not lo < hi:
                raise ProblemError(f"degenerate obstacle region ({lo}, {hi})")
            if not math.isfinite(level):
                raise ProblemError("obstacle levels must be finite")
        for (left, _), (right, _) in zip(self.regions, self.regions[1:]):
            if left[1] != right[0]:
                raise ProblemError(
                    f"obstacle regions not contiguous: {left} then {right}"
                )

    @property
    def domain(self) -> tuple[float, float]:
        return self.regions[0][0][0], self.regions[-1][0][1]


@dataclass(frozen=True)
class PenaltyProblem:
    """String equilibrium over an obstacle under a constant load."""

    obstacle: Obstacle
    force: float
    conditions: tuple[PointCondition, ...]

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if not math.isfinite(self.force):
            raise ProblemError("force must be finite")


def standard_obstacle() -> Obstacle:
    """The reference obstacle: levels -1, 1, -1 on [0, 1/4), [1/4, 3/4), [3/4, 1]."""
    return Obstacle((
        ((0.0, 0.25), -1.0),
        ((0.25, 0.75), 1.0),
        ((0.75, 1.0), -1.0),
    ))


def reformulate(problem: PenaltyProblem) -> PiecewiseBvp:
    """Emit one second-order piece per obstacle region.

    Regions at the contact level 1 get the coupled equation
    u'' = u + force - 1; all other regions get u'' = force.  Point conditions
    are copied through verbatim; continuity of u and u' is enforced at every
    region boundary.
    """
    f = float(problem.force)
    pieces = []
    for (lo, hi), level in problem.obstacle.regions:
        if level == 1.0:
            pieces.append(PieceOde(2, (lo, hi), (1.0, 0.0), (f - 1.0,)))
        else:
            pieces.append(PieceOde(2, (lo, hi), (0.0, 0.0), (f,)))
    return PiecewiseBvp(
        order=2,
        pieces=tuple(pieces),
        conditions=problem.conditions,
        continuity=ContinuitySpec(frozenset({0, 1})),
    )
