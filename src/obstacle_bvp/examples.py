"""Built-in registry of worked obstacle problems.

Each entry carries a fully built problem (breakpoints, conditions,
continuity reading, pins) and, where the published closed form is simple
enough to trust, a reference evaluator with its named constants.  Entries
whose printed solutions are internally inconsistent are flagged and excluded
from oracle cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .model import (ContinuitySpec, PiecewiseBvp, PinnedConstant,
                    PointCondition, ProblemError, build_second_order,
                    build_third_order, normalize_piece)
from .penalty import PenaltyProblem, reformulate, standard_obstacle

E = math.e
PI = math.pi


@dataclass(frozen=True)
class ExampleEntry:
    id: str
    description: str
    bvp: PiecewiseBvp
    reference: Callable[[float], float] | None = None
    reference_constants: tuple[tuple[str, float], ...] = ()
    flags: tuple[str, ...] = ()
    notes: str = ""

    @property
    def has_reference(self) -> bool:
        return self.reference is not None

    @property
    def oracle_comparable(self) -> bool:
        return "printed-solution-inconsistent" not in self.flags


def _entry_311() -> ExampleEntry:
    bvp = build_second_order(
        g=0.0, f=1.0, r=-1.0, a=-1.0, c=-0.5, d=0.5, b=1.0,
        conditions=(PointCondition(-1.0, 0, 0.0), PointCondition(1.0, 0, 0.0)),
    )
    a1 = 2.0 * (E - 1.0) / (1.0 + 3.0 * E)
    a23 = -2.0 * math.sqrt(E) / (1.0 + 3.0 * E)

    def ref(x: float) -> float:
        if x < -0.5:
            return a1 * (1.0 + x)
        if x < 0.5:
            return 1.0 - 4.0 * math.sqrt(E) * math.cosh(x) / (1.0 + 3.0 * E)
        return a1 * (1.0 - x)

    return ExampleEntry(
        "3.1.1",
        "2nd order, g=0, f=1, r=-1 on (-1, -1/2, 1/2, 1), u(+-1)=0",
        bvp, ref,
        (("a1", a1), ("a2", a23), ("a3", a23), ("a4", a1)),
    )


def _entry_312() -> ExampleEntry:
    bvp = build_second_order(
        g=(0.0, 1.0), f=1.0, r=-1.0, a=0.0, c=0.25, d=0.75, b=1.0,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0)),
    )
    den = -9.0 + 25.0 * E
    slope = -(-2049.0 + 80.0 * math.sqrt(E) + 545.0 * E) / (96.0 * den)
    third_c = (933.0 + 3088.0 * math.sqrt(E) - 2725.0 * E) / (-144.0 + 400.0 * E)

    def ref(x: float) -> float:
        if x < 0.25:
            return slope * x + x ** 3 / 6.0
        if x < 0.75:
            return 1.0 - x + math.exp(-0.25 - x) * (
                15.0 * E - 965.0 * E ** 1.5
                + 579.0 * math.exp(2.0 * x) - 25.0 * math.exp(0.5 + 2.0 * x)
            ) / (48.0 * den)
        return (x - 1.0) * (third_c + x + x * x) / 6.0

    return ExampleEntry(
        "3.1.2",
        "2nd order, g=x, f=1, r=-1 on (0, 1/4, 3/4, 1), u(0)=u(1)=0",
        bvp, ref,
        (("first-piece slope", slope), ("third-piece constant", third_c)),
        notes="published middle-branch prefactor read as exp(-1/4 - x)",
    )


def _entry_313() -> ExampleEntry:
    bvp = build_second_order(
        g=-2.0, f=1.0, r=-1.0, a=0.0, c=0.25, d=0.75, b=1.0,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0)),
        coupling={1: 1.0},
    )
    return ExampleEntry(
        "3.1.3",
        "2nd order with u' coupling: u''=u'-2 outside, u''=u+u'-3 inside",
        bvp,
        notes="published constants are elaborate radicals; compared informationally only",
    )


def _entry_314() -> ExampleEntry:
    bvp = build_second_order(
        g=0.0, f=1.0, r=-1.0, a=0.0, c=PI / 4.0, d=3.0 * PI / 4.0, b=PI,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(PI, 0, 0.0)),
    )
    a1 = 4.0 / (PI + 4.0 / math.tanh(PI / 4.0))
    den = 4.0 - PI + math.exp(PI / 2.0) * (4.0 + PI)
    a2 = -4.0 * math.exp(-PI / 4.0) / den
    a3 = -4.0 * math.exp(3.0 * PI / 4.0) / den
    a4 = PI * a1

    def ref(x: float) -> float:
        if x < PI / 4.0:
            return a1 * x
        if x < 3.0 * PI / 4.0:
            return 1.0 + a2 * math.exp(x) + a3 * math.exp(-x)
        return a4 * (PI - x) / PI

    return ExampleEntry(
        "3.1.4",
        "2nd order, g=0, f=1, r=-1 on (0, pi/4, 3pi/4, pi), u(0)=u(pi)=0",
        bvp, ref,
        (("a1", a1), ("a2", a2), ("a3", a3), ("a4", a4)),
        notes="boundary condition printed as u(1)=0 but the closed form vanishes at pi",
    )


def _entry_315() -> ExampleEntry:
    # Leading sign -1 throughout; g = u + 1 couples u into every branch:
    # outer -u'' = u + 1, middle -u'' = u + (u + 1) - 1 = 2u.
    pieces = (
        normalize_piece(-1, [1.0], [1.0], (0.0, PI / 4.0), 2),
        normalize_piece(-1, [2.0], [0.0], (PI / 4.0, 3.0 * PI / 4.0), 2),
        normalize_piece(-1, [1.0], [1.0], (3.0 * PI / 4.0, PI), 2),
    )
    bvp = PiecewiseBvp(
        order=2,
        pieces=pieces,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(PI, 0, 0.0)),
        continuity=ContinuitySpec(frozenset({0, 1})),
    )
    return ExampleEntry(
        "3.1.5",
        "2nd order with leading sign -1 and g = u + 1",
        bvp,
        flags=("printed-solution-inconsistent",),
        notes=(
            "the published middle branch is affine, which cannot solve a "
            "u-coupled second-order equation; with k = p the branch collapses "
            "to a constant. Included to exercise the leading-sign path; "
            "excluded from oracle comparison."
        ),
    )


def _third_order_entry(ex_id: str, g, r: float, description: str,
                       notes: str) -> ExampleEntry:
    """A third-order entry on (0, 1/4, 3/4, 1) with f = 1, u = 0 at both ends,
    u' = 0 at both interior breakpoints and the third piece's constant
    basis coefficient pinned to 1."""
    bvp = build_third_order(
        g=g, f=1.0, r=r, a=0.0, c=0.25, d=0.75, b=1.0,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0),
                    PointCondition(0.25, 1, 0.0), PointCondition(0.75, 1, 0.0)),
        pins=(PinnedConstant(2, 0, 1.0),),
    )
    return ExampleEntry(ex_id, description, bvp, notes=notes)


def eq11_printed_bvp() -> PiecewiseBvp:
    """The string system with all three stated conditions (overdetermined)."""
    problem = PenaltyProblem(
        obstacle=standard_obstacle(),
        force=1.0,
        conditions=(PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                    PointCondition(1.0, 1, 0.0)),
    )
    return reformulate(problem)


def _entry_eq11() -> ExampleEntry:
    printed = eq11_printed_bvp()
    return ExampleEntry(
        "eq11",
        "penalty reformulation of the string-over-obstacle system, force=1",
        replace(printed, conditions=printed.conditions[:2]),
        notes=(
            "the source states a third condition u'(1)=0, which makes the "
            "second-order system overdetermined and inconsistent; the entry "
            "keeps the consistent pair u(0)=0, u'(0)=0 "
            "(see eq11_printed_bvp for the verbatim version)"
        ),
    )


_BUILDERS = {
    "3.1.1": _entry_311,
    "3.1.2": _entry_312,
    "3.1.3": _entry_313,
    "3.1.4": _entry_314,
    "3.1.5": _entry_315,
    "3.1.6": partial(
        _third_order_entry, "3.1.6", 0.0, -1.0,
        "3rd order, g=0, f=1, r=-1; u' and u'' matched, constant pinned to 1",
        "the matching system has nullity 1 without the pin; the pinned "
        "constant is the third piece's constant basis coefficient"),
    "3.1.7": partial(
        _third_order_entry, "3.1.7", 2.0, 1.0,
        "3rd order, g=2, f=1, r=1; u' and u'' matched, constant pinned to 1",
        "published constant blocks are informational (transcription risk)"),
    "3.1.8": partial(
        _third_order_entry, "3.1.8", (0.0, 1.0), -1.0,
        "3rd order, g=x, f=1, r=-1; u' and u'' matched, constant pinned to 1",
        "published constant blocks are informational (transcription risk)"),
    "eq11": _entry_eq11,
}

EXAMPLE_IDS = tuple(_BUILDERS)


def get_example(example_id: str) -> ExampleEntry:
    try:
        return _BUILDERS[example_id]()
    except KeyError:
        raise ProblemError(
            f"unknown example id {example_id!r}; known: {', '.join(EXAMPLE_IDS)}"
        ) from None


def reference_values(example_id: str, xs) -> np.ndarray:
    """Evaluate an entry's published closed form on a vector of points."""
    entry = get_example(example_id)
    if entry.reference is None:
        raise ProblemError(f"example {example_id!r} carries no reference closed form")
    return np.array([entry.reference(float(x)) for x in np.atleast_1d(xs)])


def list_examples() -> list[tuple[str, str]]:
    """Deterministically ordered (id, description) pairs, with flags appended."""
    out = []
    for ex_id in EXAMPLE_IDS:
        entry = get_example(ex_id)
        desc = entry.description
        if entry.flags:
            desc += f"  [flags: {', '.join(entry.flags)}]"
        if entry.has_reference:
            desc += "  [reference]"
        out.append((ex_id, desc))
    return out
