import math
import re
import struct
import types

import numpy as np
import pytest

import obstacle_bvp.exact as exact_module
import obstacle_bvp.model as model_module
from obstacle_bvp.basis import piece_basis
from obstacle_bvp.exact import solve_exact
from obstacle_bvp.examples import get_example
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PinnedConstant, PointCondition, ProblemError,
                                build_second_order, build_third_order,
                                normalize_piece, validate_bvp)


class TestNormalizePiece:
    def test_plain_sign(self):
        p = normalize_piece(1, [1.0], [-1.0], (0.25, 0.75), 2)
        assert p.coeffs == (1.0, 0.0)
        assert p.forcing == (-1.0,)

    def test_negative_leading_sign_negates(self):
        p = normalize_piece(-1, [1.0], [1.0], (0.0, math.pi / 4), 2)
        assert p.coeffs == (-1.0, 0.0)
        assert p.forcing == (-1.0,)

    def test_zero_equation(self):
        p = normalize_piece(1, [0.0], [0.0], (0.0, 1.0), 2)
        assert p.coeffs == (0.0, 0.0)
        assert p.forcing == (0.0,)

    @pytest.mark.parametrize("coeffs,forcing", [
        ([1.0, 2.0], [3.0, -1.0]),
        ([0.5], [0.0, 0.0, 2.0]),
        ([-2.0, 0.25], [1.0]),
    ])
    def test_sign_flip_equivalence(self, coeffs, forcing):
        a = normalize_piece(-1, coeffs, forcing, (0.0, 1.0), 2)
        b = normalize_piece(1, [-c for c in coeffs], [-q for q in forcing],
                            (0.0, 1.0), 2)
        assert a == b

    def test_rejects_bad_order(self):
        with pytest.raises(ProblemError):
            normalize_piece(1, [0.0], [0.0], (0.0, 1.0), 5)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ProblemError):
            normalize_piece(1, [0.0], [0.0], (1.0, 1.0), 2)

    def test_rejects_bad_sign(self):
        with pytest.raises(ProblemError):
            normalize_piece(2, [0.0], [0.0], (0.0, 1.0), 2)


class TestBuilders:
    def test_second_order_matches_first_example(self):
        bvp = build_second_order(
            g=0.0, f=1.0, r=-1.0, a=-1.0, c=-0.5, d=0.5, b=1.0,
            conditions=(PointCondition(-1.0, 0, 0.0), PointCondition(1.0, 0, 0.0)),
        )
        assert [p.interval for p in bvp.pieces] == [(-1.0, -0.5), (-0.5, 0.5), (0.5, 1.0)]
        assert bvp.pieces[0].coeffs == (0.0, 0.0)
        assert bvp.pieces[1].coeffs == (1.0, 0.0)
        assert bvp.pieces[1].forcing == (-1.0,)
        assert bvp.continuity.enforced_orders == frozenset({0, 1})

    def test_middle_piece_round_trip(self):
        bvp = build_second_order(
            g=(0.0, 1.0), f=2.5, r=-0.5, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(),
        )
        middle = bvp.pieces[1]
        assert middle.coeffs == (2.5, 0.0)
        assert middle.forcing == (-0.5, 1.0)  # g + r folded into q0
        assert bvp.pieces[0].forcing == (0.0, 1.0)

    def test_derivative_coupling_folds_into_coeffs(self):
        bvp = build_second_order(
            g=-2.0, f=1.0, r=-1.0, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(), coupling={1: 1.0},
        )
        assert bvp.pieces[0].coeffs == (0.0, 1.0)
        assert bvp.pieces[1].coeffs == (1.0, 1.0)
        assert bvp.pieces[1].forcing == (-3.0,)

    def test_breakpoint_ordering_enforced(self):
        with pytest.raises(ProblemError):
            build_second_order(0.0, 1.0, -1.0, a=0.0, c=0.75, d=0.25, b=1.0,
                               conditions=())

    def test_zero_problem(self):
        bvp = build_second_order(0.0, 0.0, 0.0, a=0.0, c=0.3, d=0.6, b=1.0,
                                 conditions=(PointCondition(0.0, 0, 0.0),
                                             PointCondition(1.0, 0, 0.0)))
        assert all(p.coeffs == (0.0, 0.0) for p in bvp.pieces)
        assert all(p.forcing == (0.0,) for p in bvp.pieces)


class TestPiecewiseBvp:
    def test_rejects_non_contiguous_pieces(self):
        pieces = (PieceOde(2, (0.0, 0.4), (0.0, 0.0), (0.0,)),
                  PieceOde(2, (0.5, 1.0), (0.0, 0.0), (0.0,)))
        with pytest.raises(ProblemError):
            PiecewiseBvp(2, pieces, (), ContinuitySpec(frozenset({0, 1})))

    def test_rejects_mixed_orders(self):
        pieces = (PieceOde(2, (0.0, 0.5), (0.0, 0.0), (0.0,)),
                  PieceOde(3, (0.5, 1.0), (0.0, 0.0, 0.0), (0.0,)))
        with pytest.raises(ProblemError):
            PiecewiseBvp(2, pieces, (), ContinuitySpec(frozenset({0})))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        with pytest.raises(ProblemError, match="non-finite"):
            PieceOde(2, (0.0, 1.0), (bad, 0.0), (0.0,))
        with pytest.raises(ProblemError, match="non-finite"):
            PieceOde(2, (0.0, 1.0), (0.0, 0.0), (1.0, bad))
        with pytest.raises(ProblemError, match="non-finite"):
            normalize_piece(-1, [bad], [1.0], (0.0, 1.0), 2)
        with pytest.raises(ProblemError, match="non-finite"):
            PointCondition(0.0, 0, bad)
        with pytest.raises(ProblemError, match="non-finite"):
            PinnedConstant(0, 0, bad)

    def test_rejects_condition_outside_domain(self):
        with pytest.raises(ProblemError):
            build_second_order(0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
                               conditions=(PointCondition(2.0, 0, 0.0),))

    def test_owning_piece_sides(self):
        bvp = build_second_order(0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
                                 conditions=())
        assert bvp.owning_piece(0.25, side="right") == 1
        assert bvp.owning_piece(0.25, side="left") == 0
        assert bvp.owning_piece(0.0) == 0
        assert bvp.owning_piece(1.0) == 2
        xs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        for side in ("left", "right"):
            assert bvp.owning_piece(xs, side=side).tolist() == [
                bvp.owning_piece(x, side=side) for x in xs]
        with pytest.raises(ProblemError):
            bvp.owning_piece([0.0, 0.5, 1.5])

    @pytest.mark.parametrize("x, shown", [(math.nan, "nan"), ([0.0, math.nan], "nan"),
                                          (math.inf, "inf"), (-math.inf, "-inf")])
    def test_owning_piece_refuses_non_finite_points(self, x, shown):
        bvp = get_example("3.1.1").bvp
        with pytest.raises(ProblemError, match=re.escape(
                f"x = {shown} outside domain [-1.0, 1.0]")):
            bvp.owning_piece(x)

    def test_owning_piece_keeps_the_shape_of_empty_and_scalar_points(self):
        bvp = get_example("3.1.1").bvp
        empty = bvp.owning_piece(np.array([]))
        assert empty.shape == (0,) and empty.dtype.kind == "i"
        scalar = bvp.owning_piece(np.array(0.0))
        assert np.ndim(scalar) == 0 and scalar == 1


def _chain(*odes):
    """An order-2 problem whose piece k on [k, k + 1] has the ODE odes[k], a
    (coeffs, forcing) pair, with u = 0 and u = 1 at its two ends."""
    pieces = tuple(PieceOde(2, (float(k), k + 1.0), coeffs, forcing)
                   for k, (coeffs, forcing) in enumerate(odes))
    return PiecewiseBvp(2, pieces, (PointCondition(0.0, 0, 0.0),
                                    PointCondition(float(len(odes)), 0, 1.0)),
                        ContinuitySpec(frozenset({0, 1})))


FREE, CONTACT, SPRING = ((0.0, 0.0), (0.7,)), ((1.0, 0.0), (0.7,)), ((-2.0, 0.5), (1.0,))


class TestOdeTable:
    def test_rows_come_in_first_seen_order(self):
        assert _chain(SPRING, FREE, SPRING, CONTACT, FREE).ode_table == (
            (0, 1, 0, 2, 1), (0, 1, 3))

    def test_non_adjacent_twins_share_a_row(self):
        bvp = _chain(FREE, CONTACT, CONTACT, FREE, CONTACT)
        assert bvp.ode_table == ((0, 1, 1, 0, 1), (0, 1))

    def test_negative_zero_coefficient_is_a_distinct_ode(self, monkeypatch):
        # (0.0, 0.0) == (-0.0, 0.0) in Python; their bits differ, and so may
        # the results computed from them.
        bvp = _chain(((0.0, 0.0), (1.0,)), ((-0.0, 0.0), (1.0,)))
        assert bvp.ode_table == ((0, 1), (0, 1))
        calls = []
        monkeypatch.setattr(exact_module, "piece_basis",
                            lambda odes: calls.append(len(odes)) or piece_basis(odes))
        solve_exact(bvp).constants
        assert calls == [2]

    def test_trailing_zero_forcing_is_a_distinct_ode(self):
        bvp = _chain(((0.0, 0.0), (1.0,)), ((0.0, 0.0), (1.0, 0.0)))
        assert bvp.ode_table == ((0, 1), (0, 1))

    def test_a_second_solve_does_not_rebuild_the_table(self, monkeypatch):
        keys = []  # one key per piece each time the table is built
        monkeypatch.setattr(model_module, "struct", types.SimpleNamespace(
            pack=lambda *args: keys.append(args) or struct.pack(*args)))
        bvp = _chain(FREE, CONTACT, FREE)
        assert keys == []  # built on first read, not by the constructor
        solve_exact(bvp)
        table = bvp.ode_table
        assert len(keys) == 3
        solve_exact(bvp)
        assert len(keys) == 3 and bvp.ode_table is table


class TestValidateBvp:
    def test_square_first_example(self):
        bvp = build_second_order(0.0, 1.0, -1.0, a=-1.0, c=-0.5, d=0.5, b=1.0,
                                 conditions=(PointCondition(-1.0, 0, 0.0),
                                             PointCondition(1.0, 0, 0.0)))
        diag = validate_bvp(bvp)
        assert (diag.n_unknowns, diag.n_equations) == (6, 6)
        assert diag.determinacy == "square"

    def test_third_order_underdetermined_without_pin(self):
        bvp = build_third_order(
            0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0),
                        PointCondition(0.25, 1, 0.0), PointCondition(0.75, 1, 0.0)),
        )
        diag = validate_bvp(bvp)
        assert (diag.n_unknowns, diag.n_equations) == (9, 8)
        assert diag.determinacy == "underdetermined"

    def test_string_system_overdetermined(self):
        bvp = build_second_order(
            0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                        PointCondition(1.0, 1, 0.0)),
        )
        diag = validate_bvp(bvp)
        assert (diag.n_unknowns, diag.n_equations) == (6, 7)
        assert diag.determinacy == "overdetermined"

    def test_equation_count_formula(self):
        bvp = build_second_order(0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
                                 conditions=(PointCondition(0.0, 0, 0.0),))
        diag = validate_bvp(bvp)
        expected = len(bvp.conditions) + len(bvp.continuity.enforced_orders) * (len(bvp.pieces) - 1)
        assert diag.n_equations == expected
        assert diag.n_unknowns == bvp.order * len(bvp.pieces)
