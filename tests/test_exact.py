import cmath
import dataclasses
import math
import re
import warnings
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from obstacle_bvp.basis import MAX_ORDER, RootFindingError, piece_basis
import obstacle_bvp.exact as exact_module
from obstacle_bvp.exact import (CONSISTENCY_TOL, ClosedForm, InconsistentSystemError,
                                MatchSystem, RankDeficientError, SolveError,
                                assemble_system, eval_solution, gauss_solve,
                                particular_solution, residual_norm, solve_exact)
from obstacle_bvp.examples import EXAMPLE_IDS, get_example
from obstacle_bvp.oracle import shooting_solve
from obstacle_bvp.verify import pin_anchors, verification_report
from obstacle_bvp.model import (ContinuitySpec, PieceOde, PiecewiseBvp,
                                PinnedConstant, PointCondition, ProblemError,
                                build_fourth_order, build_second_order,
                                build_third_order)
from kernel import (basis_derivatives, frozen_particular_solution, frozen_piece_basis,
                    frozen_real_basis)

E = math.e


def _bare(matrix, rhs, order, bvp=None, extents=None):
    """A bare matching system with its bands, as gauss_solve takes it: row
    i's band spans extents[i] = (first, stop), by default its first to its
    last nonzero, and reads -0.0 as +0.0."""
    matrix = np.asarray(matrix, dtype=float)
    bands = []
    for i, row in enumerate(matrix):
        nonzero = np.flatnonzero(row)
        first, stop = (extents[i] if extents is not None
                       else (nonzero[0], nonzero[-1] + 1) if len(nonzero) else (0, 0))
        bands.append((int(first), (row[first:stop] + 0.0).tolist()))
    return MatchSystem(bands, np.asarray(rhs, dtype=float), matrix.shape[1], order, bvp)


def _densify(bands, n):
    """The m x n matrix whose rows are bands."""
    matrix = np.zeros((len(bands), n))
    for i, (first, band) in enumerate(bands):
        matrix[i, first:first + len(band)] = band
    return matrix


def _echelon(system):
    """The banded elimination's augmented echelon as a dense array, and its
    pivot columns."""
    n = system.width
    bands, b, pivots = exact_module._echelon(system.bands, system.rhs, n)
    return np.column_stack([_densify(bands, n), b]), pivots


def _dense_as_bands(matrix, rhs, n):
    """_dense_echelon's result in _echelon's form: full-width bands."""
    aug, pivots = _dense_echelon(matrix, rhs)
    return [(0, row) for row in aug[:, :n].tolist()], aug[:, n].tolist(), pivots


def _row_odes(bvp):
    """One-ODE basis and particular calls, one of each per row of the
    problem's ODE table."""
    odes = [bvp.pieces[k] for k in bvp.ode_table[1]]
    return [piece_basis([p])[0] for p in odes], [particular_solution([p])[0] for p in odes]


def _system_for(bvp):
    """The problem's matching system, its pin rows' closed forms from
    one-ODE basis and particular calls per row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_module, "piece_basis", lambda odes: [piece_basis([p])[0] for p in odes])
        patch.setattr(exact_module, "particular_solution",
                      lambda odes: [particular_solution([p])[0] for p in odes])
        return assemble_system(bvp)



def _reference_system(bvp, bases, particulars):
    """Row-by-row assembly from the problem's segment tables, each row from
    its own segment alone: a condition from its table at its point, a
    continuity or joint row from its left table's end and its right datum,
    a pin from its piece's inverse Wronskian row.  Rows in the layout's
    order, with their labels; the same formulas as the array assembly, each
    evaluated on one row."""
    seg = exact_module._segments(bvp)
    n, size, binomial = bvp.order, seg.tables.shape[1], exact_module._BINOMIAL
    powers = exact_module.powers
    width = n * len(seg.h)
    rows, rhs, labels = [], [], []

    def continuity(g, i):
        mu = min(seg.scale[g], seg.scale[g + 1])
        end = (binomial[:size, :n].T @ seg.tables[g])[i] * powers(mu / seg.h[g], n)[i]
        row = np.zeros(width)
        row[g * n:g * n + n] = end[:n]
        row[(g + 1) * n + i] = -powers(mu / seg.scale[g + 1], n)[i]
        return row, -end[n]

    for cond in bvp.conditions:
        k = int(bvp.owning_piece(cond.location, side="left"))
        g, s = seg.locate(np.array([cond.location]), np.array([k]))
        g, d = int(g[0]), cond.deriv_order
        weights = (binomial[:size, d] * powers(seg.scale[g] / seg.h[g], n)[d]
                   * powers(s[0], size)[np.maximum(np.arange(size) - d, 0)])
        at = (weights[:, None] * seg.tables[g]).sum(0)
        row = np.zeros(width)
        row[g * n:g * n + n] = at[:n]
        rows.append(row)
        rhs.append(cond.value * powers(seg.scale[g], n)[d] / math.factorial(d) - at[n])
        labels.append(f"u^({d})({cond.location:g}) = {cond.value:g}")
    for k, x in enumerate(bvp.interior_breakpoints):
        for j in bvp.continuity.sorted_orders:
            row, value = continuity(seg.first[k + 1] - 1, j)
            rows.append(row)
            rhs.append(value)
            labels.append(f"continuity order {j} at x = {x:g}")
    forms = tuple(map(ClosedForm, bases, particulars))
    for pin in bvp.pins:
        k, g = pin.piece_index, seg.first[pin.piece_index]
        w, p = exact_module._closed_form_at_lo(bvp, forms, [k])
        inverse = np.linalg.solve(w, np.eye(n)[None])[0, pin.basis_index]
        row = np.zeros(width)
        entries = inverse * [math.factorial(j) / powers(seg.scale[g], n)[j] for j in range(n)]
        top = np.abs(entries).max()
        row[g * n:g * n + n] = entries / top
        rows.append(row)
        rhs.append((pin.value + (inverse * p[0]).sum()) / top)
        labels.append(f"pin (piece {pin.piece_index}, basis {pin.basis_index})"
                      f" = {pin.value:g}")
    for k in range(len(bvp.pieces)):
        for g in range(seg.first[k], seg.first[k + 1] - 1):
            for j in range(n):
                row, value = continuity(g, j)
                rows.append(row)
                rhs.append(value)
                labels.append(f"segment joint order {j} at x = {seg.lo[g + 1]:g}")
    return np.array(rows).reshape(-1, width), np.array(rhs), tuple(labels)


# Characteristic roots per order: repeated, complex and zero.
_ROOT_FAMILIES = {
    2: ([0.7, 0.7], [-0.4 + 1.8j, -0.4 - 1.8j], [0.0, 0.0], [0.0, -1.1]),
    3: ([-1.0, -1.0, 0.6], [0.3 + 1.2j, 0.3 - 1.2j, -0.9], [0.0, 0.0, 1.4],
        [0.0, 0.0, 0.0]),
    4: ([0.5 + 1.0j, 0.5 - 1.0j, 0.5 + 1.0j, 0.5 - 1.0j], [0.0, 0.0, 1j, -1j],
        [-0.8, -0.8, 1.2, 0.4], [0.0, 0.0, 0.0, 0.0]),
}


def _mixed_bvp(order, n_pieces, continuity=None, conditions=None):
    """Pieces on [-0.5, 2.5] cycling through the order's root families, with
    forcing polynomials of degree 0 to 3."""
    cuts = np.linspace(-0.5, 2.5, n_pieces + 1).tolist()
    families = _ROOT_FAMILIES[order]
    pieces = []
    for k in range(n_pieces):
        monic = np.real(np.poly(families[k % len(families)]))[::-1]
        forcing = tuple(0.5 - 0.3 * i + 0.1 * k for i in range(k % 4 + 1))
        pieces.append(PieceOde(order, (cuts[k], cuts[k + 1]),
                               tuple(float(-c) for c in monic[:-1]), forcing))
    if conditions is None:
        conditions = ([PointCondition(cuts[0], j, 1.0 - j) for j in range((order + 1) // 2)]
                      + [PointCondition(cuts[-1], j, 0.5) for j in range(order // 2)])
    if continuity is None:
        continuity = set(range(order))
    return PiecewiseBvp(order, tuple(pieces), tuple(conditions),
                        ContinuitySpec(frozenset(continuity)))

class TestParticularSolution:
    def test_constant_forcing_with_coupling(self):
        piece = PieceOde(2, (0.25, 0.75), (1.0, 0.0), (-1.0,))  # u'' = u - 1
        assert particular_solution([piece])[0] == (1.0,)

    def test_resonant_monomial(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0, 1.0))  # u'' = x
        assert particular_solution([piece])[0] == pytest.approx((0.0, 0.0, 0.0, 1.0 / 6.0))

    def test_third_order_linear_forcing(self):
        piece = PieceOde(3, (0.25, 0.75), (1.0, 0.0, 0.0), (-1.0, 1.0))  # u''' = u + x - 1
        assert particular_solution([piece])[0] == pytest.approx((1.0, -1.0))

    def test_quartic_resonance(self):
        piece = PieceOde(3, (0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0))  # u''' = x
        assert particular_solution([piece])[0] == pytest.approx((0.0, 0.0, 0.0, 0.0, 1.0 / 24.0))

    def test_overflowing_ansatz_says_so(self):
        # u'' = 1e-300 u + x^6: t_6 = -1e300, and t_4 = -30e600 overflows, so
        # the identity check reads nan; the message names the overflow.
        piece = PieceOde(2, (0.0, 1.0), (1e-300, 0.0), (0.0,) * 6 + (1.0,))
        with pytest.raises(SolveError) as exc:
            particular_solution([piece])
        assert str(exc.value) == ("particular ansatz failed on (0.0, 1.0): "
                                  "the ansatz's coefficients overflow")

    def test_failed_ansatz_raises(self):
        # a_0 = 1e-200 makes the ansatz solve overflow; the identity check is
        # an explicit error, so it still fires under python -O.
        piece = PieceOde(2, (0.0, 1.0), (1e-200, 0.0), (1.0,) * 7)
        with np.errstate(all="ignore"):
            with pytest.raises(SolveError, match="particular ansatz failed"):
                particular_solution([piece])[0]

    def test_identity_holds_for_random_pieces(self):
        rng = np.random.default_rng(3)
        poly = np.polynomial.polynomial
        for _ in range(100):
            order = int(rng.integers(2, 5))
            coeffs = tuple(np.where(rng.random(order) < 0.3, 0.0,
                                    rng.uniform(-3, 3, order)))
            forcing = tuple(rng.uniform(-2, 2, int(rng.integers(1, 4))))
            piece = PieceOde(order, (0.0, 1.0), coeffs, forcing)
            up = particular_solution([piece])[0]
            for x in np.linspace(-1.0, 1.0, 7):
                lhs = poly.polyval(x, poly.polyder(up, order))
                for j, aj in enumerate(coeffs):
                    lhs -= aj * poly.polyval(x, poly.polyder(up, j) if j else up)
                assert lhs == pytest.approx(piece.forcing_value(x), abs=1e-9)


class TestAssembleSystem:
    def test_first_example_is_square(self):
        system = _system_for(get_example("3.1.1").bvp)
        assert (len(system.bands), len(system.rhs), system.width) == (6, 6, 6)
        assert system.order == 2

    def test_third_order_without_pin(self):
        bvp = build_third_order(
            0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
            conditions=(PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 0.0),
                        PointCondition(0.25, 1, 0.0), PointCondition(0.75, 1, 0.0)),
        )
        system = _system_for(bvp)
        assert (len(system.bands), system.width) == (8, 9)

    def test_third_order_with_pin(self):
        system = _system_for(get_example("3.1.6").bvp)
        assert (len(system.bands), system.width) == (9, 9)

    def test_bands_read_negative_zero_as_positive(self, monkeypatch):
        # A pin on (piece 2, basis 2) of 3.1.6 is row 2 of the inverse
        # Wronskian of 1, x, x^2, whose first two entries are zero; with
        # every zero of the inverse made -0.0, the band holds +0.0 there.
        bvp = dataclasses.replace(get_example("3.1.6").bvp, pins=(PinnedConstant(2, 2, 1.0),))
        original = exact_module._in_basis

        def negated_zeros(w, y):
            out = original(w, y)
            return np.where(out == 0.0, -0.0, out)

        monkeypatch.setattr(exact_module, "_in_basis", negated_zeros)
        system = _system_for(bvp)
        first, band = system.bands[len(bvp.conditions) + 2 * len(bvp.continuity.enforced_orders)]
        assert band[:2] == [0.0, 0.0] and not np.signbit(band[:2]).any()
        _assert_matches_dense(system, monkeypatch)

    def test_row_ordering_is_deterministic(self):
        system = _system_for(get_example("3.1.1").bvp)
        assert system.describe_row(0).startswith("u^(0)(-1)")
        assert system.describe_row(2) == "continuity order 0 at x = -0.5"
        assert system.describe_row(5) == "continuity order 1 at x = 0.5"


class TestArrayAssemblyIsBitwise:
    """The array assembly reproduces the row-by-row one bit for bit."""

    @staticmethod
    def _check(bvp):
        bases, parts = _row_odes(bvp)
        system = _system_for(bvp)
        row = bvp.ode_table[0]
        matrix, rhs, labels = _reference_system(bvp, [bases[r] for r in row],
                                                [parts[r] for r in row])
        assert _densify(system.bands, system.width).tobytes() == (matrix + 0.0).tobytes()
        assert np.array_equal(system.rhs, rhs)
        assert tuple(system.describe_row(r) for r in range(len(rhs))) == labels

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry(self, ex_id):
        self._check(get_example(ex_id).bvp)

    def test_condition_on_interior_breakpoint(self):
        bvp = _mixed_bvp(2, 3, conditions=(PointCondition(-0.5, 0, 0.0),
                                           PointCondition(0.5, 1, 1.0),
                                           PointCondition(1.5, 0, -1.0),
                                           PointCondition(2.5, 0, 0.0)))
        assert bvp.owning_piece(0.5, side="left") == 0
        self._check(bvp)

    @pytest.mark.parametrize("order, continuity", [(2, {0}), (3, {0, 2})])
    def test_partial_continuity(self, order, continuity):
        self._check(_mixed_bvp(order, 4, continuity=continuity))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_repeated_complex_and_zero_roots(self, order):
        bvp = _mixed_bvp(order, 4)
        kinds = {(b.kind, b.k, b.alpha == 0.0) for p in bvp.pieces for b in piece_basis([p])[0]}
        assert ("ExpSin", 0, False) in kinds and ("PolyExp", 1, True) in kinds
        assert any(k >= 1 and not zero for _, k, zero in kinds)
        self._check(bvp)

    def test_sixteen_pieces_with_pin(self):
        bvp = dataclasses.replace(_mixed_bvp(4, 16),
                                  pins=(PinnedConstant(5, 1, 0.25),))
        self._check(bvp)

    @pytest.mark.parametrize("order, n_pieces, n_cond, n_pins", [
        (2, 1, 2, 0), (4, 1, 3, 1), (3, 2, 3, 0), (2, 3, 3, 1), (4, 4, 5, 2),
        (3, 6, 4, 1), (2, 8, 2, 0), (4, 12, 6, 1), (3, 16, 3, 2), (2, 16, 0, 2)])
    def test_seeded_family(self, order, n_pieces, n_cond, n_pins):
        # Conditions at seeded points inside pieces and, every other one, on
        # an interior breakpoint; a seeded nonempty continuity set and pins.
        # One-piece problems have no continuity rows, and the last problem no
        # point conditions, so its condition entry list is empty.
        rng = np.random.default_rng([29, order, n_pieces])
        bvp = _mixed_bvp(order, n_pieces)
        cuts, (a, b) = bvp.interior_breakpoints, bvp.domain
        conditions = tuple(
            PointCondition(cuts[rng.integers(len(cuts))] if cuts and i % 2 else
                           float(rng.uniform(a, b)), int(rng.integers(order)),
                           float(rng.uniform(-1.0, 1.0)))
            for i in range(n_cond))
        continuity = rng.choice(order, int(rng.integers(1, order + 1)), replace=False)
        pins = tuple(PinnedConstant(int(rng.integers(n_pieces)), int(rng.integers(order)),
                                    float(rng.uniform(-1.0, 1.0))) for _ in range(n_pins))
        bvp = dataclasses.replace(bvp, conditions=conditions, pins=pins,
                                  continuity=ContinuitySpec(frozenset(continuity.tolist())))
        self._check(bvp)

class TestGaussSolve:
    def test_identity(self):
        system = _bare(np.eye(2), np.array([3.0, 4.0]), 2, None)
        assert gauss_solve(system) == pytest.approx([3.0, 4.0])

    def test_consistent_singular_reports_rank(self):
        system = _bare(np.array([[1.0, 1.0], [2.0, 2.0]]),
                             np.array([1.0, 2.0]), 2, None)
        with pytest.raises(RankDeficientError) as exc:
            gauss_solve(system)
        assert (exc.value.rank, exc.value.nullity) == (1, 1)
        assert len(exc.value.free_columns) == 1

    def test_inconsistent_overdetermined_raises(self):
        system = _bare(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]),
                             1, None)
        with pytest.raises(InconsistentSystemError) as exc:
            gauss_solve(system)
        assert exc.value.norm > 0.1 and exc.value.rank is None

    def test_no_solution_names_the_rhs_below_the_rank(self):
        # u'' = -u + 1 on (0, pi), u = 0 at both ends: u(0) + u(pi) = 2 for
        # every solution of the ODE, so the rhs left below rank 1 is 2.
        bvp = PiecewiseBvp(2, (PieceOde(2, (0.0, math.pi), (-1.0, 0.0), (1.0,)),),
                           (PointCondition(0.0, 0, 0.0), PointCondition(math.pi, 0, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        with pytest.raises(InconsistentSystemError) as exc:
            solve_exact(bvp)
        assert exc.value.rank == 1
        assert exc.value.norm == pytest.approx(2.0)
        message = str(exc.value)
        assert "inconsistent" in message and "rhs left below rank 1" in message
        assert "residual" not in message and "pin" not in message

    def test_consistent_redundant_rows_accepted(self):
        system = _bare(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                             np.array([2.0, 3.0, 5.0]), 2, None)
        assert gauss_solve(system) == pytest.approx([2.0, 3.0])

    def test_first_example_constants(self):
        # Unknown 1 is u'(-1) times the first segment's scale: the slope a1.
        system = _system_for(get_example("3.1.1").bvp)
        data = gauss_solve(system)
        a1 = 2.0 * (E - 1.0) / (1.0 + 3.0 * E)
        assert data[1] / system.segments.scale[0] == pytest.approx(a1, abs=1e-12)

    @pytest.mark.parametrize("coeff, hi", [(1e6, 1.0), (1.0, 800.0)])
    def test_overflowing_system_is_not_rank_deficient(self, coeff, hi):
        # u'' = coeff*u + 1 on [0, hi], u = 0 at both ends: e^{sqrt(coeff)*hi}
        # overflowed the global basis's system.  On segments of rho*h <= 4 no
        # entry grows past e^4, so the system is neither non-finite nor
        # rank-deficient: u is (cosh(k(x - hi/2)) / cosh(k hi/2) - 1) / coeff.
        k = math.sqrt(coeff)
        piece = PieceOde(2, (0.0, hi), (coeff, 0.0), (1.0,))
        bvp = PiecewiseBvp(2, (piece,), (PointCondition(0.0, 0, 0.0),
                                         PointCondition(hi, 0, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_exact(bvp)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        xs = np.linspace(0.0, hi, 1001)
        t = np.minimum(xs, hi - xs)  # the distance to the nearer end
        truth = (np.exp(-k * t) * (1.0 + np.exp(-k * (hi - 2 * t))) / (1.0 + np.exp(-k * hi))
                 - 1.0) / coeff
        assert np.abs(eval_solution(sol, bvp, xs) - truth).max() <= 1e-13 / coeff
        assert verification_report(sol, bvp).passed

    @pytest.mark.parametrize("pieces, conditions, first", [
        # u'' = 1 on [0, 4]: u'(4) = 1e308 times the scale 4 overflows
        (((0.0, 4.0, (1.0,)),), ((0.0, 0, 0.0), (4.0, 1, 1e308)),
         "1 of 2 rows, first: u^(1)(4) = 1e+308;"),
        # u'' = 4.25e307 + 2.125e307 x on [0, 2]: its forced table's s^2 and
        # s^3 terms are 8.5e307 and 2.8e307, and u'(2) h, 2 * 8.5e307 +
        # 3 * 2.8e307, overflows in the order-1 continuity row there; the
        # conditions at x = 0 read s^0 and s^1
        (((0.0, 2.0, (4.25e307, 2.125e307)), (2.0, 3.0, (1.0,))), ((0.0, 0, 0.0), (0.0, 1, 0.0)),
         "1 of 4 rows, first: continuity order 1 at x = 2;"),
    ], ids=["condition", "continuity"])
    def test_non_finite_error_names_first_bad_row(self, pieces, conditions, first):
        bvp = PiecewiseBvp(2, tuple(PieceOde(2, (lo, hi), (0.0, 0.0), q)
                                    for lo, hi, q in pieces),
                           tuple(PointCondition(*c) for c in conditions),
                           ContinuitySpec(frozenset({0, 1})))
        with pytest.raises(SolveError, match=re.escape(first)):
            solve_exact(bvp)

    def test_non_finite_bare_matrix_names_row_index(self):
        system = _bare(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2), 2, None)
        with pytest.raises(SolveError, match="first: row 1;"):
            gauss_solve(system)

    def test_non_finite_rhs_names_row_index(self):
        system = _bare(np.eye(3), np.array([1.0, -np.inf, np.nan]), 3, None)
        with pytest.raises(SolveError, match=re.escape("in 2 of 3 rows, first: row 1;")):
            gauss_solve(system)

    def test_non_finite_rhs_before_a_non_finite_band_names_the_rhs_row(self):
        matrix = np.eye(4)
        matrix[3, 2] = np.inf
        system = _bare(matrix, np.array([1.0, np.nan, 1.0, 1.0]), 4, None)
        with pytest.raises(SolveError, match=re.escape("in 2 of 4 rows, first: row 1;")):
            gauss_solve(system)

    def test_non_finite_value_anywhere_is_named(self):
        # No elimination step clears an inf or a nan, so the echelon form's
        # finiteness check finds one wherever it sits (a pivot row, a row
        # below the rank, a column without a pivot, the rhs) and the error
        # names the first row holding one.
        rng = np.random.default_rng(31)
        for trial in range(300):
            if trial % 2:
                base = _block_system(rng, int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            else:
                m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
                matrix = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
                matrix[:, rng.integers(0, n)] = 0.0
                base = _bare(matrix * 10.0 ** rng.integers(-300, 300), rng.normal(size=m),
                             1, None, [(0, n)] * m)
            bands, rhs, bad = [(f, list(band)) for f, band in base.bands], base.rhs.copy(), set()
            for value in rng.choice([np.inf, -np.inf, np.nan], size=int(rng.integers(1, 3))):
                i = int(rng.integers(0, len(bands)))
                if rng.random() < 0.3:
                    rhs[i] = value
                else:
                    bands[i][1][int(rng.integers(0, len(bands[i][1])))] = float(value)
                bad.add(i)
            with pytest.raises(SolveError, match=re.escape(
                    f"in {len(bad)} of {len(bands)} rows, first: row {min(bad)};")):
                gauss_solve(MatchSystem(bands, rhs, base.width, base.order, None))

    def test_finite_entries_whose_sum_overflows_are_solved(self):
        system = MatchSystem([(0, [1e308]), (1, [1e308])], np.array([1e308, 1e308]),
                             2, 1, None)
        assert gauss_solve(system).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("pad", [0, 1], ids=["2x2", "zero-padded 3x3"])
    def test_elimination_overflow_is_refused(self, pad):
        # x = [0, 1e-308] solves it, but eliminating the first column adds
        # 1e308 to 1e308.  Neither constants from those bits nor, with a zero
        # column, rank deficiency with pin advice may come out.
        matrix = np.pad(np.array([[1e308, 1e308], [-1e308, 1e308]]), (0, pad))
        with pytest.raises(SolveError, match="elimination overflows") as exc:
            gauss_solve(_bare(matrix, np.pad(np.ones(2), (0, pad)), 2, None))
        assert type(exc.value) is SolveError
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
            constants = gauss_solve(_bare(a, b, n, None))
            assert np.abs(a @ constants - b).max() <= 1e-10 * np.abs(b).max()
            checked += 1


@np.errstate(over="ignore", invalid="ignore")
def _dense_echelon(matrix, rhs):
    """Reference elimination: each column's pivot search and update over every
    row below and every column to the right, in numpy, with -0.0 read as +0.0."""
    m, n = matrix.shape
    aug = np.hstack([matrix.astype(float), rhs.reshape(-1, 1).astype(float)]) + 0.0
    tol = max(m, n) * np.finfo(float).eps * max(1.0, float(np.abs(matrix).max(initial=0.0)))
    pivot_cols = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        p = r + int(np.argmax(np.abs(aug[r:, c])))
        if abs(aug[p, c]) <= tol:
            continue
        if p != r:
            aug[[r, p]] = aug[[p, r]]
        factors = aug[r + 1:, c] / aug[r, c]
        aug[r + 1:, c:] -= factors[:, None] * aug[r, c:]
        aug[r + 1:, c] = 0.0
        pivot_cols.append(c)
        r += 1
    return aug, pivot_cols


def _outcome(system):
    """gauss_solve's constants and their residual as exact bits, or its
    exception type and text."""
    try:
        constants = gauss_solve(system)
    except SolveError as exc:
        return type(exc), str(exc)
    return constants.view(np.int64).tolist(), float(residual_norm(system, constants)).hex()


def _assert_matches_dense(system, monkeypatch):
    """The system's bands hold no -0.0, and their banded elimination gives
    the dense one's echelon bits and pivots on the densified bands, so
    gauss_solve's outcome is the same bit for bit."""
    matrix = _densify(system.bands, system.width)
    assert not ((matrix == 0) & np.signbit(matrix)).any()
    banded, pivots = _echelon(system)
    dense, dense_pivots = _dense_echelon(matrix, system.rhs)
    assert pivots == dense_pivots
    assert banded.shape == dense.shape
    assert banded.tobytes() == dense.tobytes()
    outcome = _outcome(system)
    with monkeypatch.context() as patch:
        patch.setattr(exact_module, "_echelon",
                      lambda bands, rhs, n: _dense_as_bands(matrix, rhs, n))
        assert outcome == _outcome(system)
    return outcome


def _flip_zero_signs(rng, system):
    """The system with a random subset of its zero entries, densified bands
    and rhs alike, negated (+0.0 to -0.0 and -0.0 to +0.0), and its bands
    built again over the same columns."""
    def flip(values):
        values = values.copy()
        at = (values == 0) & (rng.random(values.shape) < rng.random())
        values[at] = -values[at]
        return values
    return _bare(flip(_densify(system.bands, system.width)), flip(system.rhs),
                 system.order, system.bvp,
                 [(first, first + len(band)) for first, band in system.bands])


def _assert_sign_blind(system, rng):
    """The sign of a zero entry changes neither the echelon's bits, its pivots
    nor gauss_solve's outcome, and the echelon holds no -0.0."""
    aug, pivots = _echelon(system)
    assert not ((aug == 0) & np.signbit(aug)).any()
    outcome = _outcome(system)
    for _ in range(3):
        flipped = _flip_zero_signs(rng, system)
        flipped_aug, flipped_pivots = _echelon(flipped)
        assert flipped_pivots == pivots
        assert flipped_aug.tobytes() == aug.tobytes()
        assert _outcome(flipped) == outcome


def _registry_systems(ex_id, monkeypatch):
    """The entry's exact matching system and the one its oracle solves."""
    import obstacle_bvp.oracle as oracle_module
    bvp = get_example(ex_id).bvp
    systems = [_system_for(bvp)]

    def recorded(system):
        systems.append(system)
        return gauss_solve(system)

    anchored = dataclasses.replace(bvp, pins=(), conditions=bvp.conditions
                                   + pin_anchors(solve_exact(bvp), bvp))
    with monkeypatch.context() as patch:
        patch.setattr(oracle_module, "gauss_solve", recorded)
        shooting_solve(anchored, 1e-2)
    assert len(systems) == 2
    return systems


def _seeded_bvp(rng, order, n_pieces):
    """Random coefficients in [-2, 2] with about one in four zeroed (zero
    roots and resonance), forcing of degree 0-3 with some zero pieces, a
    domain that may straddle 0, conditions at both ends."""
    cuts = np.sort(rng.uniform(-1.0, 2.0, n_pieces - 1)).tolist()
    cuts = [-1.0 - rng.uniform(0.0, 0.5)] + cuts + [2.0 + rng.uniform(0.0, 0.5)]
    pieces = []
    for k in range(n_pieces):
        coeffs = [0.0 if rng.random() < 0.25 else float(v) for v in rng.uniform(-2, 2, order)]
        forcing = [0.0] if rng.random() < 0.25 else rng.uniform(-2, 2, int(rng.integers(1, 5))).tolist()
        pieces.append(PieceOde(order, (cuts[k], cuts[k + 1]), tuple(coeffs), tuple(forcing)))
    conditions = ([PointCondition(cuts[0], j, float(rng.uniform(-1, 1))) for j in range((order + 1) // 2)]
                  + [PointCondition(cuts[-1], j, float(rng.uniform(-1, 1))) for j in range(order // 2)])
    return PiecewiseBvp(order, tuple(pieces), tuple(conditions),
                        ContinuitySpec(frozenset(range(order))))


def _block_system(rng, order, n_pieces):
    """A matching system's layout built directly: condition rows on the first
    and last piece, then each breakpoint's rows over its two pieces, each
    row's band its layout block; about one block entry in ten is -0.0."""
    width = order * n_pieces
    matrix = np.zeros((width, width))
    first = (order + 1) // 2
    matrix[:first, :order] = rng.normal(size=(first, order))
    matrix[first:order, -order:] = rng.normal(size=(order - first, order))
    extents = [(0, order)] * first + [(width - order, width)] * (order - first)
    for k in range(n_pieces - 1):
        rows = slice(order + k * order, order + (k + 1) * order)
        matrix[rows, k * order:(k + 2) * order] = rng.normal(size=(order, 2 * order))
        extents += [(k * order, (k + 2) * order)] * order
    matrix[(matrix != 0) & (rng.random(matrix.shape) < 0.1)] = -0.0
    rhs = rng.normal(size=width)
    rhs[rng.random(width) < 0.2] = -0.0
    return _bare(matrix, rhs, order, None, extents)


def _overdetermined_system(rng, order, n_pieces, perturb):
    """A matching system's layout over n_pieces blocks of order columns
    (condition rows on the first and last block, each breakpoint's rows over
    its two blocks), nonzero normal entries over each band, about one row
    in four followed by a copy scaled by 0.25-0.75 in size, and a rhs
    consistent with a random solution; one copy's rhs then moves by perturb
    times the consistency gate.  Partial pivoting takes each original
    before its copy, so that copy's residual is about the move."""
    width = order * n_pieces
    first = (order + 1) // 2
    extents = ([(0, order)] * first + [(width - order, width)] * (order - first)
               + [(k * order, (k + 2) * order) for k in range(n_pieces - 1) for _ in range(order)])
    twins = set(rng.choice(width, size=max(1, width // 4), replace=False).tolist())
    rows, copies = [], []
    for i, (lo, hi) in enumerate(extents):
        row = np.zeros(width)
        row[lo:hi] = rng.normal(size=hi - lo)
        rows.append(row)
        if i in twins:
            copies.append(len(rows))
            rows.append(rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.75) * row)
    matrix = np.array(rows)
    rhs = matrix @ rng.normal(size=width)
    rhs[rng.choice(copies)] += perturb * CONSISTENCY_TOL * (1.0 + np.abs(rhs).max())
    return _bare(matrix, rhs, order, None)


class TestBandedElimination:
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("n_pieces", [1, 2, 3, 5, 8, 16])
    def test_seeded_problems(self, order, n_pieces, monkeypatch):
        rng = np.random.default_rng([order, n_pieces])
        for _ in range(4):
            _assert_matches_dense(_system_for(_seeded_bvp(rng, order, n_pieces)), monkeypatch)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_seeded_problems_with_a_pin(self, order, monkeypatch):
        rng = np.random.default_rng([order, 99])
        bvp = dataclasses.replace(_seeded_bvp(rng, order, 6),
                                  pins=(PinnedConstant(2, order - 1, 0.5),))
        _assert_matches_dense(_system_for(bvp), monkeypatch)

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry_exact_and_oracle_systems(self, ex_id, monkeypatch):
        for system in _registry_systems(ex_id, monkeypatch):
            _assert_matches_dense(system, monkeypatch)

    def test_zero_rows(self, monkeypatch):
        outcome = _assert_matches_dense(_bare(np.zeros((0, 3)), np.zeros(0), 3, None),
                                        monkeypatch)
        assert outcome[0] is RankDeficientError

    @pytest.mark.parametrize("rhs, consistent", [([2.0, 3.0, 5.0, -1.0], True),
                                                 ([2.0, 3.0, 6.0, -1.0], False)])
    def test_overdetermined(self, rhs, consistent, monkeypatch):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        outcome = _assert_matches_dense(_bare(matrix, np.array(rhs), 3, None), monkeypatch)
        assert (outcome[0] is InconsistentSystemError) is not consistent

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_overdetermined_gate_matches_dense_residual(self, order, monkeypatch):
        # Seeded overdetermined band systems 2 to 16 blocks wide, with a
        # consistent rhs and one moved by 0.1 and 10 times the gate: the gate
        # refuses exactly where the dense residual of the elimination's
        # solution exceeds it, and the band residual agrees with the dense
        # one to (width + 2) eps max_i(sum_j |a_ij x_j| + |rhs_i|).
        rng = np.random.default_rng([order, 21])
        for n_pieces in range(2, 17):
            for perturb, consistent in [(0.0, True), (0.1, True), (10.0, False)]:
                system = _overdetermined_system(rng, order, n_pieces, perturb)
                matrix, rhs, n = _densify(system.bands, system.width), system.rhs, system.width
                bands, b, pivots = exact_module._echelon(system.bands, rhs, n)
                assert len(pivots) == n
                x = np.array(exact_module._back_substitute(bands, b, pivots, [0.0] * n))
                dense = float(np.abs(matrix @ x - rhs).max())
                bound = (n + 2) * np.finfo(float).eps * float(
                    (np.abs(matrix * x).sum(axis=1) + np.abs(rhs)).max())
                gate = CONSISTENCY_TOL * (1.0 + float(np.abs(rhs).max()))
                assert (dense <= gate) is consistent
                try:
                    constants = gauss_solve(system)
                except InconsistentSystemError as exc:
                    assert not dense <= gate
                    assert abs(exc.norm - dense) <= bound
                else:
                    assert dense <= gate
                    assert constants.tobytes() == x.tobytes()
                    assert abs(residual_norm(system, constants) - dense) <= bound
                _assert_matches_dense(system, monkeypatch)

    def test_rank_deficient_with_free_columns(self, monkeypatch):
        matrix = np.array([[1.0, 2.0, 0.0, 1.0], [2.0, 4.0, 0.0, 2.0],
                           [0.0, 0.0, 0.0, 3.0], [-1.0, 0.5, 0.0, 0.0]])
        outcome = _assert_matches_dense(_bare(matrix, np.array([1.0, 2.0, 3.0, 0.0]), 2,
                                                    None), monkeypatch)
        assert outcome[0] is RankDeficientError
        assert "free columns: (piece 1, basis 0);" in outcome[1]

    def test_exact_pivot_ties(self, monkeypatch):
        # |entries| tie in every column; the first row holding the maximum
        # is the pivot, as np.argmax picks it.
        rng = np.random.default_rng(3)
        for _ in range(50):
            matrix = rng.choice([-1.0, 0.0, -0.0, 1.0, 2.0, -2.0], size=(6, 6))
            _assert_matches_dense(_bare(matrix, rng.choice([0.0, -0.0, 1.0], size=6),
                                              3, None), monkeypatch)

    def test_sign_of_zero_is_invisible(self, monkeypatch):
        # -0.0 is read as +0.0: pivots, echelon bits and outcome (the sign of
        # an exactly zero constant included) do not depend on it.
        rng = np.random.default_rng(17)
        for _ in range(200):
            matrix = rng.normal(size=(6, 6))
            matrix[rng.random((6, 6)) < 0.7] = -0.0
            matrix[rng.random((6, 6)) < 0.3] = 0.0
            rhs = rng.choice([-0.0, 0.0, 1.0], size=6)
            _assert_sign_blind(_bare(matrix, rhs, 3, None), rng)
        for ex_id in EXAMPLE_IDS:
            for system in _registry_systems(ex_id, monkeypatch):
                _assert_sign_blind(system, rng)
        _assert_sign_blind(_block_system(np.random.default_rng(200), 2, 200), rng)

    def test_fully_dense_random(self, monkeypatch):
        rng = np.random.default_rng(11)
        _assert_matches_dense(_bare(rng.normal(size=(24, 24)), rng.normal(size=24),
                                          4, None), monkeypatch)

    def test_elimination_overflow_to_nan(self, monkeypatch):
        # Finite entries near the float maximum: sums of two overflow.  Where
        # the dense loop stays finite the banded one gives its bits; where it
        # overflows the banded elimination refuses the system, and so does
        # gauss_solve, instead of reading an answer from it.
        rng = np.random.default_rng(5)
        finite_seen = set()
        for _ in range(30):
            matrix = rng.choice([-1.0, 1.0], size=(5, 5)) * rng.uniform(0.5, 1.79, size=(5, 5)) * 1e308
            matrix[rng.random((5, 5)) < 0.3] = 0.0
            system = _bare(matrix, rng.normal(size=5), 5, None)
            finite = bool(np.isfinite(_dense_echelon(matrix, system.rhs)[0]).all())
            finite_seen.add(finite)
            if finite:
                _assert_matches_dense(system, monkeypatch)
                continue
            with pytest.raises(SolveError, match="elimination overflows"):
                _echelon(system)
            with pytest.raises(SolveError, match="elimination overflows") as exc:
                gauss_solve(system)
            assert type(exc.value) is SolveError
        assert finite_seen == {True, False}

    def test_bands_with_zeros_at_their_edges_and_inside(self, monkeypatch):
        # Row 1's band starts at a stored -0.0 and row 2's holds an exact
        # zero between nonzeros: band extents, not nonzeros, bound the work.
        matrix = np.array([[2.0, 1.0, 0.0, 0.0],
                           [-0.0, 3.0, -1.0, 0.0],
                           [1.0, 0.0, 0.0, 4.0],
                           [0.0, 0.0, 5.0, 1.0]])
        system = _bare(matrix, np.array([1.0, -0.0, 2.0, 3.0]), 2, None,
                       [(0, 2), (0, 3), (0, 4), (2, 4)])
        assert system.bands[1] == (0, [0.0, 3.0, -1.0])
        assert not np.signbit(system.bands[1][1][0])
        assert system.bands[2] == (0, [1.0, 0.0, 0.0, 4.0])
        _assert_matches_dense(system, monkeypatch)

    def test_two_hundred_piece_block_matrix(self, monkeypatch):
        _assert_matches_dense(_block_system(np.random.default_rng(200), 2, 200), monkeypatch)


def _exact_solution(system):
    """The exact solution of a square nonsingular matching system: Gauss
    elimination in Fractions of its float entries, any nonzero pivot."""
    n = system.width
    rows = []
    for (first, band), value in zip(system.bands, system.rhs.tolist()):
        row = [Fraction(0)] * n + [Fraction(value)]
        row[first:first + len(band)] = map(Fraction, band)
        rows.append(row)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            if rows[r][c]:
                q = rows[r][c] / rows[c][c]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[c])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (rows[r][n] - sum(rows[r][j] * x[j] for j in range(r + 1, n))) / rows[r][r]
    return x


def _assert_within_conditioning(sol):
    """A solution's Cauchy data lie within 10 cond eps of the exact solution
    of the system it solved, relative in the inf-norm, cond = cond_inf(M)."""
    system = sol.system
    assert len(system.bands) == system.width
    exact = _exact_solution(system)
    error = max(abs(Fraction(c) - e) for c, e in zip(sol.data.ravel().tolist(), exact))
    cond = np.linalg.cond(_densify(system.bands, system.width), np.inf)
    assert error <= Fraction(10 * cond * np.finfo(float).eps) * max(map(abs, exact)), \
        (float(error / max(map(abs, exact))), cond)


class TestAgainstExactElimination:
    """The float elimination against the exact one on the same float system
    (the registry's condition numbers are at most ~3e2 in the inf-norm and
    its errors about 1e-16 relative, over 100x inside the bound)."""

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry(self, ex_id):
        _assert_within_conditioning(solve_exact(get_example(ex_id).bvp))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_seeded_problems_that_verify(self, order):
        rng = np.random.default_rng([order, 28])
        checked = 0
        for _ in range(12):
            bvp = _seeded_bvp(rng, order, int(rng.integers(1, 5)))
            try:
                sol = solve_exact(bvp)
            except SolveError:
                continue
            if verification_report(sol, bvp, None).passed:
                _assert_within_conditioning(sol)
                checked += 1
        assert checked >= 8

    def test_sixteen_piece_cantilever(self):
        # The CI job's order-4, 16-piece cantilever: 64 unknowns, the widest
        # system the order and piece caps allow.
        cuts = [2.0 * k / 16 for k in range(17)]
        pieces = tuple(PieceOde(4, (cuts[k], cuts[k + 1]), (-4.0 if k % 2 else 0.0, 0.0, 0.0, 0.0),
                                (-1.0, 0.1 * k)) for k in range(16))
        conditions = (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                      PointCondition(2.0, 2, 0.0), PointCondition(2.0, 3, 0.0))
        sol = solve_exact(PiecewiseBvp(4, pieces, conditions,
                                       ContinuitySpec(frozenset(range(4)))))
        assert sol.system.width == 64
        _assert_within_conditioning(sol)

    def test_seeded_wide_order_four_problems_that_verify(self):
        # Order 4 with 8 to 16 pieces: 32 to 64 unknowns.
        rng = np.random.default_rng([4, 31])
        checked = 0
        for _ in range(5):
            bvp = _seeded_bvp(rng, 4, int(rng.integers(8, 17)))
            try:
                sol = solve_exact(bvp)
            except SolveError:
                continue
            if verification_report(sol, bvp, None).passed:
                _assert_within_conditioning(sol)
                checked += 1
        assert checked >= 4


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
        assert np.abs(diff).max() > 0.1
        # The Cauchy data differ by a null vector of the unpinned system.
        data = [solve_exact(dataclasses.replace(base, pins=(PinnedConstant(2, 0, value),))).data
                for value in (1.0, 2.0)]
        system = _system_for(unpinned)
        assert np.abs(_densify(system.bands, system.width) @ (data[1] - data[0]).ravel()).max() <= 1e-8

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
        assert [fn.k for fn in piece_basis([piece])[0]].count(1) == 1
        sol = solve_exact(bvp)
        assert verification_report(sol, bvp).passed

    def test_fourth_order_builder(self):
        # g=0, f=1, r=-1 on (0, 1/4, 3/4, 1) with u = u' = 0 at both ends.
        conditions = (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                      PointCondition(1.0, 0, 0.0), PointCondition(1.0, 1, 0.0))
        bvp = build_fourth_order(0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75, b=1.0,
                                 conditions=conditions,
                                 continuity=ContinuitySpec(frozenset({0, 1, 2, 3})))
        system = _system_for(bvp)
        assert (len(system.bands), system.width) == (12, 12)
        sol = solve_exact(bvp)
        report = verification_report(sol, bvp, shooting_solve(bvp, 1e-3))
        assert report.passed
        # The default continuity {1, 2, 3} lets u jump at both breakpoints.
        with pytest.raises(RankDeficientError) as exc:
            solve_exact(build_fourth_order(0.0, 1.0, -1.0, a=0.0, c=0.25, d=0.75,
                                           b=1.0, conditions=conditions))
        assert exc.value.nullity == 2

    def test_segment_budget_counts_every_piece(self, monkeypatch):
        # u'' = u on [0, 6] and [6, 8]: rho*L = 12 and 4, three segments and one
        piece = [PieceOde(2, interval, (1.0, 0.0), (0.0,)) for interval in ((0.0, 6.0), (6.0, 8.0))]
        bvp = PiecewiseBvp(2, tuple(piece), (PointCondition(0.0, 0, 1.0), PointCondition(8.0, 0, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        monkeypatch.setattr(exact_module, "MAX_SEGMENTS", 4)
        assert solve_exact(bvp).system.segments.first.tolist() == [0, 3, 4]
        monkeypatch.setattr(exact_module, "MAX_SEGMENTS", 3)
        with pytest.raises(SolveError, match=re.escape(
                "piece 0 on (0.0, 6.0) needs 3 segments of rho*L <= 4 (rho*L = 12); the "
                "problem needs 4, more than MAX_SEGMENTS = 3")):
            solve_exact(bvp)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a growing initial-value problem is "
                       "refused as rank-deficient with no free column named")
    def test_growing_initial_value_problem_solves(self):
        # u'' = 1e6 u on [0, 1] with u(0) = u'(0) = 0 (500 segments, growth
        # e^1000): the solution is u = 0.
        bvp = PiecewiseBvp(2, (PieceOde(2, (0.0, 1.0), (1e6, 0.0), (0.0,)),),
                           (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        sol = solve_exact(bvp)
        assert np.abs(eval_solution(sol, bvp, np.linspace(0.0, 1.0, 201))).max() <= 1e-12

    def test_matching_system_attached(self):
        bvp = get_example("3.1.1").bvp
        sol = solve_exact(bvp)
        assert sol.system.bvp is bvp and sol.system.width == 6
        assert sol.constants.shape == sol.data.shape == (3, 2)
        assert sol.data.base is not None  # a view of the elimination's vector
        assert residual_norm(sol.system, sol.data.ravel()) <= 1e-12


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

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_value_is_its_row_of_the_multi_order_pass(self, ex_id):
        bvp = get_example(ex_id).bvp
        sol = solve_exact(bvp)
        for k, (piece, ps) in enumerate(zip(bvp.pieces, sol.pieces)):
            xs = np.linspace(piece.lo, piece.hi, 37)
            rows = sol.evaluate(xs, k, range(MAX_ORDER + 1))
            for d in range(MAX_ORDER + 1):
                assert _bitwise(ps.value(xs, d), rows[d])
                assert _bitwise(ps.value(xs[5], d), rows[d][5])
            # any subset of orders, in any order, gives the same rows
            assert all(_bitwise(got, rows[d]) for d, got in
                       zip((3, 0, 2), sol.evaluate(xs, k, (3, 0, 2))))

    def test_value_does_not_depend_on_the_layout_of_x(self):
        # numpy's power can round differently on a strided array; the kernel
        # reads x C-contiguous, so a reversed view gives the reversed values.
        piece = PieceOde(4, (0.0, 2.0), (0.0, 0.0, 0.0, 0.0), (-1.0,))
        conditions = (PointCondition(0.0, 0, 0.0), PointCondition(0.0, 1, 0.0),
                      PointCondition(2.0, 2, 0.0), PointCondition(2.0, 3, 0.0))
        sol = solve_exact(PiecewiseBvp(4, (piece,), conditions, ContinuitySpec(frozenset(range(4)))))
        ps = sol.pieces[0]
        assert [b.render() for b in sol.forms[0].basis] == ["1", "x", "x^2", "x^3"]
        xs = np.linspace(0.0, 2.0, 5000)
        for d in range(MAX_ORDER + 1):
            assert _bitwise(ps.value(xs[::-1], d), ps.value(xs, d)[::-1])
            assert _bitwise(ps.value(xs[::3], d), ps.value(xs, d)[::3])

    @pytest.mark.parametrize("coeffs, ends", [((1.0, 0.0), ((0.0, 0), (1.0, 0))),
                                              ((-5.0, -2.0), ((0.0, 0), (0.0, 1)))],
                             ids=["exp", "exp-trig"])
    def test_overflowing_value_is_its_row_silently(self, coeffs, ends):
        # u'' = 1e6 (a0 u + 1e-3 a1 u') + 1 + x/2 on [0, 1], with u = 1e306 at
        # both ends (roots +-1e3) or u(0) = 1e306, u'(0) = 0 (roots
        # 1e3 (-1 +- 2i)): the scaled data stay finite, and u'' ~ 1e6 u
        # overflows at x = 0.
        piece = PieceOde(2, (0.0, 1.0), (1e6 * coeffs[0], 1e3 * coeffs[1]), (1.0, 0.5))
        bvp = PiecewiseBvp(2, (piece,), tuple(PointCondition(x, d, 0.0 if d else 1e306)
                                              for x, d in ends),
                           ContinuitySpec(frozenset({0, 1})))
        ps = solve_exact(bvp).pieces[0]
        xs = np.array([0.5, 1e-6, 0.25, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = ps.solution.evaluate(xs, 0, range(MAX_ORDER + 1))
            for d in range(MAX_ORDER + 1):
                assert _bitwise(ps.value(xs, d), rows[d])
                assert _bitwise(ps.value(0.0, d), rows[d][3])
        assert np.isfinite(rows[0]).all() and np.isfinite(rows[2][0])
        assert not np.isfinite(rows[2][3])

    @pytest.mark.parametrize("order", [-1, MAX_ORDER + 1])
    def test_unsupported_order_rejected(self, order):
        ps = solve_exact(get_example("3.1.1").bvp).pieces[0]
        with pytest.raises(ValueError):
            ps.value(0.0, order)

    def test_outside_domain_rejected(self):
        entry = get_example("3.1.1")
        sol = solve_exact(entry.bvp)
        with pytest.raises(Exception):
            eval_solution(sol, entry.bvp, 2.0)
        with pytest.raises(ProblemError):
            eval_solution(sol, entry.bvp, np.array([-1.0, 0.0, 1.0 + 1e-12]))


def _sixteen_region_obstacle():
    """A string over a 16-region obstacle: 16 pieces, two distinct ODEs."""
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


def _counting(monkeypatch, name):
    import obstacle_bvp.exact as exact_module
    calls = []
    original = getattr(exact_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(exact_module, name, counted)
    return calls


def _per_piece_eval(sol, bvp, xs, j):
    """The piece-by-piece evaluation: each piece's own value on its points."""
    owner = bvp.owning_piece(xs)
    out = np.empty(xs.shape)
    for k in np.unique(owner):
        out[owner == k] = sol.pieces[k].value(xs[owner == k], j)
    return out


def _counting_locate(monkeypatch):
    """The (x, owner) of every Segments.locate call: one per evaluation pass."""
    calls = []
    original = exact_module.Segments.locate

    def counted(self, x, owner):
        calls.append((x, owner))
        return original(self, x, owner)

    monkeypatch.setattr(exact_module.Segments, "locate", counted)
    return calls


def _with_forms(sol, forms, **changes):
    """A copy of sol, with the changes, whose system publishes forms."""
    system = dataclasses.replace(sol.system)
    vars(system)["forms"] = forms
    return dataclasses.replace(sol, system=system, **changes)


def _bitwise(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestSharedOdeWork:
    def test_two_odes_share_one_stacked_call(self, monkeypatch):
        bvp = _sixteen_region_obstacle()
        assert len(bvp.pieces) == 16
        bases = _counting(monkeypatch, "piece_basis")
        particulars = _counting(monkeypatch, "particular_solution")
        solve_exact(bvp).constants
        assert [len(odes) for (odes,) in bases] == [2]
        assert [len(odes) for (odes,) in particulars] == [2]

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_constants_equal_per_piece_solve(self, ex_id):
        bvp = get_example(ex_id).bvp
        self._check_constants(bvp)

    def test_obstacle_constants_equal_per_piece_solve(self):
        self._check_constants(_sixteen_region_obstacle())

    @staticmethod
    def _check_constants(bvp):
        # The elimination's vector, the Cauchy data, of a solve whose roots
        # and particulars were shared by the rows of the ODE table equals
        # that of a system built from one-ODE calls per row.
        reference = gauss_solve(_system_for(bvp))
        assert _bitwise(solve_exact(bvp).data.ravel(), reference)

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_eval_bitwise_equal_to_piece_values(self, ex_id):
        self._check_eval(get_example(ex_id).bvp)

    def test_obstacle_eval_bitwise_equal_to_piece_values(self):
        self._check_eval(_sixteen_region_obstacle())

    @staticmethod
    def _check_eval(bvp):
        sol = solve_exact(bvp)
        a, b = bvp.domain
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(a, b, 300), bvp.breakpoints])
        for j in range(bvp.order + 1):
            assert _bitwise(eval_solution(sol, bvp, xs, j), _per_piece_eval(sol, bvp, xs, j))
            for x in (a, 0.5 * (a + b), *bvp.breakpoints):
                owner = int(bvp.owning_piece(x))
                assert _bitwise(eval_solution(sol, bvp, x, j), sol.pieces[owner].value(x, j))

    def test_eval_makes_one_kernel_pass_per_ode(self, monkeypatch):
        # One Horner pass over all points, whatever their pieces and rows.
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        xs = np.linspace(*bvp.domain, 2001)
        passes = _counting_locate(monkeypatch)
        eval_solution(sol, bvp, xs, 1)
        assert len(passes) == 1

    def test_equal_copies_share_their_row_pass_with_the_same_bits(self, monkeypatch):
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        rebuilt = _with_forms(sol, tuple(
            ClosedForm(tuple(dataclasses.replace(b) for b in form.basis),
                       tuple(list(form.particular)))
            for form in sol.forms), data=sol.data.copy())
        for form, copy in zip(sol.forms, rebuilt.forms):
            assert copy.basis == form.basis and copy.basis is not form.basis
            assert copy.particular == form.particular and copy.particular is not form.particular
        assert _bitwise(rebuilt.constants, sol.constants)
        xs = np.concatenate([np.linspace(*bvp.domain, 2001), bvp.breakpoints])
        passes = _counting_locate(monkeypatch)
        for j in range(bvp.order + 1):
            want = eval_solution(sol, bvp, xs, j)
            passes.clear()
            assert _bitwise(eval_solution(rebuilt, bvp, xs, j), want)
            assert len(passes) == 1  # one pass over every piece of every row

    def test_kernel_terms_are_built_once_per_ode_row(self, monkeypatch):
        # The closed forms are one per row; the derivative table every
        # evaluation reads is built once per solution, for every order.
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        forms = sol.forms
        assert len(forms) == 2
        assert all(sol.forms[r] is forms[r] for r in bvp.ode_table[0])
        built = []
        table = type(sol)._derivatives
        monkeypatch.setattr(type(sol), "_derivatives", cached_property(
            lambda self: built.append(self) or table.func(self)))
        type(sol)._derivatives.__set_name__(type(sol), "_derivatives")
        xs = np.linspace(*bvp.domain, 101)
        for j in range(bvp.order):
            eval_solution(sol, bvp, xs, j)
            for k, ps in enumerate(sol.pieces):
                sol.evaluate(xs, k, [j])
                ps.value(xs, j)
        assert built == [sol]

    def test_perturbed_row_evaluates_its_own_particular(self):
        # Every piece of row 1 publishes its constants against the row's
        # shifted particular; row 0 keeps its bits, and u, which the
        # segment tables give, does not move.
        bvp = _sixteen_region_obstacle()
        sol = solve_exact(bvp)
        row = np.array(bvp.ode_table[0])
        form = sol.forms[1]
        particular = (form.particular[0] + 1e-3,) + form.particular[1:]
        perturbed = _with_forms(sol, (sol.forms[0], ClosedForm(form.basis, particular)))
        assert all(perturbed.forms[r].particular == (particular if r else sol.forms[0].particular)
                   for r in row)
        shift = perturbed.constants - sol.constants
        assert (row == 1).any() and not (row == 1).all()
        assert np.abs(shift[row == 1]).max(axis=1).min() >= 1e-4
        assert _bitwise(perturbed.constants[row == 0], sol.constants[row == 0])
        xs = np.linspace(*bvp.domain, 2001)
        assert _bitwise(eval_solution(perturbed, bvp, xs), eval_solution(sol, bvp, xs))


class TestPublicationOnDemand:
    """The answer never reads the closed forms: a solve builds them only for
    pin rows or pin advice, once, and otherwise the constants' first read."""

    @staticmethod
    def _calls(monkeypatch):
        return _counting(monkeypatch, "piece_basis"), _counting(monkeypatch, "particular_solution")

    @pytest.mark.parametrize("ex_id", ["3.1.1", "3.1.4", "eq11"])
    def test_unpinned_solve_builds_none(self, monkeypatch, ex_id):
        bases, particulars = self._calls(monkeypatch)
        sol = solve_exact(get_example(ex_id).bvp)
        assert bases == [] and particulars == []
        sol.labeled_constants()
        sol.constants
        assert len(bases) == len(particulars) == 1

    @pytest.mark.parametrize("ex_id", ["3.1.6", "3.1.7", "3.1.8"])
    def test_pinned_solve_builds_each_once(self, monkeypatch, ex_id):
        bases, particulars = self._calls(monkeypatch)
        sol = solve_exact(get_example(ex_id).bvp)
        assert len(bases) == len(particulars) == 1
        sol.constants
        sol.labeled_constants()
        assert len(bases) == len(particulars) == 1

    def test_rank_deficient_solve_builds_each_once_for_its_advice(self, monkeypatch):
        bases, particulars = self._calls(monkeypatch)
        with pytest.raises(RankDeficientError) as exc:
            solve_exact(dataclasses.replace(get_example("3.1.6").bvp, pins=()))
        assert (exc.value.rank, exc.value.nullity, exc.value.free_columns) == (8, 1, ((2, 2),))
        assert len(bases) == len(particulars) == 1

    def test_rank_deficient_advice_reuses_the_solves_elimination(self, monkeypatch):
        # gauss_solve's RankDeficientError carries its echelon form, so the
        # advice eliminates only the one-row matrix of its null vector.
        bvp = dataclasses.replace(get_example("3.1.6").bvp, pins=())
        rows = len(assemble_system(bvp).bands)
        calls = _counting(monkeypatch, "_echelon")
        with pytest.raises(RankDeficientError) as exc:
            solve_exact(bvp)
        assert str(exc.value) == (
            "matching system is rank-deficient (rank 8, nullity 1); free columns: "
            "(piece 2, basis 2); pin one constant per free column to proceed")
        assert [len(bands) for bands, _, _ in calls] == [rows, 1]

    @pytest.mark.parametrize("ex_id", ["3.1.6", "3.1.7", "3.1.8"])
    def test_pinned_solve_reads_one_wronskian_map(self, monkeypatch, ex_id):
        # The pin rows, the constants and their labels share the system's at_lo.
        maps = _counting(monkeypatch, "_closed_form_at_lo")
        values = _counting(monkeypatch, "basis_values")
        sol = solve_exact(get_example(ex_id).bvp)
        sol.constants
        sol.labeled_constants()
        assert len(maps) == len(values) == 1

    def test_unpublishable_problem_is_solved(self):
        # u'' = 1e-300 u + x^6 on [0, 1], u(0) = 0, u(1) = 1: the particular's
        # coefficients grow by 1e300 a degree and overflow, so the constants
        # cannot be published; the segments give u = x^8/56 + 55x/56.
        piece = PieceOde(2, (0.0, 1.0), (1e-300, 0.0), (0.0,) * 6 + (1.0,))
        bvp = PiecewiseBvp(2, (piece,), (PointCondition(0.0, 0, 0.0), PointCondition(1.0, 0, 1.0)),
                           ContinuitySpec(frozenset({0, 1})))
        sol = solve_exact(bvp)
        assert abs(eval_solution(sol, bvp, 0.5) - (0.5 ** 8 / 56 + 55 * 0.5 / 56)) <= 1e-14
        for read in (lambda: sol.constants, sol.labeled_constants):
            with pytest.raises(SolveError, match=r"particular ansatz failed on \(0\.0, 1\.0\)"):
                read()


def _published_miss(sol, bvp, count=9):
    """(max |sum_i c_i phi_i + p - u|, max |u|) over count evenly spaced
    points of each piece: its published closed form against evaluate."""
    miss = top = 0.0
    for k, piece in enumerate(bvp.pieces):
        form = sol.forms[bvp.ode_table[0][k]]
        xs = np.linspace(piece.lo, piece.hi, count)
        published = (basis_derivatives(form.basis, np.repeat(xs[:, None], bvp.order, axis=1), 0)
                     @ sol.constants[k] + np.polynomial.polynomial.polyval(xs, form.particular))
        u = sol.evaluate(xs, k, [0])[0]
        miss, top = max(miss, float(np.abs(published - u).max())), max(top, float(np.abs(u).max()))
    return miss, top


class TestPublishedFormMatchesTheAnswer:
    """The printed closed form sum_i c_i phi_i + p is the answer it was
    fitted to, evaluated from the segments."""

    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_registry_form_matches(self, ex_id):
        bvp = get_example(ex_id).bvp
        miss, top = _published_miss(solve_exact(bvp), bvp)
        assert miss <= 1e-12 * (1.0 + top)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 26: near resonance the constants (-+3e20) cancel against a "
        "particular of -6e16 x - 1e8 x^3, and the form misses u by about 3e4"))
    def test_near_resonant_form_matches(self):
        # u'' = 1e-8 u + x^3 on [0, 3], u(0) = u(3) = 0: max |u| = 6.5.
        piece = PieceOde(2, (0.0, 3.0), (1e-8, 0.0), (0.0, 0.0, 0.0, 1.0))
        bvp = PiecewiseBvp(2, (piece,), (PointCondition(0.0, 0, 0.0), PointCondition(3.0, 0, 0.0)),
                           ContinuitySpec(frozenset({0, 1})))
        miss, top = _published_miss(solve_exact(bvp), bvp)
        assert miss <= 1e-6 * (1.0 + top)


def _basis_bits(basis):
    return tuple((b.kind, b.k, b.alpha.hex(), b.beta.hex()) for b in basis)


def _mixed_stack():
    """Orders 2-4 with zero, -0.0 and leading-zero coefficients (shifts 0-2
    and full), repeated real and complex roots, complex pairs and forcing
    degrees 0-3, then seeded random pieces of the same mix."""
    odes = [
        (2, (0.0, 0.0), (1.0,)),                  # double root 0, shift 2
        (2, (-0.0, 0.0), (1.0, 2.0)),             # the same with -0.0
        (2, (-1.0, 0.0), (0.5, 0.0, 0.0, 1.0)),   # +-i
        (2, (-1.0, 2.0), (1.0, -1.0)),            # double root 1
        (3, (0.0, 1.0, 0.0), (1.0, 0.0, 2.0)),    # 0, +-1, shift 1
        (3, (0.0, 0.0, 1.0), (0.0, 1.0)),         # shift 2
        (3, (-1.0, 0.0, 0.0), (0.5,)),            # a real root and a pair
        (3, (-1.0, 0.0, 0.0), (-0.0, -2.0, -1e-300)),  # t_0 = +0.0, not -0.0
        (3, (-2.0, 3.0, 0.0), (1.0, 0.0, 0.0, -1.0)),  # 1, 1, -2
        (4, (-1.0, 0.0, -2.0, 0.0), (2.0,)),      # +-i twice
        (4, (0.0, -0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),   # shift 2 with -0.0
        (4, (0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),  # shift 4
        (4, (-0.0, 1.0, 0.0, -0.0), (3.0,)),      # shift 1
    ]
    rng = np.random.default_rng(11)
    for _ in range(60):
        order = int(rng.integers(2, 5))
        coeffs = rng.uniform(-2.0, 2.0, order)
        coeffs[rng.random(order) < 0.3] = 0.0
        coeffs[rng.random(order) < 0.1] = -0.0
        odes.append((order, tuple(coeffs.tolist()),
                     tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 5))).tolist())))
    return [PieceOde(n, (float(k), k + 1.0), coeffs, forcing)
            for k, (n, coeffs, forcing) in enumerate(odes)]


def _reference_particular(piece):
    """The one-piece particular: a Python loop builds the operator matrix,
    np.linalg.solve takes one system and the defect is checked against the
    padded forcing."""
    n, a = piece.order, piece.coeffs
    q = np.asarray(piece.forcing, dtype=float)
    m = len(q) - 1
    s = next((j for j, aj in enumerate(a) if aj != 0.0), n)
    size = s + m + 1
    full_op = np.zeros((size, size))
    for p in range(size):
        if p - n >= 0:
            full_op[p - n, p] = math.perm(p, n)
        for j, aj in enumerate(a):
            if aj != 0.0 and p - j >= 0:
                full_op[p - j, p] = -aj * math.perm(p, j)
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linalg.solve(full_op[: m + 1, s:], q)
        poly = np.concatenate([np.zeros(s), t])
        scale = 1.0 + float(np.abs(q).max()) + float(np.abs(poly).max())
        defect = float(np.abs(full_op @ poly - np.pad(q, (0, s))).max())
    assert defect <= 1e-10 * scale
    while len(poly) > 1 and poly[-1] == 0.0:
        poly = poly[:-1]
    return tuple(float(c) for c in poly)


def _reference_basis(piece):
    """The one-piece basis: the companion matrix of one polynomial, or the
    quadratic formula, then the same merge into a real basis."""
    from obstacle_bvp.basis import _real_basis
    n = piece.order
    c = [-a for a in piece.coeffs] + [1.0]
    if n == 2:
        disc = cmath.sqrt(c[1] * c[1] - 4.0 * c[0])
        raw = [(-c[1] + disc) / 2.0, (-c[1] - disc) / 2.0]
    else:
        comp = np.zeros((n, n))
        comp[1:, :-1] = np.eye(n - 1)
        comp[:, -1] = -np.array(c[:-1])
        raw = list(np.linalg.eigvals(comp))
    return _real_basis(raw, c)


def _first_failure(calls):
    """(type, message) of the first call that raises, or None."""
    for call in calls:
        try:
            call()
        except Exception as exc:
            return type(exc), str(exc)
    return None


class TestStackedOdeStage:
    """piece_basis and particular_solution over a stack equal one-piece calls."""

    def test_mixed_stack_equals_one_piece_calls(self):
        odes = _mixed_stack()
        shifts = {next((j for j, a in enumerate(p.coeffs) if a != 0.0), p.order)
                  for p in odes}
        assert {0, 1, 2} <= shifts and {len(p.forcing) for p in odes} == {1, 2, 3, 4}
        bases, particulars = piece_basis(odes), particular_solution(odes)
        assert len(bases) == len(particulars) == len(odes)
        for p, basis, part in zip(odes, bases, particulars):
            assert isinstance(basis, tuple) and isinstance(part, tuple)
            assert _basis_bits(basis) == _basis_bits(piece_basis([p])[0])
            assert _basis_bits(basis) == _basis_bits(_reference_basis(p))
            assert _bitwise(part, particular_solution([p])[0])
            assert _bitwise(part, _reference_particular(p))
        kinds = {(b.kind, b.k) for basis in bases for b in basis}
        assert {("ExpCos", 1), ("PolyExp", 2), ("PolyExp", 3)} <= kinds

    @pytest.mark.parametrize("root_at, particular_at", [
        ((), (3, 40)), ((5, 30), ()), ((30,), (3,)), ((50, 7), (2, 60))])
    def test_failure_matches_the_one_piece_loop(self, root_at, particular_at):
        # A diverging quadratic (c1^2 overflows) fails in its roots.  In its
        # particular, a forcing of degree 6 over a_0 = 1e-200 fails, and so
        # does 1/(2 a_2) with a_2 = 1e-320, in the group (shift 2, degree 0)
        # that piece 0 opens.  The old loop computed every basis, then every
        # particular, each piece in turn.
        odes = _mixed_stack()
        for k in root_at:
            odes[k] = PieceOde(2, odes[k].interval, (0.0, 1e200 * (k + 1)), (1.0,))
        for k in particular_at:
            odes[k] = (PieceOde(2, odes[k].interval, (1e-200, 0.0), (1.0,) * 7) if k < 10
                       else PieceOde(3, odes[k].interval, (0.0, 0.0, 1e-320), (1.0,)))
        want = _first_failure([lambda p=p: piece_basis([p]) for p in odes]
                              + [lambda p=p: particular_solution([p]) for p in odes])
        got = _first_failure([lambda: piece_basis(odes), lambda: particular_solution(odes)])
        assert want is not None and got == want
        first = min(root_at) if root_at else min(particular_at)
        assert str(odes[first].coeffs[1] if root_at else odes[first].interval) in got[1]


def _sweep_stacks(seed):
    """The ODE rows of 480 problems drawn from solve-sweep's families, one
    stack per problem: order 2-4 and 1-16 pieces by index, coefficients
    uniform in [-2, 2] with a fixed 3 in 10 zeroed, a double real root or a
    complex pair plus roots in [-2, 2], forcing of degree 0-3."""
    rng = np.random.default_rng([2, seed])
    families = ("random",) * 4 + ("repeated", "complex")
    stacks = []
    for i in range(480):
        n, count, degree = 2 + i % 3, (1, 2, 3, 4, 6, 8, 12, 16)[i // 3 % 8], i // 24 % 4
        stack = []
        for k in range(count):
            family = families[(i * 7 + k) % 6]
            if family == "random":
                c = rng.uniform(-2.0, 2.0, n)
                coeffs = tuple(0.0 if (i * 5 + k * 3 + j * 7) % 10 < 3 else float(c[j])
                               for j in range(n))
            else:
                if family == "repeated":
                    roots = [rng.uniform(-2.0, 2.0)] * 2
                else:
                    alpha, beta = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0)
                    roots = [complex(alpha, beta), complex(alpha, -beta)]
                roots += list(rng.uniform(-2.0, 2.0, n - 2))
                coeffs = tuple(float(-c) for c in np.real(np.poly(roots))[::-1][:-1])
            forcing = tuple(float(q) for q in rng.uniform(-2.0, 2.0, degree + 1))
            stack.append(PieceOde(n, (float(k), k + 1.0), coeffs, forcing))
        stacks.append(stack)
    return stacks


class TestOdeStageMatchesFrozenCopies:
    """piece_basis and particular_solution give the bits of the frozen
    per-row and per-group passes in tests/kernel.py: kinds, powers, order,
    alpha, beta and particular coefficients, and the first failure's error."""

    @staticmethod
    def _check(stack):
        assert ([_basis_bits(b) for b in piece_basis(stack)]
                == [_basis_bits(b) for b in frozen_piece_basis(stack)])
        got, want = particular_solution(stack), frozen_particular_solution(stack)
        assert len(got) == len(want) and all(map(_bitwise, got, want))
        assert [len(p) for p in got] == [len(p) for p in want]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_families(self, seed):
        stacks = _sweep_stacks(seed)
        kinds = {(b.kind, b.k) for stack in stacks for basis in piece_basis(stack) for b in basis}
        assert {("ExpCos", 0), ("ExpSin", 0), ("PolyExp", 1)} <= kinds
        for stack in stacks:
            self._check(stack)

    def test_mixed_stack(self):
        self._check(_mixed_stack())

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 2, 1)])
    def test_first_failing_row_raises_first(self, monkeypatch, order):
        # Raw roots per row: fine, one complex root left unpaired, one
        # non-finite root, and a conjugate of the wrong multiplicity.  Rows
        # 1-3 all fail; row 1's error is raised, as the frozen row gives it.
        from obstacle_bvp import basis as basis_module
        rows = [[1.0, 2.0, 3.0], [1j, -2j, 2.0], [complex(math.inf, 0.0), 1.0, 2.0],
                [1 + 1j, 1 + 1j, 1 - 1j]]
        raw = [rows[k] for k in order]
        monkeypatch.setattr(basis_module, "_raw_roots", lambda char: raw)
        odes = [PieceOde(3, (float(k), k + 1.0), (float(k), 0.0, 0.0), (1.0,)) for k in range(4)]
        with pytest.raises(RootFindingError) as got:
            piece_basis(odes)
        with pytest.raises(RootFindingError) as want:
            frozen_real_basis(raw[1], [-a for a in odes[1].coeffs] + [1.0])
        assert str(got.value) == str(want.value)
        assert ("diverged" if order[1] == 2 else "unpaired complex root") in str(got.value)
