import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_bvp.basis import (BasisFunction, CharRoot, RootFindingError,
                                basis_derivatives, characteristic_coeffs,
                                eval_basis, find_roots, monomial, piece_basis,
                                real_basis)
from obstacle_bvp.model import PieceOde, normalize_piece

SQ3_HALF = math.sqrt(3.0) / 2.0


def _roots_set(roots):
    out = []
    for r in roots:
        out.extend([complex(r.value)] * r.multiplicity)
    return sorted(out, key=lambda z: (z.real, z.imag))


class TestCharacteristicCoeffs:
    def test_coupled_second_order(self):
        piece = PieceOde(2, (0.25, 0.75), (1.0, 0.0), (-1.0,))
        assert characteristic_coeffs([piece])[0].tolist() == [-1.0, 0.0, 1.0, 0.0, 0.0]

    def test_coupled_third_order(self):
        piece = PieceOde(3, (0.25, 0.75), (1.0, 0.0, 0.0), (-1.0,))
        assert characteristic_coeffs([piece])[0].tolist() == [-1.0, 0.0, 0.0, 1.0, 0.0]

    def test_uncoupled(self):
        piece = PieceOde(2, (0.0, 1.0), (0.0, 0.0), (0.0,))
        assert characteristic_coeffs([piece])[0].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]


class TestFindRoots:
    def test_plus_minus_one(self):
        roots = _roots_set(find_roots([-1.0, 0.0, 1.0]))
        assert roots == pytest.approx([-1.0, 1.0])

    def test_cube_roots_of_unity(self):
        roots = find_roots([-1.0, 0.0, 0.0, 1.0])
        values = _roots_set(roots)
        assert values[0] == pytest.approx(complex(-0.5, -SQ3_HALF))
        assert values[1] == pytest.approx(complex(-0.5, SQ3_HALF))
        assert values[2] == pytest.approx(complex(1.0, 0.0))
        # conjugate symmetry is exact, not approximate
        assert values[0] == values[1].conjugate()

    def test_golden_ratio_pair(self):
        roots = _roots_set(find_roots([-1.0, -1.0, 1.0]))
        assert roots == pytest.approx([(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])

    def test_double_zero(self):
        roots = find_roots([0.0, 0.0, 1.0])
        assert len(roots) == 1
        assert roots[0].value == 0.0
        assert roots[0].multiplicity == 2

    def test_rejects_non_monic(self):
        with pytest.raises(RootFindingError):
            find_roots([1.0, 0.0, 2.0])

    def test_rejects_bad_degree(self):
        with pytest.raises(RootFindingError):
            find_roots([1.0, 1.0])

    def test_product_reconstruction_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(2, 5)
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            roots = find_roots(coeffs)
            poly = np.array([1.0 + 0j])
            for r in roots:
                for _ in range(r.multiplicity):
                    poly = np.convolve(poly, [-r.value, 1.0])
            assert np.abs(poly.real - coeffs).max() <= 1e-8
            assert np.abs(poly.imag).max() <= 1e-8


class TestRealBasis:
    def test_two_real_roots(self):
        basis = real_basis([CharRoot(-1.0 + 0j, 1), CharRoot(1.0 + 0j, 1)])
        assert basis == [BasisFunction("PolyExp", 0, -1.0),
                         BasisFunction("PolyExp", 0, 1.0)]

    def test_complex_pair_plus_real(self):
        roots = find_roots([-1.0, 0.0, 0.0, 1.0])
        basis = real_basis(roots)
        assert [b.kind for b in basis] == ["ExpCos", "ExpSin", "PolyExp"]
        assert basis[0].alpha == pytest.approx(-0.5)
        assert basis[0].beta == pytest.approx(SQ3_HALF)
        assert basis[1].alpha == basis[0].alpha
        assert basis[2].alpha == pytest.approx(1.0)

    def test_double_zero_gives_affine_basis(self):
        basis = real_basis([CharRoot(0j, 2)])
        assert basis == [monomial(0), monomial(1)]

    def test_unpaired_complex_root_rejected(self):
        with pytest.raises(RootFindingError):
            real_basis([CharRoot(1j, 1), CharRoot(2.0 + 0j, 1)])

    def test_conjugate_multiplicity_mismatch_rejected(self):
        # 1+i twice but 1-i once: total multiplicity 3, yet a real basis
        # built from the pair would hold 4 functions.
        with pytest.raises(RootFindingError):
            real_basis([CharRoot(1 + 1j, 2), CharRoot(1 - 1j, 1)])

    def test_length_matches_degree_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            assert len(real_basis(find_roots(coeffs))) == n


class TestEvalBasis:
    def test_exponential_value(self):
        assert eval_basis(BasisFunction("PolyExp", 0, 1.0), 0.0, 0) == 1.0

    def test_exponential_derivative(self):
        assert eval_basis(BasisFunction("PolyExp", 0, 1.0), 1.0, 1) == pytest.approx(math.e)

    def test_exp_cos_derivative_at_zero(self):
        fn = BasisFunction("ExpCos", 0, -0.5, SQ3_HALF)
        assert eval_basis(fn, 0.0, 1) == pytest.approx(-0.5)

    def test_monomial_derivatives(self):
        fn = monomial(3)
        assert eval_basis(fn, 2.0, 0) == 8.0
        assert eval_basis(fn, 2.0, 1) == 12.0
        assert eval_basis(fn, 2.0, 2) == 12.0
        assert eval_basis(fn, 2.0, 3) == 6.0
        assert eval_basis(fn, 2.0, 4) == 0.0

    def test_rejects_order_out_of_range(self):
        with pytest.raises(ValueError):
            eval_basis(monomial(1), 0.0, 5)


def _one_point(fn, x, m):
    """The closed form at one point in numpy's scalar complex arithmetic."""
    lam, x = complex(fn.alpha, fn.beta), np.asarray(x, dtype=float)
    envelope = sum(math.comb(m, i) * math.perm(fn.k, i) * lam ** (m - i) * x ** (fn.k - i)
                   for i in range(min(fn.k, m) + 1))
    z = np.exp(lam * x) * envelope
    return z.imag if fn.kind == "ExpSin" else z.real


class TestBasisDerivatives:
    @pytest.mark.parametrize("kind", ["PolyExp", "ExpCos", "ExpSin"])
    def test_array_equals_scalar_calls_bitwise(self, kind):
        xs = np.linspace(-2.0, 3.0, 61)
        for alpha in (0.0, -0.8, 1.3):
            beta = 0.0 if kind == "PolyExp" else 1.7
            for k in range(4):
                fn = BasisFunction(kind, k, alpha, beta)
                for m in range(5):
                    one_point = np.array([_one_point(fn, x, m) for x in xs])
                    scalar = np.array([eval_basis(fn, x, m) for x in xs])
                    assert np.array_equal(scalar, one_point), (fn, m)
                    assert np.array_equal(eval_basis(fn, xs, m), one_point), (fn, m)

    def test_columns_equal_one_function_calls(self):
        fns = [BasisFunction("ExpCos", 1, -0.5, 2.0), BasisFunction("ExpSin", 0, -0.5, 2.0),
               monomial(2), BasisFunction("PolyExp", 1, 1.5)]
        x = np.linspace(-1.0, 2.0, 20).reshape(5, 4)
        for orders in ([0, 3, 2, 4], 2):
            got = basis_derivatives(fns, x, orders)
            assert got.shape == x.shape
            for j, fn in enumerate(fns):
                m = orders if isinstance(orders, int) else orders[j]
                assert np.array_equal(got[:, j], eval_basis(fn, x[:, j], m))

    def test_overflow_is_silent_and_non_finite(self):
        fns = [BasisFunction("PolyExp", 0, 1.0), BasisFunction("ExpSin", 1, 1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = basis_derivatives(fns, np.array([800.0, 800.0]), 1)
        assert not np.isfinite(got).any()


_basis_fn = st.one_of(
    st.builds(BasisFunction,
              kind=st.just("PolyExp"),
              k=st.integers(0, 3),
              alpha=st.floats(-3, 3)),
    st.builds(BasisFunction,
              kind=st.sampled_from(["ExpCos", "ExpSin"]),
              k=st.integers(0, 3),
              alpha=st.floats(-3, 3),
              beta=st.floats(0.1, 3)),
)


class TestDerivativeConsistency:
    @settings(max_examples=200, deadline=None)
    @given(fn=_basis_fn, x=st.floats(-1.0, math.pi), k=st.integers(0, 3))
    def test_matches_central_difference(self, fn, x, k):
        h = 1e-5
        fd = (eval_basis(fn, x + h, k) - eval_basis(fn, x - h, k)) / (2 * h)
        exact = eval_basis(fn, x, k + 1)
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))


class TestOperatorAnnihilation:
    @pytest.mark.parametrize("coeffs,order", [
        ((1.0, 0.0), 2),
        ((-1.0, 0.0), 2),
        ((1.0, 1.0), 2),
        ((-2.0, 0.0), 2),
        ((1.0, 0.0, 0.0), 3),
        ((0.0, 0.0), 2),
        ((0.0, 0.0, 0.0), 3),
    ])
    def test_example_operators(self, coeffs, order):
        piece = PieceOde(order, (0.0, 1.0), coeffs, (0.0,))
        for fn in piece_basis([piece])[0]:
            for x in np.linspace(0.0, 1.0, 100):
                lhs = eval_basis(fn, x, order)
                for j, aj in enumerate(coeffs):
                    lhs -= aj * eval_basis(fn, x, j)
                assert abs(lhs) <= 1e-9

    def test_random_operators(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            order = int(rng.integers(2, 4))
            coeffs = tuple(rng.uniform(-3, 3, order))
            piece = PieceOde(order, (0.0, 1.0), coeffs, (0.0,))
            for fn in piece_basis([piece])[0]:
                for x in np.linspace(0.0, 1.0, 20):
                    lhs = eval_basis(fn, x, order)
                    for j, aj in enumerate(coeffs):
                        lhs -= aj * eval_basis(fn, x, j)
                    scale = 1.0 + abs(eval_basis(fn, x, 0))
                    assert abs(lhs) <= 1e-9 * scale
