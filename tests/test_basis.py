import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_bvp.basis import (BasisFunction, RootFindingError, _real_basis,
                                basis_values, characteristic_coeffs, piece_basis)
from obstacle_bvp.model import PieceOde, normalize_piece
from kernel import basis_derivatives, frozen_real_basis

SQ3_HALF = math.sqrt(3.0) / 2.0


def _basis(c):
    """The basis of the monic characteristic polynomial c (ascending)."""
    n = len(c) - 1
    return piece_basis([PieceOde(n, (0.0, 1.0), tuple(-a for a in c[:-1]), (0.0,))])[0]


def _roots_of(basis):
    """The roots a basis stands for, with multiplicity: a PolyExp function is
    the root alpha, an ExpCos function the pair alpha +- i beta."""
    out = []
    for fn in basis:
        if fn.kind == "PolyExp":
            out.append(complex(fn.alpha, 0.0))
        elif fn.kind == "ExpCos":
            out += [complex(fn.alpha, fn.beta), complex(fn.alpha, -fn.beta)]
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
        roots = _roots_of(_basis([-1.0, 0.0, 1.0]))
        assert roots == pytest.approx([-1.0, 1.0])

    def test_cube_roots_of_unity(self):
        basis = _basis([-1.0, 0.0, 0.0, 1.0])
        values = _roots_of(basis)
        assert values[0] == pytest.approx(complex(-0.5, -SQ3_HALF))
        assert values[1] == pytest.approx(complex(-0.5, SQ3_HALF))
        assert values[2] == pytest.approx(complex(1.0, 0.0))
        # the pair's cosine and sine share alpha and beta exactly
        assert (basis[0].alpha, basis[0].beta) == (basis[1].alpha, basis[1].beta)

    def test_golden_ratio_pair(self):
        roots = _roots_of(_basis([-1.0, -1.0, 1.0]))
        assert roots == pytest.approx([(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2])

    def test_double_zero(self):
        assert _roots_of(_basis([0.0, 0.0, 1.0])) == [0.0, 0.0]

    def test_product_reconstruction_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = rng.integers(2, 5)
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            poly = np.array([1.0 + 0j])
            for root in _roots_of(_basis(coeffs.tolist())):
                poly = np.convolve(poly, [-root, 1.0])
            assert np.abs(poly.real - coeffs).max() <= 1e-8
            assert np.abs(poly.imag).max() <= 1e-8


class TestRealBasis:
    def test_two_real_roots(self):
        assert _basis([-1.0, 0.0, 1.0]) == (BasisFunction("PolyExp", 0, -1.0),
                                            BasisFunction("PolyExp", 0, 1.0))

    def test_complex_pair_plus_real(self):
        basis = _basis([-1.0, 0.0, 0.0, 1.0])
        assert [b.kind for b in basis] == ["ExpCos", "ExpSin", "PolyExp"]
        assert basis[0].alpha == pytest.approx(-0.5)
        assert basis[0].beta == pytest.approx(SQ3_HALF)
        assert basis[1].alpha == basis[0].alpha
        assert basis[2].alpha == pytest.approx(1.0)

    def test_double_zero_gives_affine_basis(self):
        assert _basis([0.0, 0.0, 1.0]) == (BasisFunction("PolyExp", 0, 0.0),
                                           BasisFunction("PolyExp", 1, 0.0))

    def test_unpaired_complex_root_rejected(self):
        with pytest.raises(RootFindingError, match="unpaired complex root 1j"):
            _real_basis([1j, 2.0], [0.0, 0.0, 0.0, 1.0])

    def test_conjugate_multiplicity_mismatch_rejected(self):
        # 1+i twice but 1-i once: a real basis built from the pair would
        # hold 4 functions for 3 roots.
        with pytest.raises(RootFindingError, match="unpaired complex root"):
            _real_basis([1 + 1j, 1 + 1j, 1 - 1j, 2.0], [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_length_matches_degree_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            coeffs = np.append(rng.uniform(-10, 10, n), 1.0)
            assert len(_basis(coeffs.tolist())) == n


# Polynomials near the merge tolerance tol (CLUSTER_TOL times the largest root
# modulus, at least 1): (ascending coefficients, raw roots as (real, imag),
# the basis as (kind, k, alpha.hex(), beta.hex())).  The raw roots are fixed
# here because the last bits of companion eigenvalues depend on the LAPACK
# build.  The bases must not move by a bit: solved constants, and so every
# printed result, depend on them.
_PINNED = [
    # real roots 1e-7 apart: merged
    ([1.0000001, -2.0000001000000003, 1.0],
     [(1.0000001016191367, 0.0),
      (0.9999999983808636, 0.0)],
     (('PolyExp', 0, '0x1.000000d6bf94ep+0', '0x0.0p+0'),
      ('PolyExp', 1, '0x1.000000d6bf94ep+0', '0x0.0p+0'))),
    # real roots 2e-6 apart: kept apart
    ([1.000002, -2.0000020000000003, 1.0],
     [(1.0000020001554606, 0.0),
      (0.9999999998445396, 0.0)],
     (('PolyExp', 0, '0x1.fffffffeaa239p-1', '0x0.0p+0'),
      ('PolyExp', 0, '0x1.0000218e9a2fbp+0', '0x0.0p+0'))),
    # real roots 5e-5 apart near 100: merged, as tol scales with the modulus
    ([10000.005000000001, -200.00005, 1.0],
     [(100.00004994181981, 0.0),
      (100.00000005818018, 0.0)],
     (('PolyExp', 0, '0x1.9000068db8bacp+6', '0x0.0p+0'),
      ('PolyExp', 1, '0x1.9000068db8bacp+6', '0x0.0p+0'))),
    # pair with imaginary part just above tol: kept complex
    ([0.25000000000225, -1.0, 1.0],
     [(0.5, 1.4999926605504917e-06),
      (0.5, -1.4999926605504917e-06)],
     (('ExpCos', 0, '0x1.0000000000000p-1', '0x1.92a6b5f31d19bp-20'),
      ('ExpSin', 0, '0x1.0000000000000p-1', '0x1.92a6b5f31d19bp-20'))),
    # pair with imaginary part just below tol: a double real root
    ([0.25000000000025, -1.0, 1.0],
     [(0.5, 5.000222246516501e-07),
      (0.5, -5.000222246516501e-07)],
     (('PolyExp', 0, '0x1.0000000000000p-1', '0x0.0p+0'),
      ('PolyExp', 1, '0x1.0000000000000p-1', '0x0.0p+0'))),
    # (l^2 + 1)^2: a double complex pair
    ([1.0, 0.0, 2.0, 0.0, 1.0],
     [(-3.74514191880948e-09, 0.9999999999774628),
      (-3.74514191880948e-09, -0.9999999999774628),
      (3.745142251876388e-09, 1.0000000000225382),
      (3.745142251876388e-09, -1.0000000000225382)],
     (('ExpCos', 0, '0x1.8000000000000p-53', '0x1.0000000000002p+0'),
      ('ExpCos', 1, '0x1.8000000000000p-53', '0x1.0000000000002p+0'),
      ('ExpSin', 0, '0x1.8000000000000p-53', '0x1.0000000000002p+0'),
      ('ExpSin', 1, '0x1.8000000000000p-53', '0x1.0000000000002p+0'))),
    # l^3: a triple zero
    ([0.0, 0.0, 0.0, 1.0],
     [(-0.0, 0.0),
      (0.0, 0.0),
      (0.0, 0.0)],
     (('PolyExp', 0, '0x0.0p+0', '0x0.0p+0'),
      ('PolyExp', 1, '0x0.0p+0', '0x0.0p+0'),
      ('PolyExp', 2, '0x0.0p+0', '0x0.0p+0'))),
    # (l^2 + 2l + 5)(l^2 + 1): two complex pairs
    ([5.0, 2.0, 6.0, 2.0, 1.0],
     [(3.469446951953614e-17, 1.0000000000000002),
      (3.469446951953614e-17, -1.0000000000000002),
      (-0.9999999999999998, 1.9999999999999996),
      (-0.9999999999999998, -1.9999999999999996)],
     (('ExpCos', 0, '-0x1.ffffffffffffep-1', '0x1.ffffffffffffep+0'),
      ('ExpSin', 0, '-0x1.ffffffffffffep-1', '0x1.ffffffffffffep+0'),
      ('ExpCos', 0, '0x1.4000000000000p-55', '0x1.0000000000001p+0'),
      ('ExpSin', 0, '0x1.4000000000000p-55', '0x1.0000000000001p+0'))),
    # (l - 2)^3: split wider than tol, so one real root and a pair
    ([-8.0, 12.0, -6.0, 1.0],
     [(2.0000081846639564, 1.4176411202408305e-05),
      (2.0000081846639564, -1.4176411202408305e-05),
      (1.9999836306720908, 0.0)],
     (('PolyExp', 0, '0x1.fffeed5e45a00p+0', '0x0.0p+0'),
      ('ExpCos', 0, '0x1.000044a86e984p+1', '0x1.dbae71ea13be3p-17'),
      ('ExpSin', 0, '0x1.000044a86e984p+1', '0x1.dbae71ea13be3p-17'))),
    # raw roots 7e-7 apart in a chain: the third starts a cluster of its own
    ([-1.00000210000098, 3.00000420000098, -3.0000021, 1.0],
     [(1.0, 0.0),
      (1.0000007, 0.0),
      (1.0000014, 0.0)],
     (('PolyExp', 0, '0x1.000005df3d11ep+0', '0x0.0p+0'),
      ('PolyExp', 1, '0x1.000005df3d11ep+0', '0x0.0p+0'),
      ('PolyExp', 0, '0x1.0000177cf4476p+0', '0x0.0p+0'))),
    # raw roots of l^2 - l + 1.25 with one moved 1.5e-6, within 2 tol of
    # the conjugate: paired and averaged
    ([1.25, -1.0, 1.0],
     [(0.5, 1.0),
      (0.5000015, -1.0)],
     (('ExpCos', 0, '0x1.0000192a73711p-1', '0x1.0000000000000p+0'),
      ('ExpSin', 0, '0x1.0000192a73711p-1', '0x1.0000000000000p+0'))),
]


class TestPinnedBases:
    @pytest.mark.parametrize("coeffs,raw,expected", _PINNED)
    def test_bitwise(self, coeffs, raw, expected):
        basis = _real_basis([complex(re, im) for re, im in raw], coeffs)
        assert tuple((b.kind, b.k, b.alpha.hex(), b.beta.hex()) for b in basis) == expected

    @pytest.mark.parametrize("coeffs,raw,expected", _PINNED)
    def test_equals_frozen_copy(self, coeffs, raw, expected):
        # Cluster merges, near-real snaps and conjugate pairing as the frozen
        # per-row pass of tests/kernel.py gives them, bit for bit.
        raw = [complex(re, im) for re, im in raw]
        assert _real_basis(raw, coeffs) == frozen_real_basis(raw, coeffs)
        assert ([(b.alpha.hex(), b.beta.hex()) for b in _real_basis(raw, coeffs)]
                == [(b.alpha.hex(), b.beta.hex()) for b in frozen_real_basis(raw, coeffs)])

    @pytest.mark.parametrize("raw", [
        [0.7, 0.7 + 1e-7, 0.7 + 2e-7],                           # a triple merge
        [0.7, 0.7 - 3e-7, 0.7 + 5e-7, 0.7 + 9e-7],               # a quadruple merge
        [1.1 + 1.3j, 1.1 - 1.3j, 1.1 + 3e-7 + 1.3j, 1.1 + 3e-7 - 1.3j],  # a double pair
        [-0.3 + 2e-7j, -0.3 - 4e-7j, 2.0 + 1e-7j],               # snapped, merged
    ])
    def test_merged_clusters_equal_frozen_copy(self, raw):
        coeffs = [0.5, -0.0, 0.0, 1.0, 0.0][:len(raw) + 1]
        got, want = _real_basis(raw, coeffs), frozen_real_basis(raw, coeffs)
        assert ([(b.kind, b.k, b.alpha.hex(), b.beta.hex()) for b in got]
                == [(b.kind, b.k, b.alpha.hex(), b.beta.hex()) for b in want])
        assert len(got) == len(raw) and any(b.k > 0 for b in got)

    @pytest.mark.parametrize("raw", [[1j, 2.0, 3.0], [1 + 1j, 1 + 1j, 1 - 1j],
                                     [complex(math.nan, 0.0), 1.0, 2.0]])
    def test_errors_equal_frozen_copy(self, raw):
        coeffs = [0.5, -0.0, 0.0, 1.0]
        with pytest.raises(RootFindingError) as got:
            _real_basis(raw, coeffs)
        with pytest.raises(RootFindingError) as want:
            frozen_real_basis(raw, coeffs)
        assert str(got.value) == str(want.value)


class TestEvalBasis:
    """One basis function at one point."""

    def test_exponential_value(self):
        fn = BasisFunction("PolyExp", 0, 1.0)
        assert basis_derivatives([fn], [0.0], 0)[0] == 1.0

    def test_exponential_derivative(self):
        fn = BasisFunction("PolyExp", 0, 1.0)
        assert basis_derivatives([fn], [1.0], 1)[0] == pytest.approx(math.e)

    def test_exp_cos_derivative_at_zero(self):
        fn = BasisFunction("ExpCos", 0, -0.5, SQ3_HALF)
        assert basis_derivatives([fn], [0.0], 1)[0] == pytest.approx(-0.5)

    def test_monomial_derivatives(self):
        fn = BasisFunction("PolyExp", 3, 0.0)
        assert basis_derivatives([fn], [2.0], 0)[0] == 8.0
        assert basis_derivatives([fn], [2.0], 1)[0] == 12.0
        assert basis_derivatives([fn], [2.0], 2)[0] == 12.0
        assert basis_derivatives([fn], [2.0], 3)[0] == 6.0
        assert basis_derivatives([fn], [2.0], 4)[0] == 0.0


def _one_point(fn, x, m):
    """The closed form at one point in numpy's scalar complex arithmetic."""
    lam, x = complex(fn.alpha, fn.beta), np.asarray(x, dtype=float)
    envelope = sum(math.comb(m, i) * math.perm(fn.k, i) * lam ** (m - i) * x ** (fn.k - i)
                   for i in range(min(fn.k, m) + 1))
    z = np.exp(lam * x) * envelope
    return z.imag if fn.kind == "ExpSin" else z.real


def _one_point_scale(fn, x, m):
    """|e^(lambda x)| times the sum of the magnitudes of the envelope's terms:
    the size the rounding of one evaluation is relative to."""
    lam = complex(fn.alpha, fn.beta)
    return math.exp(fn.alpha * x) * sum(
        math.comb(m, i) * math.perm(fn.k, i) * abs(lam) ** (m - i) * abs(x) ** (fn.k - i)
        for i in range(min(fn.k, m) + 1))


class TestBasisDerivatives:
    @pytest.mark.parametrize("kind", ["PolyExp", "ExpCos", "ExpSin"])
    def test_array_equals_scalar_calls_bitwise(self, kind):
        # An array call has the bits of one call per point; both lie within
        # 8 eps of numpy's scalar form of the closed form, relative to the
        # size of its terms.
        xs = np.linspace(-2.0, 3.0, 61)
        for alpha in (0.0, -0.8, 1.3):
            beta = 0.0 if kind == "PolyExp" else 1.7
            for k in range(4):
                fn = BasisFunction(kind, k, alpha, beta)
                for m in range(5):
                    scalar = np.array([basis_derivatives([fn], [x], m)[0] for x in xs])
                    assert np.array_equal(basis_derivatives([fn], xs[:, None], m)[:, 0],
                                          scalar), (fn, m)
                    one_point = np.array([_one_point(fn, x, m) for x in xs])
                    scale = np.array([_one_point_scale(fn, x, m) for x in xs])
                    assert (np.abs(scalar - one_point) <= 8 * EPS * scale).all(), (fn, m)

    def test_columns_equal_one_function_calls(self):
        fns = [BasisFunction("ExpCos", 1, -0.5, 2.0), BasisFunction("ExpSin", 0, -0.5, 2.0),
               BasisFunction("PolyExp", 2, 0.0), BasisFunction("PolyExp", 1, 1.5)]
        x = np.linspace(-1.0, 2.0, 20).reshape(5, 4)
        for orders in ([0, 3, 2, 4], 2):
            got = basis_derivatives(fns, x, orders)
            assert got.shape == x.shape
            for j, fn in enumerate(fns):
                m = orders if isinstance(orders, int) else orders[j]
                one = basis_derivatives([fn], x[:, j, None], m)[:, 0]
                assert np.array_equal(got[:, j], one)

    def test_overflow_is_silent_and_non_finite(self):
        fns = [BasisFunction("PolyExp", 0, 1.0), BasisFunction("ExpSin", 1, 1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = basis_derivatives(fns, np.array([800.0, 800.0]), 1)
        assert not np.isfinite(got).any()


EPS = sys.float_info.epsilon


def _lambda_family(seed, per_kind_k):
    """Functions of every kind and power k whose lambdas mix +-0,
    subnormals, +-1e+-100, |lambda| = 1e80 (the fourth power overflows) and
    ordinary draws."""
    rng = np.random.default_rng(seed)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-100, -1e-100,
               1e100, -1e100, 1e80, -1e80]
    def draw():
        return (float(rng.choice(special)) if rng.random() < 0.6
                else float(rng.normal() * 10.0 ** rng.integers(-3, 4)))
    fns = []
    for kind in ("PolyExp", "ExpCos", "ExpSin"):
        for k in range(4):
            fns.append(BasisFunction(kind, k, 1e80) if kind == "PolyExp"
                       else BasisFunction(kind, k, 6e79, 8e79))
            for _ in range(per_kind_k):
                alpha = draw()
                beta = (float(rng.choice([0.0, -0.0])) if kind == "PolyExp"
                        else abs(draw()) or 1e-300)
                fns.append(BasisFunction(kind, k, alpha, beta))
    return fns


_SPECIAL_X = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-300, 800.0]


def _points(rng, shape):
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 2, size=shape)
    hit = rng.random(shape) < 0.15
    x[hit] = rng.choice(_SPECIAL_X, size=int(hit.sum()))
    return x


def _same_bits(a, b):
    """Equal bits, zero signs included, where b is a number; NaN where b is
    NaN.  Which operand's NaN a product of two NaNs carries is up to the
    compiled numpy loop, so a NaN's sign and payload are not compared."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    number = ~np.isnan(b)
    return a[number].tobytes() == b[number].tobytes()


def _one_entry(fns, x, orders):
    """basis_values entry by entry: one call per function, point and order."""
    x, orders, _ = np.broadcast_arrays(np.asarray(x, dtype=float), orders, np.empty(len(fns)))
    out = np.empty(x.shape)
    for at in np.ndindex(x.shape):
        out[at] = basis_values([fns[at[-1]]], x[at][None], orders[at][None])[0]
    return out


class TestKernelTerms:
    def test_array_terms_equal_scalar_expression_bitwise(self):
        """basis_values over many functions, points and orders at once gives,
        bit for bit with zero signs, one call per entry: no entry's bits
        depend on the others, on lambdas that mix +-0, subnormals, 1e100 and
        powers that overflow."""
        rng = np.random.default_rng(19)
        fns = _lambda_family(19, 6)
        x = _points(rng, (5, len(fns)))
        orders = rng.integers(0, 5, size=(5, len(fns)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = basis_values(fns, x, orders)
        assert _same_bits(got, _one_entry(fns, x, orders))
        assert not np.isfinite(got).all() and np.isfinite(got).any()

    def test_terms_within_bound_of_exact_reference(self):
        """At x = 0 the m-th derivative of x^k e^(lambda x) is
        comb(m, k) k! lambda^(m - k), the only term whose power of x is
        x^0; exp(0) = 1 exactly.  Each finite value lies within
        2 p eps K |lambda|^p + p K 2^-1074 of its exact value in Fractions of
        lambda's float parts, p = m - k and K = comb(m, k) k!: lambda^p takes
        p - 1 complex products and one product with K.  A value may be
        non-finite only in an order m whose exact |lambda|^m, grown by the
        bound, passes the largest float (an overflowing power times 0)."""
        eps, tiny, huge = Fraction(2) ** -52, Fraction(2) ** -1074, Fraction(sys.float_info.max)
        fns = _lambda_family(23, 20)
        overflowed = 0
        for m in range(5):
            values = basis_values(fns, np.zeros(len(fns)), m)
            for fn, got in zip(fns, values.tolist()):
                re, im = Fraction(fn.alpha), Fraction(fn.beta)
                if fn.k > m:
                    assert got == 0.0, (fn, m)
                    continue
                if not math.isfinite(got):
                    beyond = (re * re + im * im) ** m * (1 + 2 * m * eps) ** 2 > huge ** 2
                    assert beyond, (fn, m, got)
                    overflowed += 1
                    continue
                p, factor = m - fn.k, math.comb(m, fn.k) * math.factorial(fn.k)
                z = (Fraction(1), Fraction(0))
                for _ in range(p):
                    z = (z[0] * re - z[1] * im, z[0] * im + z[1] * re)
                want = factor * (z[1] if fn.kind == "ExpSin" else z[0])
                scale = 2 * p * eps * factor
                err = abs(Fraction(got) - want) - p * factor * tiny
                assert err <= 0 or err * err <= scale * scale * (re * re + im * im) ** p, \
                    (fn, m, got, float(want))
        assert overflowed > 0

    def test_overflowing_power_is_non_finite_and_silent(self):
        """lambda = 1e80 (1 + i): lambda ** 4 overflows, lambda ** 3 does not.
        Order 4 is non-finite at every point, order 3 finite at x = 0 and
        1e-90; nothing raises or warns."""
        fn = BasisFunction("ExpSin", 2, 1e80, 1e80)
        x = np.array([-1.0, 0.0, 1e-90, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = basis_values([fn], x[:, None], np.array([[3], [4]])[:, None])
        assert np.isfinite(values[0, 1:3]).all()
        assert not np.isfinite(values[1]).any()


def _kernel_family(rng):
    """Seeded bases: all lambda = +-0 with k <= 3, lambda = +-0 mixed with
    real and complex lambdas, conjugate pairs, and repeated roots (real and
    complex), some lambda parts +-0.0."""
    def zero():
        return float(rng.choice([0.0, -0.0]))

    def pair(alpha, beta, ks):
        return [BasisFunction(kind, k, alpha, beta) for kind in ("ExpCos", "ExpSin") for k in ks]

    family = []
    for _ in range(12):
        family.append([BasisFunction("PolyExp", k, zero()) for k in range(rng.integers(1, 5))])
        family.append([BasisFunction("PolyExp", k, zero()) for k in range(rng.integers(1, 3))]
                      + [BasisFunction("PolyExp", 0, float(rng.normal()))]
                      + pair(zero() if rng.random() < 0.3 else float(rng.normal()),
                             float(rng.uniform(0.2, 3.0)), [0]))
        family.append(pair(float(rng.normal()), float(rng.uniform(0.2, 3.0)), [0])
                      + pair(zero(), float(rng.uniform(0.2, 3.0)), [0]))
        alpha = float(rng.normal())
        family.append([BasisFunction("PolyExp", k, alpha) for k in range(rng.integers(2, 5))]
                      + pair(float(rng.normal()), float(rng.uniform(0.2, 3.0)), [0, 1]))
    return family


class TestKernelEvaluationIsFrozen:
    """basis_values is elementwise: every entry has the bits of its one-entry
    evaluation, zero and NaN signs included, on the shapes the solver and
    the tests pass (a Wronskian's orders down one axis, one order per
    column, one per entry), at points that include +-0, +-inf, NaN and
    overflowing ones."""

    def test_every_column_at_every_point(self):
        rng = np.random.default_rng(20)
        for fns in _kernel_family(rng):
            x = _points(rng, (int(rng.integers(1, 20)), 1))
            for m in range(5):
                got = basis_values(fns, x, m)
                assert _same_bits(got, _one_entry(fns, x, m)), (fns, m)

    def test_taken_entries_at_their_own_points(self):
        rng = np.random.default_rng(21)
        for fns in _kernel_family(rng):
            rows = int(rng.integers(1, 5))
            x = _points(rng, (rows, len(fns)))
            for orders in (rng.integers(0, 5, size=(rows, 1)), rng.integers(0, 5, size=len(fns)),
                           rng.integers(0, 5, size=(rows, len(fns)))):
                assert _same_bits(basis_values(fns, x, orders), _one_entry(fns, x, orders)), fns

    def test_zero_tables_skip_exp_and_mixed_tables_share_it(self):
        # lambda = +-0: e^(lambda x) is exactly 1 at finite x, so x^k's
        # derivatives come out exact at dyadic points, alone or beside
        # columns with other lambdas.
        zero = [BasisFunction("PolyExp", k, s) for k, s in ((0, 0.0), (1, -0.0), (2, 0.0), (3, 0.0))]
        pair = [BasisFunction("ExpCos", 0, -0.5, 0.8), BasisFunction("ExpSin", 0, -0.5, 0.8)]
        x = np.array([0.0, -0.0, 0.5, -1.25, 3.0])[:, None]
        for m in range(5):
            want = [[float(math.perm(fn.k, m) * Fraction(v) ** max(fn.k - m, 0)) for fn in zero]
                    for v in x[:, 0].tolist()]
            alone = basis_values(zero, x, m)
            assert alone.tolist() == want
            mixed = basis_values(pair + zero, x, m)
            assert _same_bits(mixed[:, 2:], alone)

    def test_zero_table_is_nan_where_exp_would_be(self):
        fns = [BasisFunction("PolyExp", 0, 0.0), BasisFunction("PolyExp", 1, 0.0)]
        x = np.array([math.inf, -math.inf, math.nan, -math.nan, 1.5, -0.0])[:, None]
        got = np.array([basis_values(fns, x, m) for m in (0, 1)])
        assert np.isnan(got[:, :4]).all()
        assert np.isfinite(got[:, 4:]).all()


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
        fd = (basis_derivatives([fn], [x + h], k)[0]
              - basis_derivatives([fn], [x - h], k)[0]) / (2 * h)
        exact = basis_derivatives([fn], [x], k + 1)[0]
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
                lhs = basis_derivatives([fn], [x], order)[0]
                for j, aj in enumerate(coeffs):
                    lhs -= aj * basis_derivatives([fn], [x], j)[0]
                assert abs(lhs) <= 1e-9

    def test_random_operators(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            order = int(rng.integers(2, 4))
            coeffs = tuple(rng.uniform(-3, 3, order))
            piece = PieceOde(order, (0.0, 1.0), coeffs, (0.0,))
            for fn in piece_basis([piece])[0]:
                for x in np.linspace(0.0, 1.0, 20):
                    lhs = basis_derivatives([fn], [x], order)[0]
                    for j, aj in enumerate(coeffs):
                        lhs -= aj * basis_derivatives([fn], [x], j)[0]
                    scale = 1.0 + abs(basis_derivatives([fn], [x], 0)[0])
                    assert abs(lhs) <= 1e-9 * scale
