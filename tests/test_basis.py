import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obstacle_bvp.basis import (BasisFunction, RootFindingError, _real_basis,
                                basis_terms, characteristic_coeffs, eval_terms,
                                piece_basis, take_terms)
from obstacle_bvp.model import PieceOde, normalize_piece
from kernel import basis_derivatives

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
                    scalar = np.array([basis_derivatives([fn], [x], m)[0] for x in xs])
                    assert np.array_equal(scalar, one_point), (fn, m)
                    assert np.array_equal(basis_derivatives([fn], xs[:, None], m)[:, 0],
                                          one_point), (fn, m)

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


def _scalar_terms(fn, m):
    """Term coefficients of fn's m-th derivative as (real, imaginary) pairs,
    by the kernel's definition written out for one term at a time: the
    integer factor K times each part of lam ** (m - i), the power from the
    complex products lam * lam, lam * lam ** 2 and lam ** 2 * lam ** 2."""
    lam = complex(fn.alpha, fn.beta)
    sq = lam * lam
    powers = (1 + 0j, lam, sq, lam * sq, sq * sq)
    cs = []
    for i in range(min(fn.k, m) + 1):
        factor, z = math.comb(m, i) * math.perm(fn.k, i), powers[m - i]
        c = (factor * z.real, factor * z.imag)
        cs.append((c[1], -c[0]) if fn.kind == "ExpSin" else c)  # Im(z) = Re(-i z)
    return cs


def _bits(v):
    return np.float64(v).view(np.int64)


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


class TestKernelTerms:
    def test_array_terms_equal_scalar_expression_bitwise(self):
        """basis_terms applies comb(m, i) * perm(k, i) in array form.  It
        must give, bit for bit with zero and NaN signs, the scalar form of
        the kernel's definition: K times each part of the power, with no
        cross term, so no interpreter's int * complex rule enters."""
        rng = np.random.default_rng(19)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e100, -1e100,
                   1e80, -1e80]  # |lambda| = 1e80: the fourth power overflows
        def draw():
            return (float(rng.choice(special)) if rng.random() < 0.6
                    else float(rng.normal() * 10.0 ** rng.integers(-3, 4)))
        fns = []
        for _ in range(40):
            for kind in ("PolyExp", "ExpCos", "ExpSin"):
                for k in range(4):
                    alpha = draw()
                    beta = (float(rng.choice([0.0, -0.0])) if kind == "PolyExp"
                            else abs(draw()) or 1e-300)
                    fns.append(BasisFunction(kind, k, alpha, beta))
        terms = basis_terms(fns, 4)
        coefs, powers = terms.coefs, terms.powers
        assert coefs.shape[2] == 4  # min(k_max, top) + 1 terms
        overflowed = 0
        for m in range(5):
            for j, fn in enumerate(fns):
                cs = _scalar_terms(fn, m)
                overflowed += not all(map(math.isfinite, cs[0]))
                for i in range(coefs.shape[2]):
                    want = cs[i] if i < len(cs) else (0.0, 0.0)
                    got = coefs[j, m, i]
                    assert (_bits(got[0]), _bits(got[1])) == (_bits(want[0]), _bits(want[1])), \
                        (fn, m, i)
                    assert powers[j, m, i] == (fn.k - i if i < len(cs) else 0)
        assert overflowed > 0
        assert any(math.copysign(1.0, float(c)) < 0 for c in coefs[..., 1].ravel()
                   if c == 0.0)

    def test_terms_within_bound_of_exact_reference(self):
        """Each part of every finite coefficient lies within
        2 p eps K |lambda|^p + p K 2^-1074 of the exact value of
        comb(m, i) perm(k, i) lambda^p, p = m - i, computed in Fractions
        from lambda's float parts.  A power takes p - 1 complex products
        and one product with K, each adding at most about eps K |lambda|^p
        to a part; the second term covers underflow.  A coefficient may be
        non-finite only in an order m whose exact |lambda|^m, grown by the
        bound, passes the largest float."""
        eps, tiny, huge = Fraction(2) ** -52, Fraction(2) ** -1074, Fraction(sys.float_info.max)
        fns = _lambda_family(23, 20)
        coefs = basis_terms(fns, 4).coefs
        overflowed = 0
        for j, fn in enumerate(fns):
            re, im = Fraction(fn.alpha), Fraction(fn.beta)
            exact = [(Fraction(1), Fraction(0))]
            for _ in range(4):
                a, b = exact[-1]
                exact.append((a * re - b * im, a * im + b * re))
            modulus2 = [(re * re + im * im) ** p for p in range(5)]
            for m in range(5):
                beyond = modulus2[m] * (1 + 2 * m * eps) ** 2 > huge ** 2
                for i in range(coefs.shape[2]):
                    got = coefs[j, m, i].tolist()
                    if i > min(fn.k, m):
                        assert got == [0.0, 0.0], (fn, m, i)
                        continue
                    if not all(map(math.isfinite, got)):
                        assert beyond, (fn, m, i, got)
                        overflowed += 1
                        continue
                    p, factor = m - i, math.comb(m, i) * math.perm(fn.k, i)
                    z = exact[p]
                    want = (factor * z[1], -factor * z[0]) if fn.kind == "ExpSin" \
                        else (factor * z[0], factor * z[1])
                    scale = 2 * p * eps * factor
                    for part, ref in zip(got, want):
                        err = abs(Fraction(part) - ref) - p * factor * tiny
                        assert err <= 0 or err * err <= scale * scale * modulus2[p], \
                            (fn, m, i, got, float(ref))
        assert overflowed > 0

    def test_overflowing_power_is_non_finite_and_silent(self):
        """lambda = 1e80 (1 + i): lambda ** 4 overflows, lambda ** 3 does not.
        Only the term that takes the fourth power is non-finite, and order 4
        evaluates to non-finite values; nothing raises or warns."""
        fn = BasisFunction("ExpSin", 2, 1e80, 1e80)
        x = np.array([-1.0, 0.0, 1e-90, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terms = basis_terms([fn], 4)
            values = eval_terms(terms, x, [3, 4])
        coefs = terms.coefs
        assert np.isfinite(coefs[0, :4, :3]).all()
        assert np.isfinite(coefs[0, 4, 1:3]).all()
        assert not np.isfinite(coefs[0, 4, 0]).all()
        assert not np.isfinite(values[1]).any()


def _frozen_eval(terms, x, sets, columns=None):
    """The kernel's evaluation as it was before it skipped work, kept
    frozen here: complex exp(lambda x) over every column, the powers of x
    as a list picked by np.choose term by term, one order set at a time.
    columns None evaluates every column of a basis_terms table at x with a
    last axis of 1; otherwise sets and columns are index arrays taken as
    take_terms takes them.  Returns one array per set."""
    lams, coefs, powers = terms.lams, terms.coefs, terms.powers
    if columns is None:
        k_max, real = terms.k_max, terms.real
        counts = [min(k_max, m) + 1 for m in range(coefs.shape[1])]
    else:
        lams, coefs = lams[columns], coefs[columns, sets][..., None, :, :]
        powers = powers[columns, sets][..., None, :]
        k_max = int(powers[..., 0].max(initial=0))
        real, counts, sets = terms.real or not lams.imag.any(), [min(k_max + 1, coefs.shape[-2])], [0]
    with np.errstate(over="ignore", invalid="ignore"):
        x_pows = [1.0] + [x ** p for p in range(1, k_max + 1)]
        e = np.exp(lams * x)
        out = []
        for s in sets:
            c = coefs[..., s, :, :]
            if k_max == 0:
                env_r, env_i = c[..., 0, 0], c[..., 0, 1]
            else:
                env_r = env_i = 0.0
                for i in range(counts[s]):
                    xp = np.choose(powers[..., s, i], x_pows)
                    env_r = env_r + c[..., i, 0] * xp
                    if not real:
                        env_i = env_i + c[..., i, 1] * xp
            out.append(e.real * env_r if real else e.real * env_r - e.imag * env_i)
    return out


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


class TestKernelEvaluationIsFrozen:
    """eval_terms skips exp where every lambda is +-0, runs one exp per
    distinct lambda and gathers the powers of x from one table; it must
    give the frozen evaluation's bits, zero and NaN signs included, on the
    point shapes ClosedForm._combine and assemble_system pass."""

    def test_every_column_at_every_point(self):
        rng = np.random.default_rng(20)
        for fns in _kernel_family(rng):
            terms = basis_terms(fns, 4)
            x = _points(rng, int(rng.integers(1, 60)))
            for sets in ([0], [4], [0, 1, 2, 3, 4], [3, 0, 2], [1, 4]):
                got = eval_terms(terms, x, sets)
                for row, want in zip(got, _frozen_eval(terms, x[:, None], sets)):
                    assert _same_bits(row, want.T), (fns, sets)

    def test_taken_entries_at_their_own_points(self):
        rng = np.random.default_rng(21)
        family = _kernel_family(rng)
        for a, b in zip(family[::2], family[1::2]):
            fns, n = a + b, min(len(a), len(b))
            top = int(rng.integers(0, 5))
            terms = basis_terms(fns, top)
            pieces = int(rng.integers(1, 6))
            # per piece, n columns of a or of b
            column = np.array([rng.permutation(len(a))[:n] if rng.random() < 0.5
                               else len(a) + rng.permutation(len(b))[:n] for _ in range(pieces)])
            rows = int(rng.integers(1, 5))
            sets, owner = rng.integers(0, top + 1, size=(rows, 1)), rng.integers(0, pieces, rows)
            x = _points(rng, (rows, n))
            got = eval_terms(take_terms(terms, sets, column[owner]), x, [0])[0]
            assert _same_bits(got, _frozen_eval(terms, x, sets, column[owner])[0]), fns
            orders = np.arange(top + 1)[:, None, None]
            x = _points(rng, (2, 1, pieces, n))
            got = eval_terms(take_terms(terms, orders, column[None, None]), x, [0])[0]
            assert _same_bits(got, _frozen_eval(terms, x, orders, column)[0]), fns

    def test_zero_tables_skip_exp_and_mixed_tables_share_it(self):
        zero = basis_terms([BasisFunction("PolyExp", k, s) for k, s in ((0, 0.0), (1, -0.0), (2, 0.0))], 3)
        assert zero.zero and zero.real and zero.exp_index.tolist() == [0, 1, 0]
        pair = [BasisFunction("ExpCos", 0, -0.5, 0.8), BasisFunction("ExpSin", 0, -0.5, 0.8)]
        mixed = basis_terms(pair + [BasisFunction("PolyExp", 0, 0.0), BasisFunction("PolyExp", 1, 0.0),
                                    BasisFunction("PolyExp", 0, -0.0)], 4)
        assert not mixed.zero and not mixed.real
        assert mixed.exp_index.tolist() == [0, 0, 1, 1, 2]  # +0.0 and -0.0 apart
        assert mixed.exps[:, 0].tolist() == [complex(-0.5, 0.8), 0j, complex(-0.0, 0.0)]

    def test_zero_table_is_nan_where_exp_would_be(self):
        terms = basis_terms([BasisFunction("PolyExp", 0, 0.0), BasisFunction("PolyExp", 1, 0.0)], 1)
        x = np.array([math.inf, -math.inf, math.nan, -math.nan, 1.5, -0.0])
        got = eval_terms(terms, x, [0, 1])
        for row, want in zip(got, _frozen_eval(terms, x[:, None], [0, 1])):
            assert _same_bits(row, want.T)
        assert np.isnan(got[:, :, :4]).all()


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
