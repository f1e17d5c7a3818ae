"""Exact polynomial engine: field ops, gcd, Newton polishing."""

import math
from fractions import Fraction

import pytest

from poncelet.ratpoly import (
    GaussQ,
    Poly,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
)


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


class TestPolyArithmetic:
    def test_degree_and_strip(self):
        assert P(1, 2, 0, 0).degree == 1
        assert P(0, 0).is_zero()

    def test_mul_golden(self):
        # (624 - 627x + 99x^2)(x - 4) = -2496 + 3132x - 1023x^2 + 99x^3
        quad = P(624, -627, 99)
        lin = P(-4, 1)
        assert (quad * lin).c == P(-2496, 3132, -1023, 99).c

    def test_divmod_roundtrip(self):
        a = P(3, -2, 0, 5, 1)
        b = P(1, 4, 2)
        q, r = a.divmod(b)
        assert (q * b + r).c == a.c
        assert r.degree < b.degree

    def test_exact_division_of_factor(self):
        cubic = P(-2496, 3132, -1023, 99)
        q, r = cubic.divmod(P(-4, 1))
        assert r.is_zero()
        assert primitive(q).c == primitive(P(624, -627, 99)).c

    def test_gcd_of_products(self):
        g = P(1, 1, 1)
        a = g * P(2, 0, 1)
        b = g * P(-3, 1)
        got = poly_gcd(a, b)
        assert primitive(got).c == primitive(g).c

    def test_gcd_coprime_is_constant(self):
        assert poly_gcd(P(1, 1), P(2, 1)).degree == 0

    def test_primitive_normalization(self):
        p = Poly([Fraction(2, 3), Fraction(-4, 3), Fraction(2)])
        out = primitive(p)
        assert [c for c in out.c] == [Fraction(1), Fraction(-2), Fraction(3)]
        assert out.c[-1] > 0

    def test_normalize_pair_cancels_common_factor(self):
        g = P(1, 2, 1)
        a, b = normalize_pair(g * P(3, 1), g * P(1, 0, 2))
        assert a.degree == 1 and b.degree == 2

    def test_derivative(self):
        assert P(5, 3, 2, 1).derivative().c == P(3, 4, 3).c


class TestGaussQ:
    def test_field_ops(self):
        a = GaussQ(Fraction(1, 2), Fraction(3))
        b = GaussQ(2, Fraction(-1, 3))
        assert (a * b) / b == a
        assert a + b - b == a
        assert -(-a) == a

    def test_from_complex_exact(self):
        z = complex(0.5, -0.25)
        g = GaussQ.from_complex(z)
        assert g.re == Fraction(1, 2) and g.im == Fraction(-1, 4)
        assert complex(g) == z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussQ(1, 1) / GaussQ(0, 0)

    def test_poly_over_gauss(self):
        i = GaussQ(0, 1)
        p = Poly([i, GaussQ(1)])  # x + i
        q = Poly([-i, GaussQ(1)])  # x - i
        prod = p * q  # x^2 + 1
        assert prod.c[0] == GaussQ(1) and prod.c[2] == GaussQ(1) and not prod.c[1]


class TestExactNewton:
    def test_polish_real_root(self):
        p = P(-2496, 3132, -1023, 99)
        x, approx = exact_newton(p, complex(4.001, 0))
        assert abs(approx - 4) < 1e-30 or p.eval_exact(x) == 0

    def test_polish_clustered_roots_separate(self):
        # (x - 1)(x - 1.001)(x + 2) with exact rational coefficients
        p = P(1, 1) * Poly([Fraction(-1), Fraction(1)]) * Poly(
            [Fraction(-1001, 1000), Fraction(1)]
        )
        x1, a1 = exact_newton(p, complex(0.9995, 0))
        x2, a2 = exact_newton(p, complex(1.0006, 0))
        assert abs(a1 - 1) < 1e-12
        assert abs(a2 - 1.001) < 1e-12

    def test_complex_root(self):
        p = P(1, 0, 1)  # x^2 + 1
        _, approx = exact_newton(p, complex(0.1, 1.2))
        assert abs(approx - 1j) < 1e-12


class TestHugeIntegerCoefficients:
    """Integer coefficients past the float range convert without OverflowError."""

    BIG = 1 << 2000

    def test_scalar_conversions(self):
        from poncelet.chains import _mag
        from poncelet.ratpoly import _coeff_norm, _frac_to_float, to_complex

        assert _coeff_norm(self.BIG) == math.inf
        assert _frac_to_float(-self.BIG) == -math.inf
        assert to_complex(-self.BIG) == complex(-math.inf, 0.0)
        # wrap-residual magnitudes, taken from (re, im, den) integers
        assert _mag(self.BIG, 0, 1) == math.inf
        assert _mag(self.BIG, 1, 1) == math.inf
        assert _mag(self.BIG, -self.BIG, 3 * self.BIG) == math.hypot(1 / 3, 1 / 3)

    def test_poly_float_views(self):
        p = Poly([1, self.BIG])
        assert p.complex_coefficients()[0] == 0j
        assert p.complex_coefficients()[1] == 1

    def test_float_range_coefficients_convert_as_before(self):
        p = Poly([Fraction(1, 3), -7, 2 ** 1000, GaussQ(5, -2 ** 900)])
        scale = 2.0 ** 1000
        assert p.complex_coefficients() == (
            complex(1 / 3 / scale, 0.0), complex(-7 / scale, 0.0), 1 + 0j,
            complex(5 / scale, -(2.0 ** 900) / scale),
        )

    @pytest.mark.parametrize(
        "big", [3 ** 700, GaussQ(2 ** 1500, -(3 ** 1000))], ids=["int", "gauss"]
    )
    def test_roots_past_the_float_range(self, big):
        import numpy as np

        # big * (x + 1)(x - 2)(x - 3): every coefficient is over 1024 bits
        p = Poly([6 * big, 1 * big, -4 * big, 1 * big])
        coeffs = p.complex_coefficients()
        assert all(math.isfinite(abs(z)) for z in coeffs) and max(map(abs, coeffs)) == 1
        seeds = np.roots(np.array(coeffs[::-1], dtype=complex))
        polished = sorted(exact_newton(p, complex(s))[1].real for s in seeds)
        assert polished == [-1.0, 2.0, 3.0]

    def test_huge_values_stay_exact(self):
        p = Poly([self.BIG, 1])
        assert p.eval_exact(Fraction(1, 3)) == self.BIG + Fraction(1, 3)
