"""Exact polynomial engine: ring ops over Z and Z[i], gcd, Newton polishing."""

import math
from fractions import Fraction

import pytest

from poncelet.ratpoly import (
    GaussInt,
    Poly,
    _exact_div,
    _exact_quo,
    _gauss_fraction,
    _gcd,
    _hom_eval,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
)
from poncelet.roots import isolate_roots
from ratpoly_reference import as_gauss, field_divmod, field_value, horner


def P(*coeffs):
    """An integer polynomial, coefficients ascending: the engine's contract."""
    return Poly(coeffs)


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
        # the field division the reference Euclid runs on
        a = P(3, -2, 0, 5, 1)
        b = P(1, 4, 2)
        q, r = field_divmod(a, b)
        assert (a - q * b).c == r.c
        assert r.degree < b.degree

    def test_exact_division_of_factor(self):
        cubic = Poly([-2496, 3132, -1023, 99])
        assert _exact_div(cubic, Poly([-4, 1])).c == (624, -627, 99)
        assert _exact_div(cubic, Poly([-3, 1])) is None

    def test_exact_division_of_zero(self):
        # zero is divisible by anything: the quotient is zero, not "no quotient"
        assert _exact_quo([], [-4, 1]) == []
        assert _exact_quo([0, 0], [-4, 1]) == [0]
        assert _exact_quo([0], [1, 2, 3]) == []
        assert _exact_div(Poly([]), Poly([-4, 1])).is_zero()
        assert _exact_div(Poly([0]), Poly([GaussInt(1, 2)])).is_zero()

    def test_gcd_of_products(self):
        g = P(1, 1, 1)
        a = g * P(2, 0, 1)
        b = g * P(-3, 1)
        got = poly_gcd(a, b)
        assert primitive(got).c == primitive(g).c

    def test_gcd_coprime_is_constant(self):
        assert poly_gcd(P(1, 1), P(2, 1)).degree == 0

    def test_primitive_normalization(self):
        # 2/3 - 4/3 x + 2 x^2 scaled to Z; its content 2 goes
        p = P(2, -4, 6)
        out = primitive(p)
        assert [c for c in out.c] == [Fraction(1), Fraction(-2), Fraction(3)]
        assert all(type(c) is int for c in out.c)
        assert out.c[-1] > 0
        assert primitive(P(-2, 4, -6)).c == out.c

    def test_normalize_pair_cancels_common_factor(self):
        g = P(1, 2, 1)
        a, b = normalize_pair(g * P(3, 1), g * P(1, 0, 2))
        assert a.degree == 1 and b.degree == 2

    def test_derivative(self):
        assert P(5, 3, 2, 1).derivative().c == P(3, 4, 3).c


class TestGaussInt:
    def test_ring_ops(self):
        a, b = GaussInt(3, -7), GaussInt(-2, 5)
        assert a * b == GaussInt(29, 29)
        assert a + b - b == a and -(-a) == a
        assert 2 * a == a + a == GaussInt(6, -14) and 1 - a == GaussInt(-2, 7)
        assert GaussInt(4, 0) == 4 and hash(GaussInt(4, 0)) == hash(4)
        assert not GaussInt(0, 0) and GaussInt(0, 1)

    def test_exact_divmod(self):
        a, b = GaussInt(3, -7), GaussInt(-2, 5)
        q, r = divmod(a * b, b)
        assert q == a and not r
        for num in (a, GaussInt(17, 4), 12, GaussInt(0, -9)):
            for den in (b, GaussInt(1, 1), 3, GaussInt(0, 2)):
                q, r = divmod(num, den)
                assert q * den + r == num
                # the rounded quotient: |r|^2 <= |den|^2 / 2
                rr, ri = (r.re, r.im) if isinstance(r, GaussInt) else (r, 0)
                dr, di = (den.re, den.im) if isinstance(den, GaussInt) else (den, 0)
                assert 2 * (rr * rr + ri * ri) <= dr * dr + di * di

    def test_exact_conversion(self):
        from poncelet.ratpoly import _gauss_fraction

        assert _gauss_fraction(complex(0.5, -0.25)) == (2, -1, 4)
        assert _gauss_fraction(Fraction(-2, 6)) == (-1, 0, 3)
        assert _gauss_fraction((GaussInt(3, -1), -8)) == (-3, 1, 8)
        assert _gauss_fraction((complex(0.5, 1), 3)) == (1, 2, 6)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(GaussInt(1, 1), GaussInt(0, 0))

    def test_gcd_up_to_a_unit(self):
        g, u, v = GaussInt(2, 3), GaussInt(5, -1), GaussInt(-4, 7)
        h = _gcd(g * u, g * v)
        assert not divmod(h, g)[1] and not divmod(g, h)[1]
        # 2 = -i (1 + i)^2, so gcd(2, 1 + i) is an associate of 1 + i
        h = _gcd(2, GaussInt(1, 1))
        assert not divmod(2, h)[1]
        assert divmod(GaussInt(1, 1), h) in [(u, 0) for u in (1, -1, GaussInt(0, 1), GaussInt(0, -1))]

    def test_canonical_form(self):
        # primitive over Z[i], the leading coefficient with re > 0 and im >= 0
        p = Poly([GaussInt(0, 2), GaussInt(-4, 2)]) * Poly([GaussInt(3, 0), GaussInt(0, -1)])
        out = primitive(p)
        lead = out.c[-1]
        assert lead.re > 0 and lead.im >= 0
        assert _gcd(*out.c) in (1, -1, GaussInt(0, 1), GaussInt(0, -1))
        assert _exact_div(p, out).degree == 0
        for unit in (GaussInt(0, 1), -1, GaussInt(0, -1)):
            assert primitive(Poly([unit * z for z in p.c])).c == out.c

    def test_poly_over_gaussian_integers(self):
        i = GaussInt(0, 1)
        p = Poly([i, GaussInt(1)])  # x + i
        q = Poly([-i, GaussInt(1)])  # x - i
        prod = p * q  # x^2 + 1
        assert prod.c[0] == 1 and prod.c[2] == 1 and not prod.c[1]
        assert _exact_div(prod, p).c == q.c


class TestExactNewton:
    def test_polish_real_root(self):
        p = P(-2496, 3132, -1023, 99)
        x, approx, _ = exact_newton(p, complex(4.001, 0))
        assert abs(approx - 4) < 1e-30 or horner(p, field_value(x)) == 0

    def test_polish_clustered_roots_separate(self):
        # (x + 1)(x - 1)(1000x - 1001): roots 1 and 1.001, integer coefficients
        p = P(1, 1) * P(-1, 1) * P(-1001, 1000)
        x1, a1, _ = exact_newton(p, complex(0.9995, 0))
        x2, a2, _ = exact_newton(p, complex(1.0006, 0))
        assert abs(a1 - 1) < 1e-12
        assert abs(a2 - 1.001) < 1e-12

    def test_complex_root(self):
        p = P(1, 0, 1)  # x^2 + 1
        _, approx, _ = exact_newton(p, complex(0.1, 1.2))
        assert abs(approx - 1j) < 1e-12


class TestHugeIntegerCoefficients:
    """Integer coefficients past the float range convert without OverflowError."""

    BIG = 1 << 2000

    def test_scalar_conversions(self):
        from poncelet.chains import _mag, _value
        from poncelet.ratpoly import _ratio_float

        assert _ratio_float(self.BIG, 1) == math.inf
        assert _ratio_float(-self.BIG, 3) == -math.inf
        assert _value(-self.BIG, 0, 1) == complex(-math.inf, 0.0)
        # wrap-residual magnitudes, taken from (re, im, den) integers
        assert _mag(self.BIG, 0, 1) == math.inf
        assert _mag(self.BIG, 1, 1) == math.inf
        assert _mag(self.BIG, -self.BIG, 3 * self.BIG) == math.hypot(1 / 3, 1 / 3)

    def test_poly_float_views(self):
        p = Poly([1, self.BIG])
        assert p.complex_coefficients()[0] == 0j
        assert p.complex_coefficients()[1] == 1

    def test_float_range_coefficients_convert_as_before(self):
        p = Poly([3, -7, 2 ** 1000, 5 - 2 ** 900])
        scale = 2.0 ** 1000
        assert p.complex_coefficients() == (
            complex(3 / scale, 0.0), complex(-7 / scale, 0.0), 1 + 0j,
            complex((5 - 2.0 ** 900) / scale, 0.0),
        )
        # non-real coefficients: the view of the monic polynomial, here
        # divided by the leading coefficient 2^1000 * i
        p = Poly([3, GaussInt(5, -2 ** 900), GaussInt(0, 2 ** 1000)])
        assert p.complex_coefficients() == (
            complex(0.0, -3 / scale), complex(-(2.0 ** 900) / scale, -5 / scale), 1 + 0j,
        )

    @pytest.mark.parametrize(
        "big", [3 ** 700, GaussInt(2 ** 1500, -(3 ** 1000))], ids=["int", "gauss"]
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
        assert sorted(r.value.real for r in isolate_roots(p)) == [-1.0, 2.0, 3.0]

    def test_huge_values_stay_exact(self):
        p = Poly([self.BIG, 1])
        re, im, den = p.eval_ints(Fraction(1, 3))
        assert Fraction(re, den) == self.BIG + Fraction(1, 3) and im == 0
        re, im, den = p.eval_ints((GaussInt(1, -1), 3))
        assert (Fraction(re, den), Fraction(im, den)) == (self.BIG + Fraction(1, 3), Fraction(-1, 3))


class TestSplitKernel:
    """``_hom_eval`` takes w = m * 2^k apart and shifts where it would
    multiply by 2^k; every value against Horner's rule over Q and Q(i)."""

    GRID = 1 << 200
    POLYS = [P(7), P(3, -7, 0, 2, 5), P(2 ** 300 + 1, -(3 ** 150), 0, 7),
             P(GaussInt(1, 2), 0, -4, GaussInt(0, 3), 1)]
    POINTS = [Fraction(1, 3), Fraction(5, 96), (GaussInt(1, -1), 12), Fraction(-7, 5 * 2 ** 70),
              0, (1, GRID), (-(3 << 199) + 1, GRID), (GaussInt(5 << 197, -(1 << 150)), GRID),
              (GaussInt(-1, 1), GRID), ((1 << 400) + 3, GRID)]

    @pytest.mark.parametrize("x", POINTS, ids=range(len(POINTS)))
    @pytest.mark.parametrize("p", POLYS, ids=range(len(POLYS)))
    def test_against_horner(self, p, x):
        want = as_gauss(horner(p, field_value(x)))
        xr, xi, w = _gauss_fraction(x)
        hr, hi, den = _hom_eval(p.int_form(), xr, xi, w)
        assert den == w ** p.degree
        assert (hr, hi) == (want.re * den, want.im * den)
        assert p.eval_ints(x) == (hr, hi, den)
