"""Independent checks of the integer closure engine.

sympy recomputes the genuine factor and its distinct-root count, the field
Euclid recomputes every heuristic GCD, and a Fraction-arithmetic Newton
iteration kept here recomputes every polished root bit for bit.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from poncelet import closure_polynomial, count_solutions
from poncelet.chains import closure_system
from poncelet.ratpoly import (
    GaussQ,
    Poly,
    _field_gcd,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
)
import poncelet.ratpoly as ratpoly

GOLDEN = [-1, 0, 1, 4, 5]


def sampler_input(seed):
    """The five values ``poncelet count --seed <seed>`` tries first."""
    rng = random.Random(seed)
    vals = []
    while len(vals) < 5:
        f = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
        if f not in vals:
            vals.append(f)
    return vals


ORACLE_CASES = [(GOLDEN, n) for n in range(6, 15)] + [
    (sampler_input(seed), n) for seed in (3, 20) for n in (8, 11, 14)
]


class TestSympyOracle:
    @pytest.mark.parametrize("vals,n", ORACLE_CASES)
    def test_genuine_factor_and_count(self, vals, n):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(int(z.numerator), int(z.denominator))
                               for z in reversed(p.c)], x)

        system = closure_system(vals, n)
        g = sympy.gcd(to_sympy(system.polynomial), to_sympy(system.second_wrap))
        _, g = g.primitive()
        if g.LC() < 0:
            g = -g
        assert [int(c) for c in reversed(g.all_coeffs())] == list(system.genuine.c)
        assert sympy.sqf_part(g).degree() == count_solutions(vals, n)


def int_polys(max_degree):
    from hypothesis import strategies as st

    coeffs = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=max_degree + 1)
    return coeffs.filter(lambda c: c[-1] != 0).map(Poly)


def gauss_polys(max_degree):
    from hypothesis import strategies as st

    entry = st.builds(GaussQ, st.integers(-50, 50), st.integers(-50, 50))
    coeffs = st.lists(entry, min_size=1, max_size=max_degree + 1)
    return coeffs.filter(lambda c: bool(c[-1])).map(Poly)


class TestGcdAgainstFieldEuclid:
    def test_integer_planted_factor(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(int_polys(6), int_polys(8), int_polys(8))
        def check(g, u, v):
            a, b = g * u, g * v
            got = poly_gcd(a, b)
            assert got.c == primitive(_field_gcd(a, b)).c
            assert all(type(z) is int for z in got.c)
            assert (a % got).is_zero() and (b % got).is_zero()
            assert got.degree >= g.degree

        check()

    def test_gaussian_planted_factor(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(gauss_polys(3), gauss_polys(4), gauss_polys(4))
        def check(g, u, v):
            a, b = g * u, g * v
            got = poly_gcd(a, b)
            assert got.c == primitive(_field_gcd(a, b)).c
            assert got.degree >= g.degree and (got % primitive(g)).is_zero()

        check()

    def test_normalize_pair_integer_output(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(int_polys(5), int_polys(6), int_polys(6))
        def check(g, u, v):
            a, b = normalize_pair(g * u, g * v)
            assert all(type(z) is int for z in a.c + b.c)
            assert math.gcd(*a.c, *b.c) == 1 and b.c[-1] > 0
            # proportional to the reduced pair over Q
            h = _field_gcd(g * u, g * v)
            ra, rb = (g * u) // h, (g * v) // h
            assert (a * rb - b * ra).is_zero()

        check()


class TestHeuristicFallback:
    def test_fallback_gives_the_same_systems(self, monkeypatch):
        expected = {n: closure_system(GOLDEN, n) for n in (8, 11)}
        monkeypatch.setattr(ratpoly, "HEU_GCD_TRIES", 0)
        calls = []
        field_gcd = ratpoly._field_gcd

        def counted(a, b):
            calls.append(1)
            return field_gcd(a, b)

        monkeypatch.setattr(ratpoly, "_field_gcd", counted)
        for n, want in expected.items():
            got = closure_system(GOLDEN, n)
            assert [(a.c, b.c) for a, b in got.vectors] == [
                (a.c, b.c) for a, b in want.vectors
            ]
            assert got.genuine.c == want.genuine.c
        assert calls, "the field Euclid fallback never ran"

    def test_fallback_cofactors_are_exact(self, monkeypatch):
        monkeypatch.setattr(ratpoly, "HEU_GCD_TRIES", 0)
        g = Poly([3, -1, 2])
        a, b = normalize_pair(g * Poly([1, 4]), g * Poly([-2, 0, 5]))
        assert a.c == (1, 4) and b.c == (-2, 0, 5)


def reference_newton(p, seed, steps=16, bits=200):
    """Newton polishing in Fraction/GaussQ field arithmetic, with the iterate
    rounded half to even onto the 2^-bits grid after every step."""
    one = 1 << bits

    def rnd(x):
        if isinstance(x, GaussQ):
            return GaussQ(Fraction(round(x.re * one), one), Fraction(round(x.im * one), one))
        return Fraction(round(x * one), one)

    def horner(q, x):
        acc = x * 0
        for z in reversed(q.c):
            acc = acc * x + z
        return acc

    gaussian = isinstance(p.c[0], GaussQ) or abs(seed.imag) > 0
    x = rnd(GaussQ.from_complex(seed) if gaussian else Fraction(seed.real))
    dp = p.derivative()
    for _ in range(steps):
        fx = horner(p, x)
        if not fx:
            break
        dx = horner(dp, x)
        if not dx:
            break
        step = fx / dx
        x = rnd(x - step)
        if isinstance(step, GaussQ):
            mag = math.hypot(float(step.re), float(step.im))
        else:
            mag = abs(float(step))
        if mag < 1e-45:
            break
    return x


class TestFixedPointNewton:
    @pytest.mark.parametrize("n", range(8, 17))
    def test_matches_fraction_reference(self, n):
        poly = closure_polynomial(GOLDEN, n)
        coeffs = poly.complex_coefficients()
        seeds = np.roots(np.array(coeffs[::-1], dtype=complex))
        for s in seeds:
            z = complex(s)
            if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
                z = complex(z.real, 0.0)
            x, approx = exact_newton(poly, z)
            want = reference_newton(poly, z)
            assert x == want
            assert approx == complex(want)

    def test_gaussian_coefficients_match_reference(self):
        i = GaussQ(0, 1)
        p = Poly([GaussQ(Fraction(-1, 3), 2), i, GaussQ(Fraction(1, 2)), GaussQ(1)])
        for seed in (complex(0.5, -1.0), complex(-1.2, 0.4), complex(0.3, 0.0)):
            x, approx = exact_newton(p, seed)
            assert x == reference_newton(p, seed)
            assert approx == complex(x)
