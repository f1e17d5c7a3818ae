"""Independent checks of the integer closure engine.

sympy recomputes the genuine factor and its distinct-root count, the field
Euclid recomputes every heuristic GCD, a Fraction-arithmetic Newton
iteration kept here recomputes every polished root bit for bit, the
six-bracket chain step kept here recomputes every chain vector, and the
Fraction route kept here recomputes every wrap residual bit for bit.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from poncelet import closure_polynomial, closure_roots, count_solutions
from poncelet.chains import closure_system
from poncelet.errors import DegenerateInput
from poncelet.ratpoly import (
    GaussQ,
    Poly,
    _field_gcd,
    _pv_bracket,
    chain_next_vector,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
    to_complex,
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


def reference_next_vector(window):
    """The six-bracket chain step: full products, one normalize_pair."""
    q1, q2, q3, q4, q5, q6 = window
    c1 = _pv_bracket(q1, q4) * _pv_bracket(q3, q4) * _pv_bracket(q5, q6)
    c2 = _pv_bracket(q1, q6) * _pv_bracket(q2, q3) * _pv_bracket(q4, q5)
    return normalize_pair(c1 * q2[0] - c2 * q4[0], c1 * q2[1] - c2 * q4[1])


def assert_reference_chain(vals, n):
    """Every chain vector of closure_system(vals, n) equals the six-bracket
    recursion run from the same starting points."""
    system = closure_system(vals, n)
    work = [normalize_pair(*v) for v in system.vectors[:6]]
    while len(work) < n + 2:
        work.append(reference_next_vector(work[-6:]))
    got = [(a.c, b.c) for a, b in system.vectors[6:]]
    assert got == [(a.c, b.c) for a, b in work[6:]]


def polyvec(c0, c1):
    return Poly(c0), Poly(c1)


class TestChainStepAgainstSixBrackets:
    def test_golden(self):
        # the vectors for n are a prefix of those for n + 2
        assert_reference_chain(GOLDEN, 20)

    @pytest.mark.parametrize("seed", [0, 3, 7, 20, 61, 101])
    def test_count_sampler(self, seed):
        assert_reference_chain(sampler_input(seed), 16)

    def test_hypothesis_rationals(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        value = st.fractions(min_value=-40, max_value=40, max_denominator=12)

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.lists(value, min_size=5, max_size=5, unique=True),
                          st.integers(6, 12))
        def check(vals, n):
            try:
                assert_reference_chain(vals, n)
            except DegenerateInput:
                hypothesis.assume(False)

        check()

    @pytest.mark.parametrize("vals,n", [
        ([complex(-1, 1), 0, 1, complex(4, -1), 5], 10),
        ([Fraction(1, 3), complex(2, 1), -1, Fraction(7, 2), 1j], 9),
    ])
    def test_gaussian(self, vals, n):
        assert_reference_chain(vals, n)

    def test_zero_component(self):
        """a vanishes identically while [q1q4] and [q2q3] share x: the step
        must give back the cancelled factor, as the full product has it."""
        x, one, zero = Poly([0, 1]), Poly([1]), Poly([0])
        window = [(x, one), (zero, one), (x, one), (zero, one),
                  polyvec([3], [2]), polyvec([-5], [7])]
        got = chain_next_vector(window)
        want = reference_next_vector(window)
        assert got[0].is_zero() and want[0].is_zero()
        assert got[1].c == want[1].c and want[1].degree == 2

    def test_gcd_divides_the_predicted_factor(self):
        """gcd(a, b) | gcd(c1, c2) * [q2q4] for every window."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        pair = st.tuples(int_polys(3), int_polys(3))

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(st.lists(pair, min_size=6, max_size=6), int_polys(2))
        def check(window, g):
            # a common factor planted in the first point reaches c1 and c2
            window[0] = (window[0][0] * g, window[0][1] * g)
            q1, q2, q3, q4, q5, q6 = window
            c1 = _pv_bracket(q1, q4) * _pv_bracket(q3, q4) * _pv_bracket(q5, q6)
            c2 = _pv_bracket(q1, q6) * _pv_bracket(q2, q3) * _pv_bracket(q4, q5)
            a, b = c1 * q2[0] - c2 * q4[0], c1 * q2[1] - c2 * q4[1]
            hypothesis.assume(not (a.is_zero() and b.is_zero()))
            bound = poly_gcd(c1, c2) * _pv_bracket(q2, q4)
            assert (bound % poly_gcd(a, b)).is_zero()

        check()

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_cancellation_leaves_a_coprime_pair(self, monkeypatch, n):
        """On the golden input every common factor is cancelled before the
        products: normalize_pair inside the step only certifies."""
        seen = []
        original = ratpoly.normalize_pair

        def recording(a, b):
            seen.append((a, b))
            return original(a, b)

        monkeypatch.setattr(ratpoly, "normalize_pair", recording)
        closure_system(GOLDEN, n)
        assert len(seen) == n + 2 - 6
        for a, b in seen:
            assert poly_gcd(a, b).degree == 0


def reference_wrap_gap(system, x, idx_new, idx_ref):
    """The wrap residual through reduced Fractions / GaussQ values."""
    def mag(z):
        return abs(to_complex(z))

    a, b = system.vectors[idx_new]
    ra, rb = system.vectors[idx_ref]
    va, vb = a.eval_exact(x), b.eval_exact(x)
    wa, wb = ra.eval_exact(x), rb.eval_exact(x)
    det = va * wb - vb * wa
    scale = max(mag(va), mag(vb)) * max(mag(wa), mag(wb))
    return mag(det) / max(scale, 1e-300)


class TestWrapResidualsAgainstFractions:
    def check(self, system, xs):
        for x in xs:
            exact = system.exact(x)
            want = (reference_wrap_gap(system, exact, system.n, 0),
                    reference_wrap_gap(system, exact, system.n + 1, 1))
            assert repr(system.wrap_residuals(x)) == repr(want)

    @pytest.mark.parametrize("vals,n", [
        (GOLDEN, 8), (GOLDEN, 14), (sampler_input(61), 15),
        ([complex(-1, 1), 0, 1, complex(4, -1), 5], 8),
    ])
    def test_at_closure_roots(self, vals, n):
        system = closure_system(vals, n)
        roots = closure_roots(vals, n)
        xs = [system.exact(r.value) for r in roots]
        self.check(system, xs + [r.value for r in roots])

    @pytest.mark.parametrize("vals", [GOLDEN, [complex(-1, 1), 0, 1, complex(4, -1), 5]])
    def test_past_the_float_range(self, vals):
        # values that overflow or underflow a float, and arguments that do
        system = closure_system(vals, 8)
        xs = [Fraction(2**1100 + 1, 3), Fraction(-(2**3000), 7), Fraction(1, 2**1500),
              Fraction(5, 3), 4, GaussQ(Fraction(2**1200, 3), Fraction(-1, 2**900)),
              GaussQ(2**60, -(2**61)), complex(1e300, 1e300), 1e-300, 1e308]
        self.check(system, xs)
