"""Independent checks of the integer closure engine on Z and Z[i].

The engine takes caller values as integers at one place: ``closure_system``
scales each known point to a reduced integer (or Gaussian-integer) pair,
and every vector, wrap form and polynomial after it has coefficients in Z
or Z[i]; ``TestEngineContract`` holds it to that for every input form.

sympy recomputes the genuine factor and its distinct-root count; the
field Euclid over Q and Q(i) (``ratpoly_reference``) recomputes every
heuristic GCD and every primitive-PRS fallback up to a unit; the
Fraction/Gaussian-rational Newton iteration there recomputes every
polished root bit for bit; the six-bracket chain step kept here recomputes
every chain vector; and the Fraction route kept here recomputes every wrap
residual, from the same reduced pairs, bit for bit.  Gaussian inputs are
pinned to counts and accepted flags of the field-Euclid engine that
preceded the Z[i] one.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from poncelet import RP1Point, closure_polynomial, closure_roots, count_solutions
from poncelet.chains import closure_system
from poncelet.errors import DegenerateInput
from poncelet.ratpoly import (
    GaussInt,
    Poly,
    _exact_div,
    _pv_bracket,
    _ratio_float,
    chain_next_vector,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
)
import poncelet.chains as chains
import poncelet.ratpoly as ratpoly
from poncelet.roots import isolate_roots
from ratpoly_reference import (
    as_gauss,
    canonical,
    field_divmod,
    field_gcd,
    field_value,
    horner,
    reference_newton,
)

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

    entry = st.builds(GaussInt, st.integers(-50, 50), st.integers(-50, 50))
    coeffs = st.lists(entry, min_size=1, max_size=max_degree + 1)
    return coeffs.filter(lambda c: bool(c[-1])).map(Poly)


def gcd_heuristic_and_fallback(monkeypatch, a, b):
    """poly_gcd(a, b) by GCDHEU, then with GCDHEU disabled (primitive PRS)."""
    got = poly_gcd(a, b)
    with monkeypatch.context() as m:
        m.setattr(ratpoly, "HEU_GCD_TRIES", 0)
        return got, poly_gcd(a, b)


class TestGcdAgainstFieldEuclid:
    def test_integer_planted_factor(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(int_polys(6), int_polys(8), int_polys(8))
        def check(g, u, v):
            a, b = g * u, g * v
            want = canonical(field_gcd(a, b)).c
            for got in gcd_heuristic_and_fallback(monkeypatch, a, b):
                assert got.c == want
                assert all(type(z) is int for z in got.c)
                assert _exact_div(a, got) is not None and _exact_div(b, got) is not None
                assert got.degree >= g.degree

        check()

    def test_gaussian_planted_factor(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(gauss_polys(3), gauss_polys(4), gauss_polys(4))
        def check(g, u, v):
            a, b = g * u, g * v
            want = canonical(field_gcd(a, b)).c
            for got in gcd_heuristic_and_fallback(monkeypatch, a, b):
                assert got.c == want
                assert got.degree >= g.degree and _exact_div(got, primitive(g)) is not None
                lead = got.c[-1]
                assert lead.re > 0 and lead.im >= 0 if isinstance(lead, GaussInt) else lead > 0

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
            h = field_gcd(g * u, g * v)
            ra, rb = field_divmod(g * u, h)[0], field_divmod(g * v, h)[0]
            assert (a * rb - b * ra).is_zero()

        check()


GAUSS_PIN = [complex(-1, 1), 0, 1, complex(4, -1), 5]
GAUSS_PINS = {"pin1": GAUSS_PIN, "pin2": [Fraction(1, 3), complex(2, 1), -1, Fraction(7, 2), 1j]}
# count_solutions at n = 6..16 and the accepted flags of closure_roots at
# n = 8 and 10, as the field-Euclid engine over Q(i) gave them before the
# Gaussian inputs moved to Z[i]
PINNED_COUNTS = [1, 2, 2, 3, 4, 5, 5, 7, 8, 9, 10]
PINNED_FLAGS = {
    ("pin1", 8): [True, False, True],
    ("pin1", 10): [True, True, True, True, False],
    ("pin2", 8): [True, True, False],
    ("pin2", 10): [True, True, True, False, True],
}
UNITS = (1, -1, GaussInt(0, 1), GaussInt(0, -1))


def assert_canonical(coeffs):
    """Primitive over Z[i], the leading coefficient with re > 0 and im >= 0."""
    assert all(type(z) in (int, GaussInt) for z in coeffs)
    assert ratpoly._gcd(*coeffs) in UNITS
    lead = coeffs[-1]
    assert lead.re > 0 and lead.im >= 0 if isinstance(lead, GaussInt) else lead > 0


class TestGaussianPin:
    @pytest.mark.parametrize("name", sorted(GAUSS_PINS))
    def test_counts_and_accepted_flags(self, name):
        vals = GAUSS_PINS[name]
        assert [count_solutions(vals, n) for n in range(6, 17)] == PINNED_COUNTS
        for n in (8, 10):
            assert [r.accepted for r in closure_roots(vals, n)] == PINNED_FLAGS[name, n]

    @pytest.mark.parametrize("name", sorted(GAUSS_PINS))
    def test_canonical_form(self, name):
        system = closure_system(GAUSS_PINS[name], 12)
        for p in (system.polynomial, system.second_wrap, system.genuine):
            assert_canonical(p.c)
        assert system.genuine.c == canonical(field_gcd(system.polynomial, system.second_wrap)).c
        for a, b in system.vectors[6:]:
            assert_canonical(a.c + b.c)


class TestHeuristicFallback:
    def test_fallback_gives_the_same_systems(self, monkeypatch):
        cases = [(vals, n) for vals in (GOLDEN, GAUSS_PIN) for n in (8, 11)]
        expected = [closure_system(vals, n) for vals, n in cases]
        monkeypatch.setattr(ratpoly, "HEU_GCD_TRIES", 0)
        calls = []
        prs_gcd = ratpoly._prs_gcd

        def counted(f, g):
            calls.append(1)
            return prs_gcd(f, g)

        monkeypatch.setattr(ratpoly, "_prs_gcd", counted)
        for (vals, n), want in zip(cases, expected):
            calls.clear()
            got = closure_system(vals, n)
            assert [(a.c, b.c) for a, b in got.vectors] == [
                (a.c, b.c) for a, b in want.vectors
            ]
            assert got.genuine.c == want.genuine.c
            assert calls, "the primitive PRS fallback never ran"

    def test_fallback_cofactors_are_exact(self, monkeypatch):
        monkeypatch.setattr(ratpoly, "HEU_GCD_TRIES", 0)
        g = Poly([3, -1, 2])
        a, b = normalize_pair(g * Poly([1, 4]), g * Poly([-2, 0, 5]))
        assert a.c == (1, 4) and b.c == (-2, 0, 5)


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
            x, approx, _ = exact_newton(poly, z)
            want = reference_newton(poly, z)
            assert field_value(x) == want
            assert approx == complex(want)

    def test_gaussian_coefficients_match_reference(self):
        # 6 * (x^3 + x^2/2 + i*x - 1/3 + 2i)
        p = Poly([GaussInt(-2, 12), GaussInt(0, 6), 3, 6])
        for seed in (complex(0.5, -1.0), complex(-1.2, 0.4), complex(0.3, 0.0)):
            x, approx, _ = exact_newton(p, seed)
            assert field_value(x) == reference_newton(p, seed)
            assert approx == complex(field_value(x))


# every input form closure_system takes; each known point becomes an
# integer pair once, so each of these must give a system over Z or Z[i]
CONTRACT_INPUTS = {
    "int": GOLDEN,
    "fraction": [Fraction(-7, 3), 0, Fraction(1, 2), 4, Fraction(11, 5)],
    "float": [-1.25, 0.1, 1.0, 4.5, 5.75],
    "complex": [complex(0, 1), 0.5, complex(1, -0.5), 2.0, complex(-1, 0.25)],
    "rp1": [RP1Point(-1, 1), RP1Point(0, 1), RP1Point(1, 3), RP1Point(4, 1), RP1Point(1, 0)],
    "gauss-pair": [(GaussInt(3, -1), 4), 0, (GaussInt(0, 2), 3), 2, (Fraction(-5, 2), 1)],
}


def system_coefficients(system):
    """Every coefficient of the system's polynomials, vectors and wrap forms."""
    for p in (system.polynomial, system.second_wrap, system.genuine):
        yield from p.c
    for a, b in system.vectors:
        yield from a.c + b.c
    for forms in system.wraps:
        for form in forms:
            for re, im in form:
                yield re
                yield im


class TestEngineContract:
    @pytest.mark.parametrize("slot", range(6))
    @pytest.mark.parametrize("name", sorted(CONTRACT_INPUTS))
    def test_integer_coefficients_from_reduced_pairs(self, name, slot):
        vals = CONTRACT_INPUTS[name]
        system = closure_system(vals, 9, slot)
        assert all(type(z) in (int, GaussInt) for z in system_coefficients(system))
        known = iter(vals)
        for i, (a, b) in enumerate(system.vectors[:6]):
            assert (a.c, b.c) == tuple(p.c for p in normalize_pair(a, b))
            if i == slot:
                assert (a.c, b.c) == ((0, 1), (1,))
                continue
            # the reduced pair (a : b) is the caller's point (num : den)
            x = next(known)
            num, den = x.coords if isinstance(x, RP1Point) else x if isinstance(x, tuple) else (x, 1)
            a0, b0 = (field_value(p.c[0] if p.c else 0) for p in (a, b))
            assert a0 * field_value(den) == b0 * field_value(num)
            assert a0 or b0


def reference_next_vector(window):
    """The six-bracket chain step: full products, one normalize_pair."""
    q1, q2, q3, q4, q5, q6 = window
    c1 = _pv_bracket(q1, q4) * _pv_bracket(q3, q4) * _pv_bracket(q5, q6)
    c2 = _pv_bracket(q1, q6) * _pv_bracket(q2, q3) * _pv_bracket(q4, q5)
    return normalize_pair(c1 * q2[0] - c2 * q4[0], c1 * q2[1] - c2 * q4[1])


def fresh_seams(window):
    """[q2q3], [q3q4], [q4q5], [q5q6] of a window, formed anew rather than carried."""
    return [_pv_bracket(a, b) for a, b in zip(window[1:5], window[2:])]


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
        got = chain_next_vector(window, fresh_seams(window))
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
            assert _exact_div(bound, poly_gcd(a, b)) is not None

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


# its chain points at n = 16 pass the float range at several closure roots
FLOAT_INPUT = [-1.25, 0.1, 1.0, 4.5, 5.75]


def reference_wrap_gap(system, x, idx_new, idx_ref):
    """The wrap residual through reduced Fractions / GaussQ values.  Where a
    magnitude passes the float range, each point is divided by 2^e, 2^e the
    largest power of two not above its larger part (e >= 0), which leaves
    the gap unchanged."""
    def mag(z, e):
        z = as_gauss(z)
        return abs(complex(_ratio_float(z.re.numerator, z.re.denominator << e),
                           _ratio_float(z.im.numerator, z.im.denominator << e)))

    def log2_floor(*zs):
        parts = [abs(p) for z in zs for p in (as_gauss(z).re, as_gauss(z).im) if p]
        e = max(p.numerator.bit_length() - p.denominator.bit_length() for p in parts)
        return max(0, e if Fraction(2) ** e <= max(parts) else e - 1)

    a, b = system.vectors[idx_new]
    ra, rb = system.vectors[idx_ref]
    va, vb = horner(a, x), horner(b, x)
    wa, wb = horner(ra, x), horner(rb, x)
    det = va * wb - vb * wa
    for e, f in ((0, 0), (log2_floor(va, vb), log2_floor(wa, wb))):
        scale = max(mag(va, e), mag(vb, e)) * max(mag(wa, f), mag(wb, f))
        if max(mag(det, e + f), scale) < math.inf:
            break
    return mag(det, e + f) / max(scale, 1e-300)


class TestWrapResidualsAgainstFractions:
    def check(self, system, xs):
        for x in xs:
            exact = field_value(x)
            want = (reference_wrap_gap(system, exact, system.n, 0),
                    reference_wrap_gap(system, exact, system.n + 1, 1))
            assert repr(system.wrap_residuals(x)) == repr(want)

    @pytest.mark.parametrize("vals,n", [
        (GOLDEN, 8), (GOLDEN, 14), (sampler_input(61), 15), (GAUSS_PIN, 8), (FLOAT_INPUT, 16),
    ])
    def test_at_closure_roots(self, vals, n):
        system = closure_system(vals, n)
        roots = closure_roots(vals, n)
        xs = [exact_newton(system.polynomial, r.value)[0] for r in roots]
        self.check(system, xs + [r.value for r in roots])

    @pytest.mark.parametrize("vals", [GOLDEN, GAUSS_PIN])
    def test_past_the_float_range(self, vals):
        # values that overflow or underflow a float, and arguments that do
        system = closure_system(vals, 8)
        xs = [Fraction(2**1100 + 1, 3), Fraction(-(2**3000), 7), Fraction(1, 2**1500),
              Fraction(5, 3), 4, (GaussInt(2**2100, -3), 3 * 2**900),
              GaussInt(2**60, -(2**61)), complex(1e300, 1e300), 1e-300, 1e308]
        self.check(system, xs)
        assert not any(math.isnan(r) for x in xs for r in system.wrap_residuals(x))

    def test_float_input_roots_are_finite(self):
        roots = closure_roots(FLOAT_INPUT, 16)
        assert not any(math.isnan(r.residual_p) or math.isnan(r.residual_q) for r in roots)
        assert sum(r.accepted for r in roots) == count_solutions(FLOAT_INPUT, 16)


# closure seed 2: a genuine and a spurious real root at n = 16 share the
# float value 1.7481251722144244
FLOAT_TWINS = [Fraction(3, 2), 7, Fraction(13, 2), 17, Fraction(12, 7)]


def roots_with_centres(monkeypatch, vals, n):
    """closure_roots(vals, n) and, in the same order, the isolated root
    behind each of them (the output's sort is stable)."""
    centres = []

    def recording(p):
        got = isolate_roots(p)
        centres.extend(got)
        return got

    monkeypatch.setattr(chains, "isolate_roots", recording)
    roots = closure_roots(vals, n)
    centres.sort(key=lambda r: (r.value.real, r.value.imag))
    return roots, centres


class TestMirrorResiduals:
    """A real system hands a root its mirror's residuals, keyed on the exact
    grid numerator: each must be the direct evaluation at that root."""

    @pytest.mark.parametrize("vals,n", [
        (FLOAT_TWINS, 16), (GOLDEN, 16), (CONTRACT_INPUTS["gauss-pair"], 14),
    ])
    def test_residuals_are_the_direct_ones(self, monkeypatch, vals, n):
        roots, centres = roots_with_centres(monkeypatch, vals, n)
        system = closure_system(vals, n)
        assert [r.value for r in roots] == [c.value for c in centres]
        for r, c in zip(roots, centres):
            assert repr((r.residual_p, r.residual_q)) == repr(system.wrap_residuals(c.x))
        assert sum(r.accepted for r in roots) == count_solutions(vals, n)

    def test_float_twins_keep_their_own_residuals(self):
        twins = [r for r in closure_roots(FLOAT_TWINS, 16) if r.value == 1.7481251722144244]
        assert sorted(r.accepted for r in twins) == [False, True]

    def test_mirrors_are_reused(self, monkeypatch):
        calls = []
        direct = chains.ClosureSystem.wrap_residuals
        monkeypatch.setattr(chains.ClosureSystem, "wrap_residuals",
                            lambda system, x: calls.append(x) or direct(system, x))
        roots = closure_roots(FLOAT_TWINS, 16)
        assert len(set(map(repr, calls))) == len(calls) < len(roots)


class TestCarriedBrackets:
    """closure_system carries the brackets of neighbouring points from step
    to step; each step given freshly formed ones gives the same vectors."""

    @pytest.mark.parametrize("vals,slot", [(GOLDEN, s) for s in range(6)] + [(GAUSS_PIN, 2)])
    def test_same_vectors_without_carried_brackets(self, vals, slot):
        system = closure_system(vals, 16, slot)
        work = list(system.vectors[:6])
        while len(work) < 18:
            work.append(chain_next_vector(work[-6:], fresh_seams(work[-6:])))
        assert repr([(a.c, b.c) for a, b in system.vectors]) == repr([(a.c, b.c) for a, b in work])


def test_no_state_survives_a_call(monkeypatch):
    """Two calls on one input do the same exact work: nothing is cached
    across calls (a benchmark replaying an input would time nothing)."""
    calls = Counter()

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(chains, "chain_next_vector", counting("step", chains.chain_next_vector))
    monkeypatch.setattr("poncelet.roots.exact_newton", counting("newton", exact_newton))
    runs = []
    for _ in range(2):
        calls.clear()
        closure_roots(FLOAT_TWINS, 16)
        runs.append(dict(calls))
    assert runs[0] == runs[1] and runs[0]["step"] == 12 and runs[0]["newton"] > 0
