"""Certified closure roots: counts, discs, edge cases and the exact fallback.

``closure_roots`` must accept exactly as many roots as ``count_solutions``
counts, with no tolerance of its own; ``isolate_roots`` must return d
pairwise disjoint discs for a square-free polynomial of degree d, each
around a root that ``numpy.roots`` (the oracle kept in
``primitive_reference``) finds too.
"""

import random
from fractions import Fraction

import pytest

from poncelet import closure_roots, count_solutions, roots
from poncelet.chains import closure_system
from poncelet.errors import DegenerateInput, InseparableRoots
from poncelet.ratpoly import GaussInt, Poly, squarefree
from poncelet.roots import isolate_roots
from primitive_reference import np_cubic_roots

GOLDEN = [-1, 0, 1, 4, 5]
GAUSSIAN_INPUTS = [
    [complex(-1, 1), 0, 1, complex(4, -1), 5],
    [Fraction(1, 3), complex(2, 1), -1, Fraction(7, 2), 1j],
    [(GaussInt(1, 2), 3), -2, (GaussInt(5, -1), 2), 0, (GaussInt(0, 3), 5)],
    [complex(0.5, -0.5), 3, (GaussInt(-2, 1), 7), Fraction(-5, 4), 2j],
]


def sampler_input(seed):
    """The five values ``poncelet count --seed <seed>`` tries first."""
    rng = random.Random(seed)
    vals = []
    while len(vals) < 5:
        f = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
        if f not in vals:
            vals.append(f)
    return vals


def assert_counted(vals, n):
    got = closure_roots(vals, n)
    assert sum(r.accepted for r in got) == count_solutions(vals, n)
    return got


def assert_isolated(found):
    """Pairwise disjoint discs, from their float centres and radii."""
    for i, a in enumerate(found):
        for b in found[i + 1:]:
            assert abs(a.value - b.value) > a.radius + b.radius


def spy_restarts(monkeypatch):
    """The sizes of the clusters the exact-sweep fallback ran on."""
    calls = []
    restart = roots._restart

    def spy(c, dc, discs, seeds, members, bound):
        calls.append(len(members))
        return restart(c, dc, discs, seeds, members, bound)

    monkeypatch.setattr(roots, "_restart", spy)
    return calls


def assert_match_oracle(p, found, rel=1e-12):
    """Each oracle root lies within rel (relative) of exactly one found root."""
    oracle = np_cubic_roots(p.complex_coefficients()[::-1])
    assert len(found) == len(oracle) == p.degree
    for z in oracle:
        near = [r for r in found if abs(r.value - z) <= rel * max(1.0, abs(z))]
        assert len(near) == 1, (z, [r.value for r in found])


class TestRootCounts:
    @pytest.mark.parametrize("n", range(6, 25))
    def test_golden(self, n):
        assert_counted(GOLDEN, n)

    def test_count_seed_61(self):
        # the sampler input that lost 3 of its 9 roots to the float merge
        got = assert_counted(sampler_input(61), 15)
        assert sum(r.accepted for r in got) == 9

    def test_hypothesis_rationals(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        value = st.fractions(min_value=-40, max_value=40, max_denominator=8)

        @hypothesis.settings(max_examples=25, deadline=None)
        @hypothesis.given(st.lists(value, min_size=5, max_size=5, unique=True),
                          st.integers(8, 16))
        def check(vals, n):
            try:
                assert_counted(vals, n)
            except DegenerateInput:
                hypothesis.assume(False)

        check()

    @pytest.mark.parametrize("k", range(len(GAUSSIAN_INPUTS)))
    def test_gaussian_rationals(self, k):
        for n in range(6, 13):
            assert_counted(GAUSSIAN_INPUTS[k], n)

    @pytest.mark.parametrize("vals,n", [(GOLDEN, 16), (sampler_input(61), 15),
                                        (GAUSSIAN_INPUTS[0], 10)])
    def test_discs_are_disjoint(self, vals, n):
        got = closure_roots(vals, n)
        assert_isolated(got)
        assert all(0 < r.radius < 1e-40 for r in got)


class TestIsolateRoots:
    @pytest.mark.parametrize("p", [
        Poly([-6, 11, -6, 1]),                                # 1, 2, 3
        Poly([-2, 0, 1]) * Poly([1, 1, 1]),                   # +-sqrt 2 and two complex
        Poly([-7, 3]),                                        # one root, 7/3
        Poly([0, -3, 1]) * Poly([1, 0, 1]),                   # 0, 3, +-i
        Poly([GaussInt(2, -1), GaussInt(0, 3), 5]),           # Gaussian coefficients
        Poly([GaussInt(0, 0), GaussInt(-1, 4), 1]),           # 0 and 1 - 4i
    ], ids=["integers", "surds", "linear", "zero", "gaussian", "gaussian-zero"])
    def test_well_separated_match_numpy(self, p):
        found = isolate_roots(p)
        assert_match_oracle(p, found)
        assert_isolated(found)

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_closure_parts_match_numpy(self, n):
        system = closure_system(GOLDEN, n)
        g = squarefree(system.genuine)
        assert_match_oracle(g, isolate_roots(g))

    def test_root_at_zero_is_exact(self):
        found = isolate_roots(Poly([0, -3, 1]) * Poly([1, 0, 1]))
        zero = [r for r in found if abs(r.value) < 0.5]
        assert len(zero) == 1 and zero[0].x == (0, 1 << 200) and zero[0].value == 0j

    def test_degree_one(self):
        (root,) = isolate_roots(Poly([-7, 3]))
        assert root.value.imag == 0 and abs(root.value - 7 / 3) < 1e-15
        assert root.radius < 1e-40
        num, den = root.x
        assert abs(Fraction(num, den) - Fraction(7, 3)) <= root.radius

    def test_real_roots_come_out_real(self, monkeypatch):
        # (x - 1)(x - 1 - 1e-20)(x + 2): a pair floats cannot tell apart
        c = 10 ** 20
        p = Poly([-1, 1]) * Poly([-(c + 1), c]) * Poly([2, 1])
        calls = spy_restarts(monkeypatch)
        found = isolate_roots(p)
        assert calls and calls[0] == 2
        assert len(found) == 3 and all(r.value.imag == 0 for r in found)
        assert all(type(r.x[0]) is int for r in found)
        xs = sorted(Fraction(*r.x) for r in found)
        assert abs(xs[1] - 1) < Fraction(1, 10 ** 40)
        assert abs(xs[2] - Fraction(c + 1, c)) < Fraction(1, 10 ** 40)

    @pytest.mark.parametrize("p", [
        Poly([-6, 11, -6, 1]),
        Poly([-2, 0, 1]) * Poly([1, 1, 1]),
        Poly([GaussInt(2, -1), GaussInt(0, 3), 5]) * Poly([-1, 2]),
    ], ids=["integers", "surds", "gaussian"])
    def test_coinciding_seeds_fall_back(self, monkeypatch, p):
        # every seed the same point: all discs overlap, and the exact
        # Aberth sweeps must still separate d roots
        seeds = roots.float_seeds
        monkeypatch.setattr(roots, "float_seeds", lambda a: [seeds(a)[0]] * (len(a) - 1))
        calls = spy_restarts(monkeypatch)
        found = isolate_roots(p)
        assert p.degree in calls
        assert_isolated(found)
        assert_match_oracle(p, found)

    def test_coinciding_seeds_of_a_closure_part(self, monkeypatch):
        g = squarefree(closure_system(GOLDEN, 12).genuine)
        seeds = roots.float_seeds
        monkeypatch.setattr(roots, "float_seeds",
                            lambda a: [seeds(a)[1]] * 2 + seeds(a)[2:])
        calls = spy_restarts(monkeypatch)
        found = isolate_roots(g)
        assert calls == [2]
        assert_isolated(found)
        assert_match_oracle(g, found)

    def test_root_past_the_float_range_raises(self):
        # x = -2^1100: the leading coefficient underflows in the float view,
        # so no float seed exists for the root
        with pytest.raises(InseparableRoots, match="0 float seeds"):
            isolate_roots(Poly([2 ** 1100, 1]))

    def test_inseparable_discs_raise(self, monkeypatch):
        monkeypatch.setattr(roots, "_clusters", lambda discs: [list(range(len(discs)))])
        with pytest.raises(InseparableRoots, match="3 of the 3 root discs"):
            isolate_roots(Poly([-6, 11, -6, 1]))
