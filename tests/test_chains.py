"""Chain engines: synthetic tangent iteration and the closure solver."""

import math
from fractions import Fraction

import pytest

from poncelet import (
    ChainState,
    ProjPoint,
    RP1Point,
    algebraic_closure_report,
    apply_map,
    chain7_residual,
    chain_step,
    chain_values,
    closure_polynomial,
    closure_roots,
    closure_test,
    concentric_scene,
    conic_contains,
    conic_fit_lines,
    count_solutions,
    heptagon6_residual,
    join,
    make_chart,
    next_chain_point,
    proj_distance,
    rp1_distance,
    run_chain,
    scene_from_rp1,
    tangent_line_at,
    transformed_scene,
)
from poncelet.chains import closure_system, start_state
from poncelet.errors import DegenerateInput, PointNotOnConic, TangentialDegeneracy

from conftest import random_closing_scene, random_map

S649 = math.sqrt(649)
GOLDEN = [-1, 0, 1, 4, 5]


class TestChainStep:
    def test_concentric_step_angle(self):
        n = 9
        sc = concentric_scene(n)
        state = start_state(sc.outer, sc.inner, sc.vertices[0], 0)
        nxt = chain_step(sc.outer, sc.inner, state)
        expected = ProjPoint(math.cos(2 * math.pi / n), math.sin(2 * math.pi / n), 1)
        alt = ProjPoint(math.cos(2 * math.pi / n), -math.sin(2 * math.pi / n), 1)
        assert nxt.point.is_same(expected, 1e-9) or nxt.point.is_same(alt, 1e-9)

    def test_two_n_steps_return(self):
        n = 7
        sc = concentric_scene(n)
        state = start_state(sc.outer, sc.inner, sc.vertices[0], 0)
        first = state
        for _ in range(2 * n):
            state = chain_step(sc.outer, sc.inner, state)
        assert proj_distance(state.point, first.point) < 1e-9

    def test_start_on_conic_cut_is_1e6(self):
        sc = concentric_scene(7)
        near = ProjPoint(0.6, 0.8 * math.sqrt(1 + 7.8125e-7), 1)
        far = ProjPoint(0.6, 0.8 * math.sqrt(1 + 3.125e-6), 1)
        assert 4.9e-7 < conic_contains(sc.outer, near) < 5.1e-7
        assert 1.9e-6 < conic_contains(sc.outer, far) < 2.1e-6
        assert start_state(sc.outer, sc.inner, near).point is near
        with pytest.raises(PointNotOnConic):
            start_state(sc.outer, sc.inner, far)
        with pytest.raises(PointNotOnConic):
            closure_test(sc.outer, sc.inner, far, 7)

    def test_tangent_to_outer_raises(self):
        sc = concentric_scene(5)
        p = ProjPoint(1, 0, 1)
        outer_tangent = tangent_line_at(sc.outer, p)
        with pytest.raises(TangentialDegeneracy):
            chain_step(sc.outer, sc.inner, ChainState(p, outer_tangent))


class TestRunChain:
    def test_zero_steps_singleton(self):
        sc = concentric_scene(6)
        pts = run_chain(sc.outer, sc.inner, sc.vertices[0], 0, steps=0)
        assert len(pts) == 1

    def test_window_cross_check(self, rng):
        sc = random_closing_scene(rng, 8)
        pts = run_chain(sc.outer, sc.inner, sc.vertices[0], 0, steps=12)
        chart = make_chart(sc.outer, avoid=pts)
        xs = [chart.project(p) for p in pts]
        for i in range(len(xs) - 6):
            assert chain7_residual(xs[i:i + 7]).scaled_gap < 1e-8

    def test_porism_two_starts_same_period(self, rng):
        # random starts taken on the scene's outer conic via its parametrization
        base = concentric_scene(7, start_angle=0.3)
        s = random_map(rng)
        sc = transformed_scene(base, s)
        for _ in range(5):
            ang = rng.uniform(0, 2 * math.pi)
            start = apply_map(s, ProjPoint(math.cos(ang), math.sin(ang), 1))
            rep = closure_test(sc.outer, sc.inner, start, 7)
            assert rep.closes, rep


class TestClosureTest:
    def test_golden_octagon_scenes_close(self):
        for sign in (-1, 1):
            x6 = (209 + sign * 5 * S649) / 66
            vals = chain_values(GOLDEN, x6, 6)
            scene = scene_from_rp1(vals)
            rep = closure_test(scene.outer, scene.inner, scene.vertices[0], 8)
            assert rep.closes and not rep.spurious
            assert rep.residual_p < 1e-8 and rep.residual_q < 1e-8

    def test_spurious_root_scene_cannot_assemble(self):
        # at the spurious root the fifth edge collapses onto the fourth, so
        # no inner conic exists; the algebraic double-wrap test still shows
        # the first wrap closing and the second failing
        vals = chain_values(GOLDEN, 4.0, 6)
        with pytest.raises(DegenerateInput):
            scene_from_rp1(vals)
        rep = algebraic_closure_report(GOLDEN, 4, 8)
        assert rep.spurious and not rep.closes
        assert rep.residual_p < 1e-12 and rep.residual_q > 1e-3

    def test_concentric_closes_at_n_not_below(self):
        sc = concentric_scene(9)
        assert closure_test(sc.outer, sc.inner, sc.vertices[0], 9).closes
        assert not closure_test(sc.outer, sc.inner, sc.vertices[0], 8).closes


class TestClosurePolynomial:
    def test_golden_cubic_exact(self):
        poly = closure_polynomial(GOLDEN, 8)
        golden = [Fraction(-2496), Fraction(3132), Fraction(-1023), Fraction(99)]
        assert poly.degree == 3
        for i in range(4):
            for j in range(4):
                assert poly.c[i] * golden[j] == poly.c[j] * golden[i]

    def test_golden_cubic_factors(self):
        from poncelet.ratpoly import Poly, _exact_div

        poly = closure_polynomial(GOLDEN, 8)
        assert _exact_div(poly, Poly([-4, 1])) is not None
        # remaining quadratic has the two surd roots
        roots = sorted(x.value.real for x in closure_roots(GOLDEN, 8) if x.accepted)
        assert abs(roots[0] - (209 - 5 * S649) / 66) < 1e-9
        assert abs(roots[1] - (209 + 5 * S649) / 66) < 1e-9

    def test_spurious_chain_values(self):
        vals = [v.value().real for v in chain_values(GOLDEN, 4, 10)]
        assert vals == pytest.approx([-1, 0, 1, 4, 5, 4, 1, 0, -1, 10], abs=1e-9)

    def test_n6_linear_single_solution(self):
        poly = closure_polynomial(GOLDEN, 6)
        assert poly.degree == 1
        assert count_solutions(GOLDEN, 6) == 1

    def test_n7_quadratic_roots_satisfy_heptagon(self):
        poly = closure_polynomial(GOLDEN, 7)
        assert poly.degree == 2
        for r in closure_roots(GOLDEN, 7):
            assert r.accepted
            pts = [RP1Point.affine(v) for v in GOLDEN] + [RP1Point.affine(r.value)]
            assert heptagon6_residual(pts).scaled_gap < 1e-9

    def test_repeated_points_rejected(self):
        with pytest.raises(DegenerateInput):
            closure_polynomial([1, 1, 2, 3, 4], 8)

    @pytest.mark.parametrize("slot", [-1, 6, 7])
    def test_var_slot_out_of_range(self, slot):
        with pytest.raises(ValueError, match=f"var_slot must be in 0..5, not {slot}"):
            closure_system(GOLDEN, 8, slot)

    @pytest.mark.parametrize("bad,named", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (complex(1, math.inf), "(1+infj)"), ((math.nan, 1), "nan"), ((1, math.inf), "inf"),
    ])
    def test_non_finite_known_point(self, bad, named):
        for slot in (0, 5):
            with pytest.raises(DegenerateInput) as info:
                closure_system([bad, 0, 1, 4, 5], 8, slot)
            assert str(info.value) == f"chain value {named} is not finite"

    @pytest.mark.parametrize("x6", [RP1Point.infinity(), math.inf, complex(math.nan, 0)])
    def test_non_finite_sixth_value(self, x6):
        named = repr(x6.value() if isinstance(x6, RP1Point) else x6)
        for call in (algebraic_closure_report, chain_values):
            with pytest.raises(DegenerateInput) as info:
                call(GOLDEN, x6, 8)
            assert str(info.value) == f"chain value {named} is not finite"

    @pytest.mark.parametrize("n,count", [(7, 2), (9, 3), (12, 5)])
    def test_count_spot_checks(self, n, count):
        assert count_solutions(GOLDEN, n) == count

    def test_count_agrees_with_root_filtering(self):
        # two routes: distinct-root degree of the wrap gcd vs numeric roots
        # passing the double-wrap thresholds
        for n in range(6, 13):
            roots = closure_roots(GOLDEN, n)
            assert count_solutions(GOLDEN, n) == sum(r.accepted for r in roots)

    def test_rejected_roots_fail_second_wrap_strongly(self):
        for n in range(6, 13):
            for r in closure_roots(GOLDEN, n):
                if not r.accepted:
                    assert r.residual_q > 1e3 * 1e-8

    @pytest.mark.parametrize("n,count", [(13, 7), (14, 8), (15, 9), (16, 10)])
    def test_counts_beyond_fast_path(self, n, count):
        # larger periods are supported, just not performance-tuned
        assert count_solutions(GOLDEN, n) == count

    def test_complex_inputs_supported(self):
        vals = [complex(0, 1), 0.5, complex(1, -0.5), 2.0, complex(-1, 0.25)]
        poly = closure_polynomial(vals, 7)
        assert poly.degree == 2


class TestSceneFromRP1:
    def test_golden_scene_invariants(self):
        x6 = (209 - 5 * S649) / 66
        scene = scene_from_rp1(chain_values(GOLDEN, x6, 6))
        checks = scene.verify()
        assert all(v < 1e-9 for v in checks.values())

    def test_roundtrip_inner_conic(self, rng):
        # the five edge lines of six chain points pin down the inner conic
        sc = random_closing_scene(rng, 9)
        pts = run_chain(sc.outer, sc.inner, sc.vertices[0], 0, steps=5)
        edges = [join(pts[i], pts[i + 1]) for i in range(5)]
        refit = conic_fit_lines(edges)
        assert refit.is_same(sc.inner, 1e-7)

    def test_rp1_roundtrip_closure(self, rng):
        sc = random_closing_scene(rng, 8)
        pts = run_chain(sc.outer, sc.inner, sc.vertices[0], 0, steps=5)
        chart = make_chart(sc.outer, avoid=pts)
        xs = [chart.project(p) for p in pts]
        scene = scene_from_rp1(xs)
        rep = closure_test(scene.outer, scene.inner, scene.vertices[0], 8)
        assert rep.closes

    def test_degenerate_values_rejected(self):
        with pytest.raises(DegenerateInput):
            scene_from_rp1([RP1Point.affine(v) for v in (0, 1, 2, 3, 1, 5)][:6])


class TestEngineEquivalence:
    def test_synthetic_matches_algebraic(self, rng):
        for n in (7, 8, 9):
            sc = random_closing_scene(rng, n)
            pts = run_chain(sc.outer, sc.inner, sc.vertices[0], 0, steps=20)
            chart = make_chart(sc.outer, avoid=pts[:8])
            xs = [chart.project(p) for p in pts]
            alg = xs[:6]
            while len(alg) < len(xs):
                alg.append(next_chain_point(alg[-6:]))
            for a, b in zip(xs, alg):
                assert rp1_distance(a, b) < 1e-8


class TestConcentricScene:
    def test_density_must_be_coprime(self):
        with pytest.raises(DegenerateInput):
            concentric_scene(6, density=2)

    def test_star_scene_closes(self):
        sc = concentric_scene(7, density=2)
        rep = closure_test(sc.outer, sc.inner, sc.vertices[0], 7)
        assert rep.closes
