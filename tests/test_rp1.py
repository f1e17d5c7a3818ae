"""Transferred line coordinates: brackets, cross ratios, chain conditions."""

import math

import pytest

from poncelet import (
    ProjPoint,
    RP1Point,
    StereoChart,
    bracket,
    chain7_forms,
    chain7_residual,
    chain_values,
    closure_roots,
    conic_through_5,
    cross_ratio,
    gp_residual,
    gp_syzygy_combination,
    heptagon6_cross_ratio_product,
    heptagon6_residual,
    heptagon_precondition_residual,
    hexagon_point6,
    make_chart,
    next_chain_point,
    ninegon_residual,
    octagon_point7_residual,
    quadset_residual,
    rp1_distance,
    six_on_conic_residual,
)
from poncelet.errors import DegenerateChain, DegenerateCrossRatio, PointNotOnConic

from chart_reference import ref_ranked_centers
from conftest import ring_points

S649 = math.sqrt(649)
GOLDEN_FIVE = (-1.0, 0.0, 1.0, 4.0, 5.0)


def aff(*vals):
    return [RP1Point.affine(v) for v in vals]


def rnd_rp1(rng, real=True):
    if real:
        return RP1Point.affine(rng.uniform(-3, 3))
    return RP1Point(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


class TestBracket:
    def test_affine_difference(self):
        # values of magnitude <= 1 keep the (x, 1) representative intact
        assert bracket(RP1Point.affine(0.5), RP1Point.affine(-0.25)) == pytest.approx(0.75)

    def test_self_bracket_zero(self):
        a = RP1Point.affine(0.7)
        assert bracket(a, a) == 0

    def test_antisymmetry_exact(self, rng):
        for _ in range(100):
            a, b = rnd_rp1(rng, False), rnd_rp1(rng, False)
            assert bracket(a, b) == -bracket(b, a)


class TestCrossRatio:
    def test_harmonic_position(self):
        cr = cross_ratio(
            RP1Point.affine(0), RP1Point.infinity(), RP1Point.affine(1), RP1Point.affine(-1)
        )
        assert abs(cr + 1) < 1e-14

    def test_coincident_last_pair_is_one(self):
        a, b, c = aff(0.2, 1.9, -0.5)
        assert abs(cross_ratio(a, b, c, c) - 1) < 1e-14

    def test_degenerate_raises(self):
        a, b, c = aff(0.0, 1.0, 2.0)
        with pytest.raises(DegenerateCrossRatio):
            cross_ratio(a, b, c, a)  # [a d] = [a a] = 0

    def test_invariance_under_maps(self, rng):
        pts = aff(0.3, -1.2, 2.5, 0.9)
        base = cross_ratio(*pts)
        for _ in range(100):
            m = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
            if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) < 0.05:
                continue
            mapped = [
                RP1Point(
                    m[0][0] * p.coords[0] + m[0][1] * p.coords[1],
                    m[1][0] * p.coords[0] + m[1][1] * p.coords[1],
                )
                for p in pts
            ]
            assert abs(cross_ratio(*mapped) - base) < 1e-10 * max(1, abs(base))


class TestStereoChart:
    def test_center_maps_to_infinity(self, rng):
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        chart = make_chart(conic, avoid=pts)
        assert chart.project(chart.center).is_same(RP1Point.infinity())

    def test_lift_of_infinity_is_center(self, rng):
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        chart = make_chart(conic, avoid=pts)
        from poncelet import proj_distance

        assert proj_distance(chart.lift(RP1Point.infinity()), chart.center) < 1e-12

    def test_roundtrip_100_points(self, rng):
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        chart = make_chart(conic, avoid=pts)
        from poncelet import line_conic_intersect, ProjLine, proj_distance

        count = 0
        while count < 100:
            l = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for p in line_conic_intersect(l, conic)[:2]:
                x = chart.project(p)
                assert proj_distance(chart.lift(x), p) < 1e-9
                count += 1

    def test_lift_random_values_on_conic(self, rng):
        from poncelet import conic_contains

        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        chart = make_chart(conic, avoid=pts)
        for _ in range(100):
            x = rnd_rp1(rng, real=False)
            assert conic_contains(conic, chart.lift(x)) < 1e-10

    def test_off_conic_projection_rejected(self, rng):
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        chart = make_chart(conic, avoid=pts)
        with pytest.raises(PointNotOnConic):
            chart.project(ProjPoint(5, 5, 1))

    def test_cross_ratio_chart_independent(self, rng):
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        centres = [c for _, c in ref_ranked_centers(conic, pts)]
        c1, c2 = StereoChart(conic, centres[0]), StereoChart(conic, centres[2])
        xs1 = [c1.project(p) for p in pts[:4]]
        xs2 = [c2.project(p) for p in pts[:4]]
        r1, r2 = cross_ratio(*xs1), cross_ratio(*xs2)
        assert abs(r1 - r2) < 1e-10 * max(1, abs(r1))

    def test_golden_lift_is_conconic(self):
        # the worked five line coordinates lift to five points of one conic
        from poncelet.chains import canonical_chart

        chart = canonical_chart()
        lifted = [chart.lift(RP1Point.affine(v)) for v in GOLDEN_FIVE]
        sixth = chart.lift(RP1Point.affine(2.0))
        assert six_on_conic_residual(lifted + [sixth]) < 1e-10

    def test_canonical_chart_is_the_y0_projection(self):
        # x = X / (Z - Y): Pythagorean points go to exact values.  Their
        # integer coordinates are transferred, as ProjPoint(3, 4, 5) stores
        # (0.6, 0.8, 1), which binary floats hold only to rounding
        from poncelet.chains import canonical_chart

        chart = canonical_chart()
        for point, value in (((3, 4, 5), 3), ((5, 12, 13), 5)):
            assert RP1Point(chart._transfer(point)).value() == value


class TestQuadset:
    def synth_concurrent(self, rng):
        # six conic points with 14, 25, 36 concurrent, via the transfer trick
        from poncelet import join, meet, second_intersection

        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        p1, p4, p2, p5, p3 = pts
        o = meet(join(p1, p4), join(p2, p5))
        p6 = second_intersection(conic, p3, o)
        chart = make_chart(conic, avoid=pts + [p6])
        xs = [chart.project(p) for p in (p1, p2, p3, p4, p5, p6)]
        return xs

    def test_concurrence_gives_quadset(self, rng):
        for _ in range(50):
            x1, x2, x3, x4, x5, x6 = self.synth_concurrent(rng)
            r = quadset_residual((x1, x4), (x2, x5), (x3, x6))
            assert r.scaled_gap < 1e-10

    def test_repeated_pair_vanishes(self):
        # pairs (1,4: 2,3: 3,2): the bracket [26] = [22] kills the left side
        # and [35] = [33] kills the right side, both exactly
        p1, p2, p3, p4 = aff(0.1, 0.7, -0.4, 0.9)
        r = quadset_residual((p1, p4), (p2, p3), (p3, p2))
        assert r.lhs == 0 and r.rhs == 0 and r.scaled_gap == 0.0

    def test_generic_nonzero(self, rng):
        hits = 0
        for _ in range(30):
            xs = [rnd_rp1(rng) for _ in range(6)]
            r = quadset_residual((xs[0], xs[3]), (xs[1], xs[4]), (xs[2], xs[5]))
            if r.scaled_gap > 1e-3:
                hits += 1
        assert hits >= 28


class TestChain7:
    def test_golden_next_point_formula(self):
        for x6 in (2.0, -3.7, 0.5, 17.0):
            x7 = (2 + 2 * x6) / (38 - 7 * x6)
            pts = aff(*GOLDEN_FIVE, x6, x7)
            assert chain7_residual(pts).scaled_gap < 1e-12

    def test_golden_arithmetic_x7(self):
        out = next_chain_point(aff(*GOLDEN_FIVE, 2.0))
        assert abs(out.value() - 0.25) < 1e-14

    def test_next_point_satisfies_condition(self, rng):
        for _ in range(1000):
            pts = [rnd_rp1(rng, real=False) for _ in range(6)]
            try:
                nxt = next_chain_point(pts)
            except DegenerateChain:
                continue
            assert chain7_residual(pts + [nxt]).scaled_gap < 1e-13

    def test_degenerate_p2_equals_p4(self):
        pts = aff(0.0, 1.0, 2.0, 1.0, 4.0, 5.0)
        with pytest.raises(DegenerateChain):
            next_chain_point(pts)

    def test_three_forms_vanish_on_chains(self, rng):
        for _ in range(100):
            pts = [rnd_rp1(rng) for _ in range(6)]
            try:
                nxt = next_chain_point(pts)
            except DegenerateChain:
                continue
            for f in chain7_forms(pts + [nxt]):
                assert f.scaled_gap < 1e-11

    def test_two_forms_imply_third_multiplicatively(self, rng):
        # f1.lhs f2.rhs f3.rhs = f1.rhs f2.lhs f3.lhs identically
        for _ in range(200):
            pts = [rnd_rp1(rng, real=False) for _ in range(7)]
            f1, f2, f3 = chain7_forms(pts)
            lhs = f1.lhs * f2.rhs * f3.rhs
            rhs = f1.rhs * f2.lhs * f3.lhs
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), abs(rhs), 1e-30)

    def test_properness_flag(self):
        pts = aff(0, 1, 2, 3, 4, 5, 0)  # repeated value
        assert not chain7_residual(pts).proper
        assert not any(f.proper for f in chain7_forms(pts))
        assert all(f.proper for f in chain7_forms(aff(0, 1, 2, 3, 4, 5, 6)))

    def test_linearity_pins_unique_root(self, rng):
        # the condition is linear in the last point: the root implied by two
        # probe evaluations matches the formula's output
        for _ in range(50):
            pts = [rnd_rp1(rng) for _ in range(6)]
            try:
                nxt = next_chain_point(pts)
            except DegenerateChain:
                continue
            u, v = RP1Point.affine(0.0), RP1Point.infinity()
            fu = chain7_residual(pts + [u])
            fv = chain7_residual(pts + [v])
            gu = fu.lhs - fu.rhs
            gv = fv.lhs - fv.rhs
            # g(alpha*u + beta*v) = alpha*gu + beta*gv: root at (gv, -gu)
            root = RP1Point(gv * u.coords[0] - gu * v.coords[0],
                            gv * u.coords[1] - gu * v.coords[1])
            assert rp1_distance(root, nxt) < 1e-12


class TestHexagon:
    def test_hexagon_point_closes(self, rng):
        for _ in range(50):
            pts = [rnd_rp1(rng) for _ in range(5)]
            try:
                p6 = hexagon_point6(pts)
            except DegenerateChain:
                continue
            closed = pts + [p6]
            # the wraparound chain condition: 7 == 1
            assert chain7_residual(closed + [pts[0]]).scaled_gap < 1e-12


class TestHeptagon6:
    def closure_pair(self, rng):
        while True:
            vals = sorted(rng.uniform(-2, 2) for _ in range(5))
            if min(b - a for a, b in zip(vals, vals[1:])) < 0.1:
                continue
            roots = [r for r in closure_roots(vals, 7) if r.accepted]
            if len(roots) == 2:
                return vals, roots

    def test_closure_roots_satisfy_condition(self, rng):
        for _ in range(10):
            vals, roots = self.closure_pair(rng)
            for r in roots:
                pts = aff(*vals) + [RP1Point.affine(r.value)]
                assert heptagon6_residual(pts).scaled_gap < 1e-9

    def test_cross_ratio_product_form(self, rng):
        vals, roots = self.closure_pair(rng)
        for r in roots:
            pts = aff(*vals) + [RP1Point.affine(r.value)]
            assert abs(heptagon6_cross_ratio_product(pts) - 1) < 1e-9

    def test_generic_nonzero(self, rng):
        hits = 0
        for _ in range(30):
            pts = [rnd_rp1(rng) for _ in range(6)]
            if heptagon6_residual(pts).scaled_gap > 1e-3:
                hits += 1
        assert hits >= 28


class TestPrecondition:
    def test_equals_testing_polynomial(self, rng):
        # the three-summand construction polynomial expands to the closure
        # condition exactly; check the difference at random points
        for _ in range(1000):
            pts = [rnd_rp1(rng, real=False) for _ in range(6)]
            pre = heptagon_precondition_residual(pts)
            test = heptagon6_residual(pts)
            d_pre = pre.lhs - pre.rhs
            d_test = test.lhs - test.rhs
            scale = max(abs(d_pre), abs(d_test), 1e-30)
            assert abs(d_pre - d_test) / scale < 1e-10

    def test_vanishes_with_testing_condition(self, rng):
        vals = sorted(rng.uniform(-2, 2) for _ in range(5))
        roots = [r for r in closure_roots(vals, 7) if r.accepted]
        for r in roots:
            pts = aff(*vals) + [RP1Point.affine(r.value)]
            assert heptagon_precondition_residual(pts).scaled_gap < 1e-9


class TestOctagonCondition:
    def test_golden_octagon_solutions(self):
        for sign in (-1, 1):
            x7 = (27 + sign * S649) / 10
            pts = aff(*GOLDEN_FIVE, x7)
            assert octagon_point7_residual(pts).scaled_gap < 1e-9

    def test_generic_nonzero(self, rng):
        hits = 0
        for _ in range(30):
            pts = [rnd_rp1(rng) for _ in range(6)]
            if octagon_point7_residual(pts).scaled_gap > 1e-3:
                hits += 1
        assert hits >= 28


class TestNinegonCondition:
    def test_closure_built_ninegons(self, rng):
        checked = 0
        while checked < 5:
            vals = sorted(rng.uniform(-2, 2) for _ in range(5))
            if min(b - a for a, b in zip(vals, vals[1:])) < 0.15:
                continue
            roots = [r for r in closure_roots(vals, 9) if r.accepted]
            for r in roots:
                seq = chain_values(vals, r.value, 7)
                sel = [seq[0], seq[1], seq[2], seq[3], seq[4], seq[6]]
                assert ninegon_residual(sel).scaled_gap < 1e-8
                checked += 1

    def test_generic_nonzero(self, rng):
        hits = 0
        for _ in range(30):
            pts = [rnd_rp1(rng) for _ in range(6)]
            if ninegon_residual(pts).scaled_gap > 1e-3:
                hits += 1
        assert hits >= 28


class TestGrassmannPluecker:
    def test_random_quadruples(self, rng):
        worst = 0.0
        for _ in range(5000):
            q = [rnd_rp1(rng, real=False) for _ in range(4)]
            worst = max(worst, gp_residual(*q))
        assert worst < 1e-13

    def test_dyadic_coordinates_exact_zero(self):
        # components whose largest entry is a power of two stay exact under
        # normalization, so the identity evaluates to literal zero
        pts = [RP1Point(a, b) for a, b in ((1, 2), (4, 1), (-1, 2), (1, -4))]
        assert gp_residual(*pts) == 0.0

    def test_permutation_still_identity(self, rng):
        import itertools

        q = [rnd_rp1(rng) for _ in range(4)]
        for perm in itertools.permutations(q):
            assert gp_residual(*perm) < 1e-13

    def test_syzygy_combination(self, rng):
        # combo vanishes identically and equals the difference of the two
        # heptagon polynomials term by term
        for _ in range(1000):
            pts = [rnd_rp1(rng, real=False) for _ in range(6)]
            combo, pre_diff, test_diff = gp_syzygy_combination(pts)
            scale = max(abs(pre_diff), abs(test_diff), 1e-30)
            assert abs(combo) / scale < 1e-10
            assert abs(pre_diff - test_diff) / scale < 1e-10
            assert abs((test_diff - pre_diff) - combo) / scale < 1e-10


class TestInvariances:
    def conditions(self):
        return [
            (6, lambda xs: heptagon6_residual(xs).scaled_gap),
            (7, lambda xs: chain7_residual(xs).scaled_gap),
            (6, lambda xs: octagon_point7_residual(xs).scaled_gap),
            (6, lambda xs: ninegon_residual(xs).scaled_gap),
            (6, lambda xs: heptagon_precondition_residual(xs).scaled_gap),
        ]

    def test_multihomogeneity(self, rng):
        # scaled_gap is invariant under independent rescaling of each point
        for k, fn in self.conditions():
            pts = [rnd_rp1(rng, real=False) for _ in range(k)]
            base = fn(pts)
            for _ in range(20):
                factors = [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in pts]
                scaled = [
                    RP1Point(p.coords[0] * f, p.coords[1] * f)
                    for p, f in zip(pts, factors)
                ]
                assert abs(fn(scaled) - base) < 1e-12 * max(1, base)

    def test_common_projective_map_invariance(self, rng):
        for k, fn in self.conditions():
            pts = [rnd_rp1(rng) for _ in range(k)]
            base = fn(pts)
            for _ in range(20):
                m = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
                if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) < 0.1:
                    continue
                mapped = [
                    RP1Point(
                        m[0][0] * p.coords[0] + m[0][1] * p.coords[1],
                        m[1][0] * p.coords[0] + m[1][1] * p.coords[1],
                    )
                    for p in pts
                ]
                assert abs(fn(mapped) - base) < 1e-10 * max(1.0, base)
