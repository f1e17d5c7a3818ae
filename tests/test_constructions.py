"""Join/meet construction procedures and their audit traces."""

import math
import random

import pytest

from poncelet import (
    Conic,
    PonceletScene,
    ProjPoint,
    RP1Point,
    apply_map,
    butterfly_check,
    chain_iterate_joinmeet,
    chain7_residual,
    closure_roots,
    closure_test,
    complete_heptagon,
    complete_hexagon_p6,
    complete_octagon,
    concentric_scene,
    conic_contains,
    conic_fit,
    conic_through_5,
    construct_heptagon_p6,
    construct_ninegon_p4,
    construct_octagon_p7,
    doubling,
    heptagon6_residual,
    join,
    line_conic_intersect,
    meet,
    moderate_chart,
    next_chain_point,
    ninegon_residual,
    octagon_point7_residual,
    polygon_scene,
    proj_distance,
    quadset_residual,
    rp1_distance,
    second_intersection,
    tangent_line_at,
)
from poncelet.chains import closure_system
from poncelet.errors import (
    ConstructionDegeneracy,
    DegenerateInput,
    DegeneratePencil,
    NotAHeptagonPrefix,
    NotAnOctagonPrefix,
    NoValidLabeling,
)
from poncelet.cli import sample_ring_points

from conftest import circle_points, proper, random_map, ring_points

S649 = math.sqrt(649)
GOLDEN = [-1, 0, 1, 4, 5]


def heptagon_case(rng):
    while True:
        pts = ring_points(rng, 5)
        try:
            p6, trace = construct_heptagon_p6(pts, 0)
            p7 = complete_heptagon(pts + [p6])
        except (ConstructionDegeneracy, NotAHeptagonPrefix, DegenerateInput):
            continue
        seven = pts + [p6, p7]
        if proper(seven):
            return pts, seven, trace


class TestHeptagonConstruction:
    def test_both_branches_satisfy_condition(self, rng):
        for _ in range(30):
            pts = ring_points(rng, 5)
            for branch in (0, 1):
                p6, trace = construct_heptagon_p6(pts, branch)
                conic = trace.elements["A"]
                chart = moderate_chart(conic, pts + [p6])
                xs = [chart.project(p) for p in pts + [p6]]
                assert heptagon6_residual(xs).scaled_gap < 1e-9

    def test_completion_closes(self, rng):
        pts, seven, _ = heptagon_case(rng)
        scene = polygon_scene(seven, 7)
        rep = closure_test(scene.outer, scene.inner, scene.vertices[0], 7)
        assert rep.closes and rep.residual_p < 1e-8 and rep.residual_q < 1e-8

    def test_all_rotations_satisfy_chain_condition(self, rng):
        pts, seven, _ = heptagon_case(rng)
        conic = conic_fit(seven)
        chart = moderate_chart(conic, seven)
        xs = [chart.project(p) for p in seven]
        for rot in range(7):
            window = xs[rot:] + xs[:rot]
            assert chain7_residual(window).scaled_gap < 1e-8

    def test_rotated_completion_is_rotated(self, rng):
        pts, seven, _ = heptagon_case(rng)
        rotated = seven[1:]  # prefix 2..7 completes back to point 1
        p8 = complete_heptagon(rotated[:6])
        assert proj_distance(p8, seven[0]) < 1e-7

    def test_generic_six_points_rejected(self, rng):
        pts = ring_points(rng, 6)
        with pytest.raises(NotAHeptagonPrefix):
            complete_heptagon(pts)

    def test_collinear_input_rejected(self):
        pts = [
            ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(2, 0, 1),
            ProjPoint(0, 1, 1), ProjPoint(1, 2, 1),
        ]
        with pytest.raises(DegenerateInput):
            construct_heptagon_p6(pts, 0)

    def test_branch_completeness_vs_closure_roots(self, rng):
        # the two branches are exactly the two roots of the degree-2 closure
        # polynomial for n = 7
        pts = ring_points(rng, 5)
        conic = conic_through_5(pts)
        cands = [construct_heptagon_p6(pts, b)[0] for b in (0, 1)]
        chart = moderate_chart(conic, pts + cands)
        known = [chart.project(p).value() for p in pts]
        roots = sorted(r.value.real for r in closure_roots(known, 7) if abs(r.value.imag) < 1e-9)
        got = sorted(chart.project(c).value().real for c in cands)
        if len(roots) == 2:  # both real for this draw
            for a, b in zip(roots, got):
                assert abs(a - b) < 1e-7 * max(1, abs(a))

    def test_projective_equivariance(self, rng):
        pts = ring_points(rng, 5)
        p6, _ = construct_heptagon_p6(pts, 0)
        p6_alt, _ = construct_heptagon_p6(pts, 1)
        for _ in range(5):
            s = random_map(rng)
            mapped = [apply_map(s, p) for p in pts]
            q6, _ = construct_heptagon_p6(mapped, 0)
            q6_alt, _ = construct_heptagon_p6(mapped, 1)
            images = {0: apply_map(s, p6), 1: apply_map(s, p6_alt)}
            # branch indexing is not canonical across frames; match as sets
            d0 = min(proj_distance(q6, images[0]), proj_distance(q6, images[1]))
            d1 = min(proj_distance(q6_alt, images[0]), proj_distance(q6_alt, images[1]))
            assert d0 < 1e-8 and d1 < 1e-8

    def test_trace_replay(self, rng):
        _, _, trace = heptagon_case(rng)
        assert trace.replay() < 1e-9

    def test_trace_quadset_certificates(self, rng):
        # the four concurrences O, P, Q, R of the construction transfer to
        # quadset relations on the conic (two auxiliary points on line OP)
        pts, seven, trace = heptagon_case(rng)
        conic = trace.elements["A"]
        p6 = trace.elements["6"]
        p6_alt = trace.elements["6_alt"]
        op_line = trace.elements["OP"]
        e8, e9, _ = line_conic_intersect(op_line, conic)
        chart = moderate_chart(conic, pts + [p6, p6_alt, e8, e9])
        x = {lbl: chart.project(p) for lbl, p in
             zip("1 2 3 4 5 6 6b 8 9".split(),
                 pts + [p6, p6_alt, e8, e9])}
        checks = [
            ((x["1"], x["4"]), (x["2"], x["5"]), (x["8"], x["9"])),   # O
            ((x["1"], x["3"]), (x["2"], x["4"]), (x["8"], x["9"])),   # P
            ((x["2"], x["4"]), (x["3"], x["5"]), (x["6"], x["6b"])),  # Q
            ((x["1"], x["5"]), (x["6"], x["6b"]), (x["8"], x["9"])),  # R
        ]
        for pairs in checks:
            assert quadset_residual(*pairs).scaled_gap < 1e-9


class TestHexagon:
    def test_completion_closes(self, rng):
        for _ in range(5):
            pts = ring_points(rng, 5)
            try:
                p6 = complete_hexagon_p6(pts)
            except (ConstructionDegeneracy, DegenerateInput):
                continue
            if not proper(pts + [p6]):
                continue
            scene = polygon_scene(pts + [p6], 6)
            assert closure_test(scene.outer, scene.inner, scene.vertices[0], 6).closes


class TestOctagonConstruction:
    def test_golden_point7_values(self):
        from poncelet.chains import canonical_chart

        chart = canonical_chart()
        lifted = [chart.lift(RP1Point.affine(v)) for v in GOLDEN]
        golden = sorted([(27 - S649) / 10, (27 + S649) / 10])
        got = sorted(
            chart.project(construct_octagon_p7(lifted, b)[0]).value().real
            for b in (0, 1)
        )
        for a, b in zip(golden, got):
            assert abs(a - b) < 1e-9

    def test_condition_on_random_inputs(self, rng):
        for _ in range(30):
            pts = ring_points(rng, 5)
            for branch in (0, 1):
                p7, trace = construct_octagon_p7(pts, branch)
                conic = trace.elements["A"]
                chart = moderate_chart(conic, pts + [p7])
                xs = [chart.project(p) for p in pts + [p7]]
                assert octagon_point7_residual(xs).scaled_gap < 1e-9

    def test_completion_closes_with_center(self, rng):
        done = 0
        while done < 5:
            pts = ring_points(rng, 5)
            try:
                p7, _ = construct_octagon_p7(pts, 0)
                p6, p8, center = complete_octagon(pts, p7)
            except (ConstructionDegeneracy, NotAnOctagonPrefix):
                continue
            octagon = pts + [p6, p7, p8]
            order = [pts[0], pts[1], pts[2], pts[3], pts[4], p6, p7, p8]
            if not proper(order):
                continue
            scene = polygon_scene(order, 8)
            rep = closure_test(scene.outer, scene.inner, scene.vertices[0], 8)
            assert rep.closes
            # all four long diagonals pass through the center
            for k in range(4):
                diag = join(order[k], order[k + 4])
                assert abs(sum(a * b for a, b in zip(center.coords, diag.coords))) < 1e-8
            done += 1

    def test_perturbed_point7_rejected(self, rng):
        pts = ring_points(rng, 5)
        p7, _ = construct_octagon_p7(pts, 0)
        bad = ProjPoint(p7.coords[0] + 0.05, p7.coords[1] - 0.03, p7.coords[2])
        with pytest.raises(NotAnOctagonPrefix):
            complete_octagon(pts, bad)


def prefix_gaps(five, last, residual):
    """The two gaps complete_heptagon / complete_octagon check, computed as they do:
    ``last`` against the conic through ``five``, and the bracket condition."""
    conic = conic_through_5(five)
    chart = moderate_chart(conic, list(five) + [last])
    xs = [chart.project(p) for p in list(five) + [last]]
    return conic_contains(conic, last), residual(xs).scaled_gap, chart


def off_conic(five, last, residual, target):
    """``last`` moved along the ray from its chart center, ``target`` off the conic;
    its transferred value, and so the bracket gap, stays put."""
    _, _, chart = prefix_gaps(five, last, residual)
    c = chart.center.coords

    def moved(t):
        return ProjPoint(tuple(a + t * b for a, b in zip(last.coords, c)))

    slope = conic_contains(chart.conic, moved(1e-9)) / 1e-9
    return moved(target / slope)


def along_conic(five, last, residual, target):
    """``last`` moved along the conic until the bracket gap is about ``target``."""
    _, _, chart = prefix_gaps(five, last, residual)
    x = chart.project(last).value()

    def moved(d):
        return chart.lift(RP1Point.affine(x + d))

    slope = prefix_gaps(five, moved(1e-6), residual)[1] / 1e-6
    return moved(target / slope)


class TestCompletionThresholds:
    """Both completions gate the on-conic residual and the bracket gap at 1e-6."""

    def cases(self):
        hept = concentric_scene(7).vertices
        octa = concentric_scene(8).vertices
        return [
            (lambda last: complete_heptagon(list(hept[:5]) + [last]),
             hept[:5], hept[5], heptagon6_residual),
            (lambda last: complete_octagon(list(octa[:5]), last),
             octa[:5], octa[6], octagon_point7_residual),
        ]

    def test_on_conic_cut(self):
        for complete, five, last, residual in self.cases():
            near = off_conic(five, last, residual, 5e-7)
            far = off_conic(five, last, residual, 2e-6)
            on_near, gap_near, _ = prefix_gaps(five, near, residual)
            assert 4e-7 < on_near < 6e-7 and gap_near < 1e-9
            assert 1.6e-6 < conic_contains(conic_through_5(five), far) < 2.4e-6
            complete(near)
            with pytest.raises((NotAHeptagonPrefix, NotAnOctagonPrefix), match="carrier conic"):
                complete(far)

    def test_bracket_cut(self):
        for complete, five, last, residual in self.cases():
            near = along_conic(five, last, residual, 5e-7)
            far = along_conic(five, last, residual, 2e-6)
            on_near, gap_near, _ = prefix_gaps(five, near, residual)
            on_far, gap_far, _ = prefix_gaps(five, far, residual)
            assert 4e-7 < gap_near < 6e-7 and on_near < 1e-12
            assert 1.6e-6 < gap_far < 2.4e-6 and on_far < 1e-12
            complete(near)
            with pytest.raises((NotAHeptagonPrefix, NotAnOctagonPrefix), match="condition violated"):
                complete(far)


class TestNinegonConstruction:
    def test_three_candidates_close(self, rng):
        done = 0
        while done < 8:
            pts = ring_points(rng, 5)
            try:
                cands, trace = construct_ninegon_p4(pts)
            except (ConstructionDegeneracy, DegenerateInput):
                continue
            conic = trace.elements["A"]
            chart = moderate_chart(conic, list(pts) + list(cands))
            known = [chart.project(p).value() for p in pts]
            try:
                system = closure_system(known, 9, var_slot=3)
            except DegenerateInput:
                continue
            # conditioning guard: skip hypersensitive draws (wrap residual
            # slope measured at a tiny offset from each exact root)
            from poncelet.ratpoly import exact_newton

            sensitive = False
            values = [chart.project(c).value() for c in cands]
            for v in values:
                (num, den), _, _ = exact_newton(system.genuine, v)
                rp, rq = system.wrap_residuals((num * 10**12 + den, den * 10**12))
                if max(rp, rq) > 1e-4:
                    sensitive = True
            if sensitive:
                continue
            assert len(cands) == 3
            for v in values:
                rp, rq = system.wrap_residuals(v)
                assert rp < 1e-8 and rq < 1e-8
            done += 1

    def test_ninegon_bracket_condition_holds(self, rng):
        pts = ring_points(rng, 5)
        cands, trace = construct_ninegon_p4(pts)
        conic = trace.elements["A"]
        chart = moderate_chart(conic, list(pts) + list(cands))
        ks = [chart.project(p) for p in pts]
        for c in cands:
            x4 = chart.project(c)
            seq = [ks[0], ks[1], ks[2], x4, ks[3], ks[4]]
            while len(seq) < 7:
                seq.append(next_chain_point(seq[-6:]))
            sel = [seq[0], seq[1], seq[2], seq[3], seq[4], seq[6]]
            assert ninegon_residual(sel).scaled_gap < 1e-7

    def test_collinear_rejected(self):
        pts = [
            ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(2, 0, 1),
            ProjPoint(0, 1, 1), ProjPoint(1, 2, 1),
        ]
        with pytest.raises(DegenerateInput):
            construct_ninegon_p4(pts)

    def test_auxiliary_conic_incidences(self, rng):
        # P, Q, N, M all lie on the auxiliary conic by construction
        pts = ring_points(rng, 5)
        cands, trace = construct_ninegon_p4(pts)
        cc = trace.elements["C"]
        for lbl in ("P", "Q", "N", "M", "1"):
            assert conic_contains(cc, trace.elements[lbl]) < 1e-9


class TestDoubling:
    def test_pentagon_to_ten_gon(self, rng):
        for _ in range(5):
            verts = circle_points(rng, 5, minsep=0.5)
            scene = polygon_scene(verts, 5)
            doubled, trace = doubling(scene)
            assert doubled.n == 10 and len(doubled.vertices) == 10
            rep = closure_test(doubled.outer, doubled.inner, doubled.vertices[0], 10)
            assert rep.closes and rep.residual_p < 1e-7
            # odd vertices are the originals
            for i in range(5):
                assert proj_distance(doubled.vertices[2 * i], verts[i]) < 1e-9

    def test_concentric_triangle_exact_pattern(self):
        scene = concentric_scene(3)
        doubled, _ = doubling(scene)
        assert doubled.n == 6
        angles = sorted(
            round(
                (math.atan2(p.coords[1].real / p.coords[2].real,
                            p.coords[0].real / p.coords[2].real) % (2 * math.pi))
                / (math.pi / 3), 6,
            ) % 6
            for p in doubled.vertices
        )
        assert angles == pytest.approx([0, 1, 2, 3, 4, 5], abs=1e-7)
        rep = closure_test(doubled.outer, doubled.inner, doubled.vertices[0], 6)
        assert rep.closes

    def test_doubling_tangency_and_touch_interleave(self, rng):
        verts = circle_points(rng, 5, minsep=0.5)
        scene = polygon_scene(verts, 5)
        doubled, _ = doubling(scene)
        checks = doubled.verify()
        assert checks["tangency"] < 1e-7
        assert checks["vertex"] < 1e-7

    def test_real_scene_rejects_non_real_labelings(self):
        # the first pentagon of construct double --seed 606172: its frame has
        # two non-real vertices, and the labelings whose edges still touch
        # one conic map the touch points off the real conic
        pts = sample_ring_points(random.Random(606172), 5)
        with pytest.raises(NoValidLabeling):
            doubling(polygon_scene(pts, 5))

    def test_proportional_conics_rejected(self):
        uc = Conic.unit_circle()
        fake = PonceletScene(uc, uc, (ProjPoint(1, 0, 1),), (), 1)
        with pytest.raises(DegeneratePencil):
            doubling(fake)

    def test_open_scene_rejected(self, rng):
        verts = circle_points(rng, 5, minsep=0.5)
        scene = polygon_scene(verts, 5)
        opened = PonceletScene(scene.outer, scene.inner, scene.vertices, scene.touch_points, 7)
        with pytest.raises(DegenerateInput):
            doubling(opened)


class TestButterflyChain:
    def test_point7_matches_formula(self, rng):
        uc = Conic.unit_circle()
        for _ in range(200):
            pts = circle_points(rng, 6, minsep=0.25)
            try:
                p7 = chain_iterate_joinmeet(pts, uc, 1).points[6]
            except ConstructionDegeneracy:
                continue
            assert conic_contains(uc, p7) < 1e-9
            chart = moderate_chart(uc, pts)
            alg = next_chain_point([chart.project(p) for p in pts])
            assert rp1_distance(chart.project(p7), alg) < 1e-9

    def test_coincident_inputs_raise(self):
        uc = Conic.unit_circle()
        p = ProjPoint(1, 0, 1)
        pts = [p, p, ProjPoint(0, 1, 1), ProjPoint(-1, 0, 1), ProjPoint(0, -1, 1),
               ProjPoint(math.cos(1), math.sin(1), 1)]
        with pytest.raises(ConstructionDegeneracy):
            chain_iterate_joinmeet(pts, uc, 1)

    def test_iteration_matches_algebraic_chain(self, rng):
        uc = Conic.unit_circle()
        pts = circle_points(rng, 6, minsep=0.3)
        chain = chain_iterate_joinmeet(pts, uc, 30)
        chart = moderate_chart(uc, pts)
        alg = [chart.project(p) for p in pts]
        while len(alg) < len(chain.points):
            alg.append(next_chain_point(alg[-6:]))
        for got, want in zip(chain.points, alg):
            assert rp1_distance(chart.project(got), want) < 1e-8

    def test_heptagon_seed_closes(self, rng):
        pts, seven, _ = heptagon_case(rng)
        conic = conic_fit(seven)
        chain = chain_iterate_joinmeet(seven[:6], conic, 8)
        assert chain.closed_period == 7

    def test_off_conic_seed_still_runs(self, rng):
        # the perturbed experiment: no conic membership asserted anywhere
        uc = Conic.unit_circle()
        pts = circle_points(rng, 6, minsep=0.3)
        nudged = pts[:5] + [ProjPoint(pts[5].coords[0] + 0.05, pts[5].coords[1], 1)]
        chain = chain_iterate_joinmeet(nudged, uc, 15)
        assert len(chain.points) == 21
        assert chain.closed_period is None


class TestButterflyTheorem:
    def cases(self, rng):
        uc = Conic.unit_circle()
        # secant, tangent and disjoint lines
        lines = [
            join(ProjPoint(0.3, 0.1, 1), ProjPoint(-0.2, 0.4, 1)),
            tangent_line_at(uc, ProjPoint(0, 1, 1)),
            join(ProjPoint(2, 0, 1), ProjPoint(2.2, 1, 1)),
        ]
        for line in lines:
            for _ in range(20):
                a_pts = circle_points(rng, 4, minsep=0.3)
                b1 = ProjPoint(math.cos(2.1), math.sin(2.1), 1)
                try:
                    xs = [meet(join(a_pts[i], a_pts[(i + 1) % 4]), line) for i in range(4)]
                    b2 = second_intersection(uc, b1, xs[0])
                    b3 = second_intersection(uc, b2, xs[1])
                    b4 = second_intersection(uc, b3, xs[2])
                except Exception:
                    continue
                yield a_pts, [b1, b2, b3, b4], line

    def test_conclusion_holds(self, rng):
        count = 0
        for a_pts, b_pts, line in self.cases(rng):
            assert butterfly_check(a_pts, b_pts, line) < 1e-9
            count += 1
        assert count >= 50

    def test_broken_hypothesis_fails(self, rng):
        line = join(ProjPoint(0.3, 0.1, 1), ProjPoint(-0.2, 0.4, 1))
        a_pts = circle_points(rng, 4, minsep=0.3)
        b_pts = circle_points(rng, 4, minsep=0.3)  # not threaded through the cuts
        assert butterfly_check(a_pts, b_pts, line) > 1e-4

    def test_needs_two_quadruples(self, rng):
        line = join(ProjPoint(0.3, 0.1, 1), ProjPoint(-0.2, 0.4, 1))
        with pytest.raises(ValueError):
            butterfly_check(circle_points(rng, 4), circle_points(rng, 3), line)
