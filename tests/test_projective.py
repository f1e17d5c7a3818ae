"""Plane primitives: joins, meets, conics, intersections, maps."""

import math
import random

import numpy as np
import pytest

from poncelet import (
    Conic,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    conic_conic_intersect,
    conic_contains,
    conic_through_5,
    join,
    line_conic_intersect,
    meet,
    proj_distance,
    proj_map_from_4,
    second_intersection,
    six_on_conic_residual,
    tangent_line_at,
    tangents_from_point,
)
from poncelet.projective import min_separation
from poncelet.settings import DEFAULT
from poncelet.errors import (
    CoincidentElements,
    DegenerateInput,
    NonFiniteElement,
    PointNotOnConic,
    ProportionalConics,
)

from conftest import random_map, ring_points


def complex_map(rng):
    """Well-conditioned projective map with non-real entries."""
    while True:
        m = ProjMap([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(3)])
        if abs(m.det) > 0.05:
            return m


def circle_point(m, angle):
    """The point of the unit circle at ``angle``, mapped by ``m`` (None: as is)."""
    p = ProjPoint(math.cos(angle), math.sin(angle), 1)
    return p if m is None else apply_map(m, p)


def cross_oracle(u, v):
    # independent textbook cross product, used as the join/meet oracle
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class TestJoinMeet:
    def test_join_basis_vectors(self):
        l = join(ProjPoint(1, 0, 0), ProjPoint(0, 1, 0))
        assert l.is_same(ProjLine(0, 0, 1))

    def test_join_incidence(self):
        p, q = ProjPoint(1, 0, 1), ProjPoint(0, 1, 1)
        l = join(p, q)
        assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-12
        assert abs(sum(a * b for a, b in zip(q.coords, l.coords))) < 1e-12

    def test_join_random_against_cross_product(self, rng):
        for _ in range(200):
            p = ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            l = join(p, q)
            assert l.is_same(ProjLine(cross_oracle(p.coords, q.coords)), 1e-10)
            assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-12

    def test_join_coincident_raises(self):
        p = ProjPoint(0.3, -0.4, 1)
        with pytest.raises(CoincidentElements):
            join(p, ProjPoint(0.6, -0.8, 2))

    def test_coincidence_cut_is_1e12(self):
        # the cross product of (0, 0, 1) and (eps, 0, 1) is (0, eps, 0)
        base = ProjPoint(0, 0, 1)
        join(base, ProjPoint(2e-12, 0, 1))
        meet(ProjLine(base), ProjLine(2e-12, 0, 1))
        with pytest.raises(CoincidentElements):
            join(base, ProjPoint(5e-13, 0, 1))
        with pytest.raises(CoincidentElements):
            meet(ProjLine(base), ProjLine(5e-13, 0, 1))

    def test_meet_basis(self):
        p = meet(ProjLine(0, 0, 1), ProjLine(0, 1, 0))
        assert p.is_same(ProjPoint(1, 0, 0))

    def test_meet_of_joins_recovers_point(self, rng):
        for _ in range(50):
            p, q, r = (ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), 1) for _ in range(3))
            got = meet(join(p, q), join(p, r))
            assert got.is_same(p, 1e-9)

    def test_meet_random_residual(self, rng):
        for _ in range(100):
            l = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            m = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = meet(l, m)
            assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-12
            assert abs(sum(a * b for a, b in zip(p.coords, m.coords))) < 1e-12

    def test_duality_same_arithmetic(self, rng):
        # join on coordinate triples and meet on the same triples agree
        u = (0.3, -0.7, 0.2)
        v = (0.9, 0.4, -0.5)
        l = join(ProjPoint(u), ProjPoint(v))
        p = meet(ProjLine(u), ProjLine(v))
        assert tuple(l.coords) == tuple(p.coords)


class TestElementBasics:
    def test_normalization_largest_is_one(self):
        p = ProjPoint(3, -6, 2)
        assert max(abs(z) for z in p.coords) == 1.0
        assert p.coords[1] == 1.0  # divided by the largest component

    def test_zero_vector_rejected(self):
        with pytest.raises(NonFiniteElement):
            ProjPoint(0, 0, 0)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteElement):
            ProjPoint(float("nan"), 1, 0)

    def test_projective_equality_via_minors(self):
        p = ProjPoint(0.5, 0.25, 1)
        assert p.is_same(ProjPoint(2, 1, 4))
        assert not p.is_same(ProjPoint(2, 1, 4.001))

    def test_min_separation_is_smallest_pairwise_distance(self, rng):
        pts = ring_points(rng, 7)
        pairs = [proj_distance(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
        assert min_separation(pts) == min(pairs)
        assert min_separation(pts[:1]) == math.inf


class TestConics:
    def test_circle_through_5(self):
        pts = [ProjPoint(math.cos(t), math.sin(t), 1) for t in (0.1, 1.0, 2.2, 3.3, 4.5)]
        c = conic_through_5(pts)
        assert c.is_same(Conic((1, 0, 0, 1, 0, -1)), 1e-10)

    def test_collinear_triple_rejected(self):
        pts = [
            ProjPoint(0, 0, 1),
            ProjPoint(1, 1, 1),
            ProjPoint(2, 2, 1),
            ProjPoint(1, 0, 1),
            ProjPoint(0, 1, 1),
        ]
        with pytest.raises(DegenerateInput):
            conic_through_5(pts)

    def test_contains_trivial(self):
        uc = Conic.unit_circle()
        assert conic_contains(uc, ProjPoint(1, 0, 1)) < 1e-15
        val = conic_contains(uc, ProjPoint(1, 1, 1))
        assert abs(val - 1.0) < 1e-12  # |1 + 1 - 1| over unit scale

    def test_tangent_line_golden(self):
        uc = Conic.unit_circle()
        t = tangent_line_at(uc, ProjPoint(1, 0, 1))
        assert t.is_same(ProjLine(1, 0, -1))

    def test_tangent_off_conic_raises(self):
        with pytest.raises(PointNotOnConic):
            tangent_line_at(Conic.unit_circle(), ProjPoint(2, 0, 1))

    def test_tangent_on_conic_cut_is_1e7(self):
        uc = Conic.unit_circle()
        near = ProjPoint(0.6, 0.8 * math.sqrt(1 + 7.8125e-8), 1)
        far = ProjPoint(0.6, 0.8 * math.sqrt(1 + 3.125e-7), 1)
        assert 4.9e-8 < conic_contains(uc, near) < 5.1e-8
        assert 1.9e-7 < conic_contains(uc, far) < 2.1e-7
        assert tangent_line_at(uc, near).is_same(ProjLine(0.6, 0.8, -1), 1e-7)
        with pytest.raises(PointNotOnConic):
            tangent_line_at(uc, far)

    def test_tangent_satisfies_dual_condition(self, rng):
        for _ in range(50):
            pts = ring_points(rng, 5)
            c = conic_through_5(pts)
            for p in pts:
                l = tangent_line_at(c, p)
                scale = max(abs(z) for z in c.adjugate_entries())
                assert abs(c.dual_qform(l.coords)) / scale < 1e-10
                assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-10


class TestLineConic:
    def test_axis_through_circle(self):
        p1, p2, tang = line_conic_intersect(ProjLine(0, 1, 0), Conic.unit_circle())
        assert not tang
        assert any(p.is_same(ProjPoint(1, 0, 1)) for p in (p1, p2))
        assert any(p.is_same(ProjPoint(1, 0, -1)) for p in (p1, p2))

    def test_tangent_line_doubles(self):
        p1, p2, tang = line_conic_intersect(ProjLine(1, 0, -1), Conic.unit_circle())
        assert tang
        assert p1.is_same(ProjPoint(1, 0, 1), 1e-7)
        assert p2.is_same(ProjPoint(1, 0, 1), 1e-7)

    def test_exterior_line_conjugate_pair(self):
        uc = Conic.unit_circle()
        p1, p2, tang = line_conic_intersect(ProjLine(1, 0, -2), uc)  # x = 2
        assert not tang
        for p in (p1, p2):
            assert conic_contains(uc, p) < 1e-10
        # complex conjugates of each other
        conj = ProjPoint(tuple(z.conjugate() for z in p1.coords))
        assert conj.is_same(p2, 1e-9)

    def test_roundtrip_on_random_conics(self, rng):
        for _ in range(100):
            pts = ring_points(rng, 5)
            c = conic_through_5(pts)
            l = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            p1, p2, _ = line_conic_intersect(l, c)
            for p in (p1, p2):
                assert conic_contains(c, p) < 1e-10
                assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-10

    def test_second_intersection_deflation(self):
        uc = Conic.unit_circle()
        q = second_intersection(uc, ProjPoint(1, 0, 1), ProjPoint(0, 0, 1))
        assert q.is_same(ProjPoint(-1, 0, 1))

    def test_second_intersection_of_coincident_points_raises(self):
        uc = Conic.unit_circle()
        p = ProjPoint(1, 0, 1)
        with pytest.raises(DegenerateInput):
            second_intersection(uc, p, p)
        with pytest.raises(DegenerateInput):
            second_intersection(uc, p, ProjPoint(2, 0, 2))

    def test_second_intersection_through_a_conic_point_is_that_point(self, rng):
        for m in (None, random_map(rng), complex_map(rng)):
            c = Conic.unit_circle() if m is None else apply_map(m, Conic.unit_circle())
            for _ in range(20):
                known, other = (circle_point(m, rng.uniform(0, 2 * math.pi)) for _ in range(2))
                if proj_distance(known, other) > 1e-3:
                    assert second_intersection(c, known, other).is_same(other)

    def test_second_intersection_is_the_farther_cut(self):
        """On real and non-real projective images of the unit circle, the
        second intersection lies within DEFAULT.rel of the line-conic cut
        farther from the known point."""
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.integers(0, 2**32), st.booleans(),
                          st.floats(0, 2 * math.pi), st.floats(0.3, 2 * math.pi - 0.3),
                          st.floats(0.1, 10), st.booleans())
        def check(seed, real, angle, gap, weight, flip):
            rng = random.Random(seed)
            m = random_map(rng) if real else complex_map(rng)
            c = apply_map(m, Conic.unit_circle())
            known, far = circle_point(m, angle), circle_point(m, angle + gap)
            # a point of the line through known and far, neither of them
            w = -weight if flip else weight
            other = ProjPoint(tuple(k + w * f for k, f in zip(known.coords, far.coords)))
            got = second_intersection(c, known, other)
            p1, p2, _ = line_conic_intersect(join(known, other), c)
            cut = p1 if proj_distance(p1, known) >= proj_distance(p2, known) else p2
            assert proj_distance(got, cut) < DEFAULT.rel

        check()


class TestTangentsFromPoint:
    def test_center_gives_conjugate_pair(self):
        uc = Conic.unit_circle()
        l1, l2, doubled = tangents_from_point(ProjPoint(0, 0, 1), uc)
        assert not doubled
        # oracle: pencil through the center solved directly on the dual conic
        # lines through (0,0,1) are (a, b, 0); dual form a^2 + b^2 = 0
        for l in (l1, l2):
            a, b, c = l.coords
            assert abs(c) < 1e-12
            assert abs(a * a + b * b) < 1e-12
        conj = ProjLine(tuple(z.conjugate() for z in l1.coords))
        assert conj.is_same(l2, 1e-9)

    def test_point_on_conic_doubles_to_tangent(self):
        uc = Conic.unit_circle()
        p = ProjPoint(0, 1, 1)
        l1, l2, doubled = tangents_from_point(p, uc)
        assert doubled
        t = tangent_line_at(uc, p)
        assert l1.is_same(t, 1e-7) and l2.is_same(t, 1e-7)

    def test_exterior_real_tangents_roundtrip(self, rng):
        uc = Conic.unit_circle()
        for _ in range(50):
            p = ProjPoint(rng.uniform(1.5, 3), rng.uniform(-2, 2), 1)
            l1, l2, doubled = tangents_from_point(p, uc)
            assert not doubled
            for l in (l1, l2):
                assert l.is_real(1e-9)
                assert abs(sum(a * b for a, b in zip(p.coords, l.coords))) < 1e-10
                # touching point via the pole; tangent there must be l again
                from poncelet import pole

                q = pole(uc, l)
                assert conic_contains(uc, q) < 1e-9
                assert tangent_line_at(uc, q).is_same(l, 1e-7)


class TestConicConic:
    def test_tangent_pencil_doubled_points(self):
        a = Conic((1, 0, 0, 1, 0, -1))
        b = Conic((1, 0, 0, 2, 0, -1))
        pts = conic_conic_intersect(a, b)
        assert len(pts) == 4
        hits_plus = sum(p.is_same(ProjPoint(1, 0, 1), 1e-6) for p in pts)
        hits_minus = sum(p.is_same(ProjPoint(1, 0, -1), 1e-6) for p in pts)
        assert hits_plus == 2 and hits_minus == 2  # two double contacts

    def test_concentric_circles_complex_points(self):
        a = Conic.unit_circle()
        b = Conic.circle(0.5)
        pts = conic_conic_intersect(a, b)
        assert len(pts) == 4
        for p in pts:
            assert conic_contains(a, p) < 1e-8
            assert conic_contains(b, p) < 1e-8
            assert not p.is_real(1e-6)

    def test_proportional_rejected(self):
        a = Conic.unit_circle()
        with pytest.raises(ProportionalConics):
            conic_conic_intersect(a, Conic(tuple(3 * z for z in a.entries)))

    def test_generic_pair_residuals(self, rng):
        for _ in range(30):
            a = conic_through_5(ring_points(rng, 5))
            b = conic_through_5(ring_points(rng, 5))
            pts = conic_conic_intersect(a, b)
            for p in pts:
                assert conic_contains(a, p) < 1e-8
                assert conic_contains(b, p) < 1e-8

    def test_pencil_cubic_against_independent_oracle(self, rng):
        # the degenerate-member parameters are the roots of det(A + tB);
        # recompute that cubic with numpy determinants and compare root sets
        for _ in range(20):
            a = conic_through_5(ring_points(rng, 5))
            b = conic_through_5(ring_points(rng, 5))
            A, B = (np.array(c.rows(), dtype=complex) for c in (a, b))
            samples = [complex(t) for t in (0, 1, -1, 2)]
            dets = [np.linalg.det(A + t * B) for t in samples]
            V = np.vander(np.array(samples), 4, increasing=True)
            coeffs = np.linalg.solve(V, np.array(dets))
            oracle_roots = np.roots(coeffs[::-1])
            # verify every intersection point lies on some degenerate member
            pts = conic_conic_intersect(a, b)
            for p in pts:
                qa = p.coords @ A @ p.coords
                qb = p.coords @ B @ p.coords
                # p on both conics means any pencil member vanishes at p
                assert abs(qa) < 1e-7 and abs(qb) < 1e-7
            # oracle roots must make the pencil member degenerate
            for t in oracle_roots:
                assert abs(np.linalg.det(A + t * B)) < 1e-8


class TestProjMaps:
    def test_identity_from_standard_frame(self):
        frame = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)]
        s = proj_map_from_4(frame, frame)
        assert apply_map(s, ProjPoint(0.3, 0.4, 1)).is_same(ProjPoint(0.3, 0.4, 1), 1e-10)

    def test_random_frames_roundtrip(self, rng):
        for _ in range(30):
            src = ring_points(rng, 4)
            dst = ring_points(rng, 4)
            s = proj_map_from_4(src, dst)
            sinv = s.inverse()
            for _ in range(10):
                p = ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), 1)
                assert apply_map(sinv, apply_map(s, p)).is_same(p, 1e-8)

    def test_collinear_source_rejected(self):
        src = [ProjPoint(0, 0, 1), ProjPoint(1, 1, 1), ProjPoint(2, 2, 1), ProjPoint(1, 0, 1)]
        dst = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1), ProjPoint(1, 1, 1)]
        with pytest.raises(DegenerateInput):
            proj_map_from_4(src, dst)

    def test_incidence_preserved(self, rng):
        for _ in range(50):
            s = random_map(rng)
            p = ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), 1)
            q = ProjPoint(rng.uniform(-1, 1), rng.uniform(-1, 1), 1)
            l = join(p, q)
            assert abs(
                sum(a * b for a, b in zip(apply_map(s, p).coords, apply_map(s, l).coords))
            ) < 1e-10

    def test_conic_containment_preserved(self, rng):
        for _ in range(30):
            s = random_map(rng)
            pts = ring_points(rng, 5)
            c = conic_through_5(pts)
            for p in pts:
                assert conic_contains(apply_map(s, c), apply_map(s, p)) < 1e-8

    def test_tangency_preserved(self, rng):
        uc = Conic.unit_circle()
        for _ in range(30):
            s = random_map(rng)
            ang = rng.uniform(0, 2 * math.pi)
            p = ProjPoint(math.cos(ang), math.sin(ang), 1)
            t = tangent_line_at(uc, p)
            c2 = apply_map(s, uc)
            scale = max(abs(z) for z in c2.adjugate_entries())
            assert abs(c2.dual_qform(apply_map(s, t).coords)) / scale < 1e-9


class TestSixOnConic:
    def test_conic_sample_vanishes(self, rng):
        for _ in range(30):
            pts = ring_points(rng, 5)
            c = conic_through_5(pts)
            l = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), 1)
            extra = line_conic_intersect(l, c)[0]
            assert six_on_conic_residual(pts + [extra]) < 1e-10

    def test_generic_six_points_nonzero(self, rng):
        hits = 0
        for _ in range(30):
            pts = ring_points(rng, 6)
            if six_on_conic_residual(pts) > 1e-3:
                hits += 1
        assert hits >= 28  # allow for rare near-conconic draws

    def test_repeated_point_degenerates_to_zero(self):
        # rational circle points keep the determinants exact, so the repeated
        # column kills both sides identically
        pts = [ProjPoint(1 - t * t, 2 * t, 1 + t * t) for t in (0, 1, 2, 3, 5)]
        assert six_on_conic_residual(pts + [pts[0]]) == 0.0

    def test_invariance_under_maps(self, rng):
        pts = ring_points(rng, 6)
        base = six_on_conic_residual(pts)
        for _ in range(20):
            s = random_map(rng)
            mapped = [apply_map(s, p) for p in pts]
            assert abs(six_on_conic_residual(mapped) - base) < 1e-8 * max(1, base)
