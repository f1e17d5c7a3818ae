"""The pure-Python conic fit, pencil cubic and eigenvector frame against numpy.

``tests/primitive_reference.py`` keeps the LAPACK routes as oracles.  The
fit must give the SVD's null vector up to scale (|cos angle| >= 1 - 1e-12)
and raise where the SVD finds no one-dimensional null space; the cubic
roots must match ``numpy.roots`` to within what each root's multiplicity
allows; ``conic_conic_intersect`` must return the oracle's four points.
"""

import math
import random

import numpy as np
import pytest

from poncelet import (
    Conic,
    ProjMap,
    ProjPoint,
    apply_map,
    closure_test,
    concentric_scene,
    conic_conic_intersect,
    conic_contains,
    conic_fit,
    doubling,
    proj_distance,
    transformed_scene,
)
from poncelet.constructions import _eigenvector_frame
from poncelet.errors import DegenerateInput, NumericalRankDeficiency
from poncelet.projective import _cubic_roots

from conftest import random_map
from primitive_reference import (
    design_matrix,
    np_conic_conic_intersect,
    np_cubic_roots,
    np_eigenvector_frame,
    svd_conic_fit,
    svd_null_vector,
)


def complex_map(rng):
    while True:
        try:
            m = ProjMap([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
                         for _ in range(3)])
        except Exception:
            continue
        if abs(m.det) > 0.05:
            return m


def image(points, kind, rng):
    """The points, or their image under a random real or non-real map."""
    if kind == "plain":
        return points
    m = random_map(rng) if kind == "real" else complex_map(rng)
    return [apply_map(m, p) for p in points]


def spread_angles(rng, k):
    """k angles at least 0.3 / k apart, so no two points nearly coincide."""
    while True:
        ts = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        gaps = [b - a for a, b in zip(ts, ts[1:])] + [ts[0] + 2 * math.pi - ts[-1]]
        if min(gaps) > 0.3 / k:
            return ts


def on_ellipse(rng, k):
    a, b = rng.uniform(0.5, 2), rng.uniform(0.5, 2)
    cx, cy = rng.uniform(-1, 1), rng.uniform(-1, 1)
    return [ProjPoint(cx + a * math.cos(t), cy + b * math.sin(t), 1) for t in spread_angles(rng, k)]


def abs_cos(u, v):
    dot = abs(sum(x.conjugate() * y for x, y in zip(u, v)))
    return dot / math.sqrt(sum(abs(x) ** 2 for x in u) * sum(abs(y) ** 2 for y in v))


def outcome(fn, points):
    try:
        return fn(points)
    except (NumericalRankDeficiency, DegenerateInput) as exc:
        return type(exc)


class TestConicFit:
    def test_matches_svd_up_to_scale(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(st.integers(0, 2**32), st.integers(5, 12),
                          st.sampled_from(["plain", "real", "complex"]))
        def check(seed, k, kind):
            rng = random.Random(seed)
            points = image(on_ellipse(rng, k), kind, rng)
            got, want = outcome(conic_fit, points), outcome(svd_conic_fit, points)
            if isinstance(want, type):
                assert got is want
                return
            assert abs_cos(got.entries, want.entries) >= 1 - 1e-12
            assert max(conic_contains(got, p) for p in points) < 1e-9

        check()

    def test_noisy_points_keep_the_least_squares_fit(self, rng):
        # more than five points off the conic: the fit is still the SVD's
        for _ in range(100):
            k = rng.randint(6, 12)
            points = [ProjPoint(x + rng.gauss(0, 1e-6), y + rng.gauss(0, 1e-6), z)
                      for x, y, z in (p.coords for p in on_ellipse(rng, k))]
            points = image(points, rng.choice(["plain", "real", "complex"]), rng)
            assert abs_cos(conic_fit(points).entries, svd_conic_fit(points).entries) >= 1 - 1e-12

    def test_construction_scale_noise_bounds_the_basic_solution(self, rng):
        # at noise 1e-3 the QR basic solution is not the SVD's minimiser of
        # |Av| / |v|: over 1000 draws from this seed 1 - |cos| reaches 3e-3
        # and its residual 1.2 % above the minimum (where the last pivot is
        # small); these bounds record that drift
        for _ in range(100):
            k = rng.randint(6, 12)
            points = [ProjPoint(x + rng.gauss(0, 1e-3), y + rng.gauss(0, 1e-3), z)
                      for x, y, z in (p.coords for p in on_ellipse(rng, k))]
            points = image(points, rng.choice(["plain", "real", "complex"]), rng)
            got, want = conic_fit(points).entries, svd_conic_fit(points).entries
            a = design_matrix(points)
            residual = [np.linalg.norm(a @ np.array(v)) / np.linalg.norm(v) for v in (got, want)]
            assert abs_cos(got, want) >= 1 - 1e-2
            assert residual[0] <= 1.05 * residual[1]

    @pytest.mark.parametrize("kind", ["plain", "real", "complex"])
    def test_rank_deficient_inputs_raise(self, rng, kind):
        line = [ProjPoint(t, 2 * t - 1, 1) for t in (-1.5, -0.4, 0.3, 1.1, 2.2, 3.0, 4.5)]
        off = [ProjPoint(0.2, 3, 1), ProjPoint(-2, 0.5, 1)]
        circle = on_ellipse(rng, 4)
        cases = [
            line[:4] + off[:1],                     # four of five collinear
            line[:5] + off[:1],                     # all but one collinear
            line[:7] + off[:1],
            circle + circle[:2],                    # four distinct points
            circle[:3] + [circle[0]] * 3,
        ]
        for points in cases:
            points = image(points, kind, rng)
            assert svd_null_vector(points)[1] < 1e-10
            with pytest.raises(NumericalRankDeficiency):
                conic_fit(points)

    def test_line_pairs_are_degenerate_not_deficient(self):
        # three of five collinear: the conic is unique but a line pair
        points = [ProjPoint(0, 0, 1), ProjPoint(1, 0, 1), ProjPoint(2, 0, 1),
                  ProjPoint(0, 1, 1), ProjPoint(1, 2, 1)]
        for fn in (conic_fit, svd_conic_fit):
            with pytest.raises(DegenerateInput):
                fn(points)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            conic_fit([ProjPoint(1, 0, 1)] * 4)


def match_roots(got, want, tol):
    """Largest distance between the multisets, scaled by max(1, |root|)."""
    assert len(got) == len(want)
    rest = list(want)
    worst = 0.0
    for z in got:
        w = min(rest, key=lambda r: abs(r - z))
        rest.remove(w)
        worst = max(worst, abs(w - z) / max(1.0, abs(w)))
    assert worst <= tol, (got, want)


def from_roots(roots, lead=1):
    """Coefficients, highest first, of lead * prod (t - r)."""
    c = [complex(lead)]
    for r in roots:
        c = [a - r * b for a, b in zip(c + [0], [0] + c)]
    return c


class TestCubicRoots:
    def test_random_cubics(self, rng):
        for _ in range(500):
            coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1) * rng.choice([0, 1]))
                      for _ in range(4)]
            match_roots(_cubic_roots(coeffs), np_cubic_roots(coeffs), 1e-9)

    @pytest.mark.parametrize("roots, tol", [
        ([1, 1, 2], 1e-7),
        ([2j, 2j, -1], 1e-7),
        ([0.3 - 1j, 0.3 - 1j, 4], 1e-7),
        ([0, 0, 3], 1e-7),
        ([1, 1, 1], 1e-4),
        ([-2 + 1j, -2 + 1j, -2 + 1j], 1e-4),
        ([0, 0, 0], 1e-12),
    ])
    def test_multiple_roots(self, roots, tol):
        roots = [complex(r) for r in roots]
        for lead in (1, -3.5, 2j):
            coeffs = from_roots(roots, lead)
            match_roots(_cubic_roots(coeffs), np_cubic_roots(coeffs), tol)
            match_roots(_cubic_roots(coeffs), roots, tol)

    def test_vanishing_lead_gives_the_quadratic(self, rng):
        # the pencil strips a leading coefficient below 1e-13: numpy.roots
        # strips exact leading zeros the same way
        for _ in range(200):
            quad = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)]
            match_roots(_cubic_roots(quad), np_cubic_roots([0] + quad), 1e-9)
        for roots in ([1, 1], [2j, -2j], [0, 0]):
            coeffs = from_roots([complex(r) for r in roots], 5)
            match_roots(_cubic_roots(coeffs), np_cubic_roots([0] + coeffs), 1e-7)
        assert _cubic_roots([2, -3]) == [1.5]
        assert _cubic_roots([7]) == []


def same_points(got, want, tol=1e-9):
    rest = list(want)
    for p in got:
        q = min(rest, key=lambda r: proj_distance(p, r))
        assert proj_distance(p, q) < tol
        rest.remove(q)


class TestPencil:
    @pytest.mark.parametrize("kind", ["plain", "real", "complex"])
    def test_intersections_match_the_numpy_pencil(self, rng, kind):
        for _ in range(40):
            a = conic_fit(on_ellipse(rng, 5))
            b = conic_fit(on_ellipse(rng, 5))
            if kind != "plain":
                m = random_map(rng) if kind == "real" else complex_map(rng)
                a, b = apply_map(m, a), apply_map(m, b)
            same_points(conic_conic_intersect(a, b), np_conic_conic_intersect(a, b))

    def test_tangent_pair(self):
        # the unit circle and a circle touching it at (1, 0): a double point
        a = Conic.unit_circle()
        b = Conic((1, 0, -0.5, 1, 0, -0.0))
        got = conic_conic_intersect(a, b)
        same_points(got, np_conic_conic_intersect(a, b), 1e-6)
        assert sum(proj_distance(p, ProjPoint(1, 0, 1)) < 1e-6 for p in got) == 2


def eigen_residual(a, b, p):
    """Scaled gap between dual(b) A p and p."""
    m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a.rows())] for row in b.dual().rows()]
    mp = [sum(x * y for x, y in zip(row, p.coords)) for row in m]
    return proj_distance(ProjPoint(mp), p)


class TestEigenvectorFrame:
    def test_distinct_eigenvalues_match_numpy(self, rng):
        for _ in range(40):
            a = conic_fit(on_ellipse(rng, 5))
            b = conic_fit(on_ellipse(rng, 5))
            got = [ProjPoint(v) for v in _eigenvector_frame(a, b)]
            same_points(got, np_eigenvector_frame(a, b), 1e-7)

    @pytest.mark.parametrize("kind", ["plain", "real", "complex"])
    def test_double_contact_frame_is_self_polar(self, rng, kind):
        # concentric circles touch twice (at the circular points): dual(B)A
        # has a double eigenvalue whose eigenvectors fill a line
        for n in (3, 5, 8):
            scene = concentric_scene(n)
            if kind != "plain":
                scene = transformed_scene(scene, random_map(rng) if kind == "real" else complex_map(rng))
            a, b = scene.outer, scene.inner
            frame = [ProjPoint(v) for v in _eigenvector_frame(a, b)]
            for i, p in enumerate(frame):
                assert eigen_residual(a, b, p) < 1e-9
                for q in frame[i + 1:]:
                    assert proj_distance(p, q) > 1e-3
                    for c in (a, b):
                        bilinear = sum(x * y for x, y in zip(p.coords, c.apply(q.coords)))
                        assert abs(bilinear) < 1e-9

    def test_doubling_projective_images_of_concentric_scenes(self, rng):
        # the fallback frame carries the doubling of double-contact scenes;
        # a scene whose pencil points come out just apart (> 1e-6) takes the
        # quadrangle frame instead, which this test does not cover
        fallbacks = 0
        for n in (3, 4, 5, 6, 7, 8):
            scene = transformed_scene(concentric_scene(n, start_angle=rng.uniform(0, 1)), random_map(rng))
            doubled, trace = doubling(scene)
            if any("eigenvectors" in note for note in trace.notes):
                fallbacks += 1
                rep = closure_test(doubled.outer, doubled.inner, doubled.vertices[0], 2 * n)
                assert rep.closes and max(rep.residual_p, rep.residual_q) < 1e-11
        assert fallbacks >= 4
