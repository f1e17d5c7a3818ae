"""The pencil chart against the axis chart of ``chart_reference``.

``StereoChart`` sends a conic point p to its line from the centre c, as
(L.p : T.p) with T the tangent at c.  ``chart_reference.RefStereoChart``
projects from c onto a fixed axis line.  Both send c to infinity, so their
values differ by an affine map of the line: every affine ratio
(x - x_0) / (x_1 - x_0) must agree, and the cross ratio of four
transferred points must be that of the brackets det(c, p, q), both to
1e-12.  Each failure must raise the same exception class.  The cases are
the chart-choice draws and the edge cases around them: a tracked point at
a chart centre, points 1e-13 and 1e-10 from one, off-conic points among
on-conic ones, degenerate conics and exactly representable coordinates.
``conic_contains`` must keep its ``repr`` (its ties decide leading
entries).

Both charts read the line c v p, which is fixed to about 1e-16 / |p - c|
near the centre, and a bracket of two points |p - q| apart to about
1e-16 / |p - q|; so each gap is weighed by min(1, those distances).
"""

import itertools
import random

import pytest

from poncelet import (
    Conic,
    ProjLine,
    ProjPoint,
    StereoChart,
    bracket,
    conic_contains,
    make_chart,
    moderate_chart,
    proj_distance,
)
from poncelet.errors import ConstructionDegeneracy
from poncelet.projective import _cross, _dot

from chart_reference import RefStereoChart, ref_conic_contains, ref_ranked_centers
from test_chart_choice import SEEDS, draw

GAP = 1e-12


def nudged(p, eps, rng):
    """p moved by about eps in a random complex direction."""
    return ProjPoint(tuple(z + eps * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for z in p.coords))


def failure(fn, *args):
    """The exception class ``fn`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc)
    return None


def ratio_gap(n1, d1, n2, d2):
    """Gap between the ratios n1/d1 and n2/d2 as points of RP^1."""
    return abs(n1 * d2 - n2 * d1) / (max(abs(n1), abs(d1)) * max(abs(n2), abs(d2)))


def assert_affine_ratios_agree(ch, ref, points):
    """(x - x_0) / (x_1 - x_0) in both charts, x_0 and x_1 the pair of
    points that frames the reference chart best."""
    got, want = [ch.project(p) for p in points], [ref.project(p) for p in points]
    weight = [min(1, proj_distance(p, ch.center)) for p in points]

    def frame(ij):
        (a, b), (i, j) = (want[k] for k in ij), ij
        return abs(a[1] * b[1] * bracket(b, a)) * weight[i] * weight[j]

    i, j = max(itertools.combinations(range(len(points)), 2), key=frame, default=(0, 0))
    if frame((i, j)) == 0:
        return
    for x, y, w in zip(got, want, weight):
        gap = ratio_gap(bracket(x, got[i]) * got[j][1], x[1] * bracket(got[j], got[i]),
                        bracket(y, want[i]) * want[j][1], y[1] * bracket(want[j], want[i]))
        assert gap * w <= GAP, (x, y)


def assert_det_cross_ratios(ch, points):
    """The chart's cross ratio of each four consecutive points is the one
    of the brackets det(c, p, q)."""
    c = ch.center.coords
    xs = [ch.project(p) for p in points]
    det = [[_dot(c, _cross(u.coords, v.coords)) for v in points] for u in points]
    for quad in (range(k, k + 4) for k in range(len(points) - 3)):
        a, b, q, d = quad
        w = min([1.0] + [proj_distance(points[k], ch.center) for k in quad]
                + [proj_distance(points[u], points[v]) for u, v in itertools.combinations(quad, 2)])
        n1, d1 = bracket(xs[a], xs[q]) * bracket(xs[b], xs[d]), bracket(xs[a], xs[d]) * bracket(xs[b], xs[q])
        n2, d2 = det[a][q] * det[b][d], det[a][d] * det[b][q]
        if w and max(abs(n1), abs(d1)) and max(abs(n2), abs(d2)):
            assert ratio_gap(n1, d1, n2, d2) * w <= GAP, quad


def assert_charts_match(conic, centers, points, axes=(None,)):
    """Charts on every center, against the reference on every axis, and
    every point transferred by each."""
    for center in centers:
        assert failure(StereoChart, conic, center) is failure(RefStereoChart, conic, center)
        try:
            ch = StereoChart(conic, center)
        except Exception:
            continue
        on = [p for p in points if failure(ch.project, p) is None]
        assert_det_cross_ratios(ch, on)
        for axis in axes:
            try:
                ref = RefStereoChart(conic, center, axis)
            except ValueError:
                continue  # the axis runs through the center
            for p in points:
                assert failure(ch.project, p) is failure(ref.project, p), (center, axis, p)
            assert_affine_ratios_agree(ch, ref, on)


@pytest.mark.parametrize("chunk", range(8))
def test_draws_match_reference(chunk):
    for seed in SEEDS[chunk::8]:
        rng = random.Random(seed)
        conic, avoid = draw(seed)
        centers = [c for _, c in ref_ranked_centers(conic, avoid)]
        # the centers themselves go to infinity on their own chart; points
        # 1e-13 from a center do too, 1e-10 away they do not
        near = [nudged(c, eps, rng) for c in centers[:3] for eps in (1e-13, 1e-10)]
        points = avoid + centers + near
        for p in points:
            assert repr(conic_contains(conic, p)) == repr(ref_conic_contains(conic, p))
        assert_charts_match(conic, centers, points)


def test_center_and_near_center_points_go_to_infinity():
    conic, avoid = draw(3)
    center = make_chart(conic, avoid).center
    ch, ref = StereoChart(conic, center), RefStereoChart(conic, center)
    rng = random.Random(0)
    for p in (center, nudged(center, 1e-13, rng)):
        assert ch.project(p).coords == ref.project(p).coords == (1, 0)
    assert ch.project(nudged(center, 1e-10, rng)).coords != (1, 0)


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_off_conic_point_among_tracked_points(seed):
    # moderate_chart checks each tracked point once before ranking any centre
    conic, avoid = draw(seed)
    rng = random.Random(seed)
    for pos in sorted({0, len(avoid) // 2, len(avoid)}):
        for off in (ProjPoint(5, 5, 1), nudged(avoid[0], 1e-3, rng)):
            pts = avoid[:pos] + [off] + avoid[pos:]
            assert failure(moderate_chart, conic, pts) is ConstructionDegeneracy


@pytest.mark.parametrize("entries", [
    (1, 0, 0, -1, 0, 0),        # x^2 = y^2: two lines
    (1, 0, 0, 0, 0, 0),         # x^2 = 0: a doubled line
    (0, 1, 0, 0, 0, 0),         # xy = 0
    (1, 1j, 0, -1, 0, 0),       # (x + iy)^2 = 0
])
def test_degenerate_conics(entries):
    conic = Conic(entries)
    assert conic.degenerate
    on = [ProjPoint(1, 1, 0), ProjPoint(0, 0, 1), ProjPoint(1, -1, 2), ProjPoint(0, 1, 1)]
    for p in on:
        assert repr(conic_contains(conic, p)) == repr(ref_conic_contains(conic, p))
    axes = (None, ProjLine(1, 0, 0), ProjLine(0.3, 1, 0.2))
    assert_charts_match(conic, [p for p in on if conic_contains(conic, p) <= 1e-7], on, axes)


# Pythagorean points of the unit circle and the circle's isotropic points:
# small exact coordinates make the magnitudes the lead choices compare tie
PYTHAGOREAN = [(3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (1, 0, 1), (0, 1, 1)]
EXACT_POINTS = [
    ProjPoint(sx * a, sy * b, c)
    for a, b, c in PYTHAGOREAN for sx in (1, -1) for sy in (1, -1)
] + [ProjPoint(1, 1j, 0), ProjPoint(1, -1j, 0), ProjPoint(1j, 1, 0), ProjPoint(-1, 1j, 0)]
EXACT_AXES = (
    None, ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(0, 0, 1), ProjLine(1, 1, 0),
    ProjLine(1, -1, 1), ProjLine(1, 1j, 0), ProjLine(2, 0, 1),
)


@pytest.mark.parametrize("conic", [Conic.unit_circle(), Conic((1, 0, 0, 1, 0, -1j)), Conic((2, 0, 0, 2, 0, -2))],
                         ids=["unit", "complex-radius", "scaled"])
def test_exact_coordinates(conic):
    on = [p for p in EXACT_POINTS if ref_conic_contains(conic, p) <= 1e-7]
    points = EXACT_POINTS + [ProjPoint(1, 1, 1), ProjPoint(3, 0, 5)]
    for p in points:
        assert repr(conic_contains(conic, p)) == repr(ref_conic_contains(conic, p))
    assert_charts_match(conic, on, points, EXACT_AXES)


def test_random_conic_contains():
    rng = random.Random(11)
    for _ in range(2000):
        conic = Conic([complex(rng.gauss(0, 1), rng.gauss(0, 1) * (rng.random() < 0.5)) for _ in range(6)])
        p = ProjPoint([complex(rng.gauss(0, 1), rng.gauss(0, 1) * (rng.random() < 0.5)) for _ in range(3)])
        assert repr(conic_contains(conic, p)) == repr(ref_conic_contains(conic, p))


def test_gaps_straddling_the_center_cut():
    # proj_distance to the center from 10^-12.5 to 10^-11.5: either side of
    # DEFAULT.degeneracy, where the transfer switches to infinity
    conic, avoid = draw(5)
    center = make_chart(conic, avoid).center
    ch, ref = StereoChart(conic, center), RefStereoChart(conic, center)
    rng = random.Random(5)
    points = [nudged(center, 10 ** rng.uniform(-12.5, -11.5), rng) for _ in range(3000)]
    at_infinity = 0
    for p in points:
        assert failure(ch.project, p) is failure(ref.project, p) is None
        at_infinity += ch.project(p).coords == (1, 0)
    assert 0 < at_infinity < len(points)
