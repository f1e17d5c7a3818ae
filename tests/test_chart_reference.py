"""Bit identity of the chart layer against its object form.

``chart_reference`` keeps ``conic_contains``, ``StereoChart``,
``chart_centers`` and the ``moderate_chart`` scoring loop as they were
before the transfer became straight-line arithmetic.  Every result must
have the same ``repr`` (signed zeros count: they reach the documents) and
every failure the same exception class, on the chart-choice draws and on
the edge cases around them: a tracked point at a chart center, points
1e-13 from one, off-conic points among on-conic ones, degenerate conics
and exactly representable coordinates, whose ties decide the leading
entries.
"""

import random

import pytest

from poncelet import (
    Conic,
    ProjLine,
    ProjPoint,
    StereoChart,
    conic_contains,
    conic_through_5,
    meet,
    moderate_chart,
)
from poncelet.errors import ConstructionDegeneracy, GeometryError
from poncelet.rp1 import chart_centers

from chart_reference import (
    REF_PROBES,
    RefStereoChart,
    outcome,
    ref_chart_centers,
    ref_conic_contains,
    ref_moderate_chart,
)
from conftest import ring_points
from test_chart_choice import SEEDS, conic_points, draw


def nudged(p, eps, rng):
    """p moved by about eps in a random complex direction."""
    return ProjPoint(tuple(z + eps * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for z in p.coords))


def assert_charts_match(conic, centers, points, axes=(None,)):
    """Charts on every center and axis, and every point transferred by each."""
    for center in centers:
        for axis in axes:
            args = (conic, center) if axis is None else (conic, center, axis)
            assert outcome(StereoChart, *args) == outcome(RefStereoChart, *args)
            try:
                ch, ref = StereoChart(*args), RefStereoChart(*args)
            except Exception:
                continue
            for p in points:
                assert outcome(ch.project, p) == outcome(ref.project, p), (center, axis, p)
                if ref_conic_contains(conic, p) <= 1e-6:
                    # moderate_chart scores with the kernel directly
                    assert outcome(ch._transfer, p.coords) == repr(ref.project(p).coords)


@pytest.mark.parametrize("chunk", range(8))
def test_draws_match_reference(chunk):
    for seed in SEEDS[chunk::8]:
        rng = random.Random(seed)
        conic, avoid = draw(seed)
        centers = ref_chart_centers(conic, avoid)
        assert outcome(chart_centers, conic, avoid) == outcome(ref_chart_centers, conic, avoid)
        assert outcome(moderate_chart, conic, avoid) == outcome(ref_moderate_chart, conic, avoid)
        # the centers themselves go to infinity on their own chart; points
        # 1e-13 from a center do too, 1e-10 away they do not
        near = [nudged(c, eps, rng) for c in centers[:3] for eps in (1e-13, 1e-10)]
        points = avoid + centers + near
        for p in points:
            assert repr(conic_contains(conic, p)) == repr(ref_conic_contains(conic, p))
        assert_charts_match(conic, centers, points)


def test_center_and_near_center_points_go_to_infinity():
    conic, avoid = draw(3)
    center = chart_centers(conic, avoid)[0]
    ch, ref = StereoChart(conic, center), RefStereoChart(conic, center)
    rng = random.Random(0)
    for p in (center, nudged(center, 1e-13, rng)):
        assert ch.project(p).coords == (1, 0)
        assert repr(ch.project(p).coords) == repr(ref.project(p).coords)
    assert ch.project(nudged(center, 1e-10, rng)).coords != (1, 0)


@pytest.mark.parametrize("seed", range(0, 40, 3))
def test_off_conic_point_among_tracked_points(seed):
    # moderate_chart checks each tracked point once before scoring any chart
    conic, avoid = draw(seed)
    rng = random.Random(seed)
    for pos in sorted({0, len(avoid) // 2, len(avoid)}):
        for off in (ProjPoint(5, 5, 1), nudged(avoid[0], 1e-3, rng)):
            pts = avoid[:pos] + [off] + avoid[pos:]
            assert outcome(moderate_chart, conic, pts) is ConstructionDegeneracy
            assert outcome(ref_moderate_chart, conic, pts) is ConstructionDegeneracy


def test_no_tracked_points():
    conic, _ = draw(0)
    assert outcome(moderate_chart, conic, []) == outcome(ref_moderate_chart, conic, [])


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
    assert outcome(chart_centers, conic, on) == outcome(ref_chart_centers, conic, on) == "[]"
    assert outcome(moderate_chart, conic, on) == outcome(ref_moderate_chart, conic, on)
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
    for k in range(0, len(on), 5):
        pts = on[k:k + 5]
        assert outcome(chart_centers, conic, pts) == outcome(ref_chart_centers, conic, pts)
        assert outcome(moderate_chart, conic, pts) == outcome(ref_moderate_chart, conic, pts)


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
    center = chart_centers(conic, avoid)[0]
    ch, ref = StereoChart(conic, center), RefStereoChart(conic, center)
    rng = random.Random(5)
    points = [nudged(center, 10 ** rng.uniform(-12.5, -11.5), rng) for _ in range(3000)]
    at_infinity = 0
    for p in points:
        got = outcome(ch.project, p)
        assert got == outcome(ref.project, p)
        at_infinity += got == repr((1 + 0j, 0j))
    assert 0 < at_infinity < len(points)


@pytest.mark.parametrize("seed", range(12))
def test_probe_crossings_near_the_conic(seed):
    # a conic passing 1e-10..1e-7 from where two probes cross gives two
    # candidates about that far apart, either side of the repeat cut
    rng = random.Random(seed)
    i, j = rng.sample(range(len(REF_PROBES)), 2)
    cross = meet(ProjLine(*REF_PROBES[i]), ProjLine(*REF_PROBES[j]))
    for _ in range(8):
        near = nudged(cross, 10 ** rng.uniform(-10, -7), rng)
        try:
            conic = conic_through_5([near] + ring_points(rng, 4))
        except GeometryError:
            continue
        pts = conic_points(rng, conic, rng.randrange(1, 6))
        assert outcome(chart_centers, conic, pts) == outcome(ref_chart_centers, conic, pts)
        assert outcome(moderate_chart, conic, pts) == outcome(ref_moderate_chart, conic, pts)
