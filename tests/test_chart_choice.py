"""Chart choice against the per-variant reference algorithm.

``make_chart`` used to rank the probe-line centers afresh for every
``variant``, and ``moderate_chart`` scored variants 0-5.  The reference
below keeps that algorithm verbatim, and every chart the ranked-list
versions pick must equal it coordinate for coordinate, including draws with
fewer candidates than variants.  The reference charts are
``chart_reference.RefStereoChart``, so the transfers that score them are
the object-form ``project`` rather than the code under test.

``doubling`` takes no ranked chart: it orders the doubled polygon in the
chart centred on the scene's first vertex, so the interleaving check runs
on every real scene, small circles included.
"""

import cmath
import math
import random

import pytest

from poncelet import (
    Conic,
    ProjLine,
    ProjPoint,
    conic_through_5,
    doubling,
    line_conic_intersect,
    make_chart,
    moderate_chart,
    polygon_scene,
    proj_distance,
)
from poncelet import constructions
from poncelet.errors import ConstructionDegeneracy, DegenerateChain, GeometryError
from poncelet.projective import _dot
from poncelet.rp1 import chart_centers

from chart_reference import REF_AXES, REF_PROBES, RefStereoChart, chart_state
from conftest import ring_points


def ref_make_chart(conic, avoid=(), variant=0):
    candidates = []
    for probe in REF_PROBES:
        try:
            p1, p2, tangential = line_conic_intersect(ProjLine(*probe), conic)
        except Exception:
            continue
        if tangential:
            continue
        for cand in (p1, p2):
            clearance = min((proj_distance(cand, a) for a in avoid), default=1.0)
            if clearance < 1e-6:
                continue
            if any(proj_distance(cand, c) < 1e-9 for _, c in candidates):
                continue
            candidates.append((clearance, cand))
    ordered = sorted(candidates, key=lambda t: -t[0])
    if not ordered:
        raise DegenerateChain("no valid stereographic chart found")
    _, center = ordered[variant % len(ordered)]
    best_axis, best_gap = None, 0.0
    for coords in REF_AXES:
        axis = ProjLine(*coords)
        gap = abs(_dot(center.coords, axis.coords))
        if gap > best_gap:
            best_gap, best_axis = gap, axis
    if best_axis is None or best_gap <= 1e-6:
        raise DegenerateChain("no axis avoids the chart center")
    return RefStereoChart(conic, center, best_axis)


def ref_moderate_chart(conic, pts):
    best, best_m = None, math.inf
    for v in range(6):
        try:
            ch = ref_make_chart(conic, avoid=pts, variant=v)
            m = max(abs(ch.project(p).value()) for p in pts)
        except GeometryError:
            continue
        if m < best_m:
            best_m, best = m, ch
    if best is None:
        raise ConstructionDegeneracy("no usable chart on the carrier conic")
    return best


def outcome(fn, *args, **kwargs):
    """Chart coordinates or the exception class: what must agree."""
    try:
        ch = fn(*args, **kwargs)
    except GeometryError as exc:
        return type(exc)
    return chart_state(ch)


def conic_points_on(line, conic):
    try:
        return list(line_conic_intersect(line, conic)[:2])
    except GeometryError:
        return []


def probe_points(conic):
    return [p for probe in REF_PROBES for p in conic_points_on(ProjLine(*probe), conic)]


def conic_points(rng, conic, k):
    """k points of the conic, cut by random lines."""
    out = []
    while len(out) < k:
        line = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        out += conic_points_on(line, conic)
    return out[:k]


def draw(seed):
    """(conic, avoid) for one seed; five kinds of draw take turns."""
    rng = random.Random(seed)
    kind = (seed // 8) % 5
    if kind == 1:
        # a small real circle: most probes miss it, so real centers rank low
        a, b, r = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.05, 0.6)
        conic = Conic([1, 0, -a, 1, -b, a * a + b * b - r * r])
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(rng.randrange(1, 9))]
        return conic, [ProjPoint(a + r * math.cos(t), b + r * math.sin(t), 1) for t in angles]
    if kind == 3:
        conic = Conic([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)])
    else:
        conic = conic_through_5(ring_points(rng, 5))
    avoid = conic_points(rng, conic, rng.randrange(1, 9))
    if kind == 2:
        # avoid most probe intersections, leaving 0..7 candidates
        probes = probe_points(conic)
        rng.shuffle(probes)
        avoid += probes[: len(probes) - rng.randrange(0, 8)]
        rng.shuffle(avoid)
    elif kind == 4:
        # points 1e-7..1e-4 from probe intersections straddle the 1e-6 clearance cut
        for probe in rng.sample(REF_PROBES, 4):
            eps = 10 ** rng.uniform(-7, -4)
            line = ProjLine(*(c + eps * rng.uniform(-1, 1) for c in probe))
            avoid += conic_points_on(line, conic)
    return conic, avoid


SEEDS = range(320)


@pytest.mark.parametrize("chunk", range(8))
def test_chart_choice_matches_reference(chunk):
    for seed in SEEDS[chunk::8]:
        conic, avoid = draw(seed)
        n_centers = len(chart_centers(conic, avoid))
        assert outcome(moderate_chart, conic, avoid) == outcome(ref_moderate_chart, conic, avoid)
        for variant in {0, 5, n_centers, 3 * n_centers + 1}:
            assert outcome(make_chart, conic, avoid, variant=variant) == outcome(
                ref_make_chart, conic, avoid, variant=variant
            )


def test_draws_include_short_candidate_lists():
    sizes = [len(chart_centers(*draw(seed))) for seed in SEEDS]
    assert 0 in sizes and sum(0 < k < 6 for k in sizes) >= 30


def test_chart_choice_tamest_of_six_with_off_conic_points():
    # tracked points off the conic make every chart fail alike
    rng = random.Random(7)
    conic = conic_through_5(ring_points(rng, 5))
    pts = [ProjPoint(5, 5, 1), ProjPoint(cmath.exp(0.3j), 2, 1)]
    assert outcome(moderate_chart, conic, pts) is ConstructionDegeneracy
    assert outcome(ref_moderate_chart, conic, pts) is ConstructionDegeneracy


def small_circle_pentagon(seed):
    """A pentagon on a circle of radius 0.05-0.6 centred in [-1, 1]^2, with
    its centre and angles; None unless every angular gap is at least 0.4."""
    rng = random.Random(seed)
    a, b, r = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.05, 0.6)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(5))
    if min((angles[(i + 1) % 5] - angles[i]) % (2 * math.pi) for i in range(5)) < 0.4:
        return None
    return [ProjPoint(a + r * math.cos(t), b + r * math.sin(t), 1) for t in angles], (a, b)


def interleaves(verts, centre):
    """Each odd vertex strictly inside the arc from its neighbours, one way
    round, measured by the angle about the circle's centre."""
    a, b = centre
    angles = [
        math.atan2((p.coords[1] / p.coords[2]).real - b, (p.coords[0] / p.coords[2]).real - a)
        for p in verts
    ]
    k = len(angles)
    for sign in (1, -1):
        if all(
            0 < (sign * (angles[i + 1] - angles[i])) % (2 * math.pi)
            < (sign * (angles[(i + 2) % k] - angles[i])) % (2 * math.pi)
            for i in range(0, k, 2)
        ):
            return True
    return False


def test_doubling_checks_interleaving_on_small_circles(monkeypatch):
    calls = []
    real_check = constructions._interleaving_ok

    def counting(chart, verts):
        calls.append(verts)
        return real_check(chart, verts)

    monkeypatch.setattr(constructions, "_interleaving_ok", counting)
    draws = 0
    for seed in range(400):
        drawn = small_circle_pentagon(seed)
        if drawn is None:
            continue
        verts, centre = drawn
        draws += 1
        before = len(calls)
        doubled, _ = doubling(polygon_scene(verts, 5))
        assert len(calls) > before
        assert len(doubled.vertices) == 10 and interleaves(doubled.vertices, centre)
    assert draws == 94
