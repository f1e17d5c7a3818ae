"""Chart choice against a reference of the centre rule.

``make_chart`` cuts the conic with the lines joining the points of the
standard frame to the real part of the tracked points' centroid and ranks
the cuts by the least |p.Ac| / (|Ac| |p|), the denominator of every
tracked point's value in the chart from c.
``chart_reference.ref_ranked_centers`` states the same rule with ``join``
and ``line_conic_intersect``, so its centres and scores agree with
``make_chart``'s to rounding.  ``make_chart`` walks its centres in rank
order until one takes a chart; with every chart refused it walks them
all, and each must be the reference's candidate of the same rank, or one
whose score ties it.
The draws cover real and complex conics, small circles,
tracked points at a candidate centre, where the candidate drops out,
tracked points 1e-8..1e-4 from one, either side of the 1e-6 clearance cut,
centroids 1e-8..1e-6 from a frame point, whose cuts must still lie on the
conic, and centroids on a line through two frame points, whose cuts rank
once.

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
    conic_contains,
    conic_through_5,
    doubling,
    line_conic_intersect,
    make_chart,
    moderate_chart,
    polygon_scene,
    proj_distance,
)
from poncelet import constructions, rp1
from poncelet.errors import ConstructionDegeneracy, DegenerateInput, GeometryError

from chart_reference import ref_ranked_centers
from conftest import ring_points

TIE = 1e-7  # scores and centres of the two routes agree to this


def outcome(fn, *args):
    """The chart's centre or the exception class: what must agree."""
    try:
        ch = fn(*args)
    except GeometryError as exc:
        return type(exc)
    return repr(ch.center.coords)


def walked_centres(conic, avoid):
    """The centres ``make_chart`` tries, in order, when each refuses a chart."""
    tried = []

    def refuse(conic, centre):
        tried.append(centre)
        raise DegenerateInput("refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rp1, "StereoChart", refuse)
        assert outcome(make_chart, conic, avoid) is ConstructionDegeneracy
    return tried


def assert_choice_matches(conic, avoid):
    """Each centre walked is the reference's candidate of that rank or one
    tied with it, the walk has the reference's length, and the chart is
    built on the first."""
    ref = ref_ranked_centers(conic, avoid)
    walked = walked_centres(conic, avoid)
    assert len(walked) == len(ref)
    for rank, centre in enumerate(walked):
        score = ref[rank][0]
        assert any(abs(s - score) <= TIE and proj_distance(c, centre) <= TIE for s, c in ref), rank
    if ref:
        assert outcome(make_chart, conic, avoid) == repr(walked[0].coords)
    else:
        assert outcome(make_chart, conic, avoid) is ConstructionDegeneracy


def conic_points_on(line, conic):
    try:
        return list(line_conic_intersect(line, conic)[:2])
    except GeometryError:
        return []


def conic_points(rng, conic, k):
    """k points of the conic, cut by random lines."""
    out = []
    while len(out) < k:
        line = ProjLine(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        out += conic_points_on(line, conic)
    return out[:k]


def mirrored_draw(rng, near):
    """A circle centred on the x-axis with mirrored pairs of its points, so
    the centroid lies exactly on the axis and the frame lines through
    (1, 0, 0) and the origin both cut the circle at (a -+ r, 0).  Tracked
    points sit at one or both of those cuts, or (``near``) in a mirrored
    pair 1e-8..1e-4 from one, about the 1e-6 clearance cut."""
    a, r = rng.uniform(-1, 1), rng.uniform(0.3, 1.5)
    conic = Conic([1, 0, -a, 1, 0, a * a - r * r])
    angles = [rng.uniform(0.3, 2.8) for _ in range(rng.randrange(1, 4))]
    if near:
        angles.append(10 ** rng.uniform(-8, -4) + math.pi * rng.randrange(2))
    avoid = []
    for t in angles:
        avoid += [ProjPoint(a + r * math.cos(t), r * math.sin(t), 1),
                  ProjPoint(a + r * math.cos(t), -r * math.sin(t), 1)]
    if not near:
        avoid += [ProjPoint(a + r, 0, 1), ProjPoint(a - r, 0, 1)][rng.randrange(2):]
    return conic, avoid


def draw(seed):
    """(conic, avoid) for one seed; five kinds of draw take turns."""
    rng = random.Random(seed)
    kind = (seed // 8) % 5
    if kind == 1:
        # a small real circle: the centroid lies inside it
        a, b, r = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(0.05, 0.6)
        conic = Conic([1, 0, -a, 1, -b, a * a + b * b - r * r])
        angles = [rng.uniform(0, 2 * math.pi) for _ in range(rng.randrange(1, 9))]
        return conic, [ProjPoint(a + r * math.cos(t), b + r * math.sin(t), 1) for t in angles]
    if kind in (2, 4):
        return mirrored_draw(rng, near=kind == 4)
    if kind == 3:
        conic = Conic([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)])
    else:
        conic = conic_through_5(ring_points(rng, 5))
    return conic, conic_points(rng, conic, rng.randrange(1, 9))


SEEDS = range(320)


@pytest.mark.parametrize("chunk", range(8))
def test_chart_choice_matches_reference(chunk):
    for seed in SEEDS[chunk::8]:
        conic, avoid = draw(seed)
        assert outcome(moderate_chart, conic, avoid) == outcome(make_chart, conic, avoid)
        assert_choice_matches(conic, avoid)


def test_draws_include_short_candidate_lists():
    sizes = [len(ref_ranked_centers(*draw(seed))) for seed in SEEDS]
    assert sum(k < 8 for k in sizes) >= 30 and min(sizes) <= 4


def test_clearance_cut():
    # a mirrored pair 1e-8..1e-4 from an axis cut drops the candidate
    # there when closer than 1e-6, and only then; the frame lines through
    # (1, 0, 0) and the origin are both the axis, whose cuts rank once
    kept = dropped = 0
    for seed in range(40):
        conic, avoid = mirrored_draw(random.Random(seed), near=True)
        ranked = ref_ranked_centers(conic, avoid)
        assert min(proj_distance(c, p) for _, c in ranked for p in avoid) >= 1e-6
        assert_choice_matches(conic, avoid)
        kept += len(ranked) == 6
        dropped += len(ranked) == 5
    assert kept and dropped


def test_no_tracked_points():
    # the frame lines then run through the origin
    for seed in range(0, 40, 8):
        conic, _ = draw(seed)
        assert outcome(moderate_chart, conic, []) == outcome(make_chart, conic, [])
        assert_choice_matches(conic, [])


def test_points_at_infinity():
    # no finite tracked point leaves no centroid: the lines then run
    # through the origin, as with no tracked points
    conic = Conic([0, 0.5, 0, 0, 0, -1])  # xy = z^2
    asymptotic = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)]
    for avoid in (asymptotic[:1], asymptotic):
        assert_choice_matches(conic, avoid)
        chart = moderate_chart(conic, avoid)
        assert all(chart.lift(chart.project(p)).is_same(p) for p in avoid)


@pytest.mark.parametrize("seed", range(8))
def test_rounding_off_the_real_plane_keeps_the_chart(seed):
    # computed points of a real scene (a conic-conic cut, say) carry
    # imaginary parts of 1e-17 or so; the chart must be the one of the
    # real points, as a non-real centre would make every value complex
    rng = random.Random(seed)
    pts = ring_points(rng, 5)
    conic = conic_through_5(pts)
    noisy = [ProjPoint(*(c + 1e-17j * rng.uniform(-1, 1) for c in p.coords)) for p in pts]
    assert make_chart(conic, noisy).center.coords == make_chart(conic, pts).center.coords


def test_off_conic_points_have_no_chart():
    # tracked points off the conic make moderate_chart fail before ranking
    rng = random.Random(7)
    conic = conic_through_5(ring_points(rng, 5))
    pts = [ProjPoint(5, 5, 1), ProjPoint(cmath.exp(0.3j), 2, 1)]
    assert outcome(moderate_chart, conic, pts) is ConstructionDegeneracy


@pytest.mark.parametrize("entries", [
    (1, 0, 0, -1, 0, 0),        # x^2 = y^2: two lines
    (1, 0, 0, 0, 0, 0),         # x^2 = 0: a doubled line
    (0, 1, 0, 0, 0, 0),         # xy = 0
    (1, 1j, 0, -1, 0, 0),       # (x + iy)^2 = 0
])
def test_degenerate_conics_have_no_chart(entries):
    conic = Conic(entries)
    on = [ProjPoint(0, 0, 1), ProjPoint(1, -1, 2)]
    assert outcome(make_chart, conic, on) is ConstructionDegeneracy
    assert outcome(moderate_chart, conic, []) is ConstructionDegeneracy


@pytest.mark.parametrize("seed", range(12))
def test_centroid_near_the_conic(seed):
    # a mirrored pair at angles -+t has its centroid r (1 - cos t) inside
    # the circle, 1e-10..1e-4 here: every frame line then cuts the circle
    # near the centroid, so candidates of different lines nearly coincide
    rng = random.Random(seed)
    a, r = rng.uniform(-1, 1), rng.uniform(0.3, 1.5)
    conic = Conic([1, 0, -a, 1, 0, a * a - r * r])
    t = math.sqrt(2 * 10 ** rng.uniform(-10, -4) / r)
    avoid = [ProjPoint(a + r * math.cos(t), sign * r * math.sin(t), 1) for sign in (1, -1)]
    assert_choice_matches(conic, avoid)


@pytest.mark.parametrize("seed", range(12))
def test_centroid_near_a_frame_point(seed):
    # four points a quarter turn apart on a circle centred 1e-8..1e-6 from
    # the origin or from (1, 1) have their centroid at the centre, so the
    # centroid nearly coincides with the frame point (0, 0, 1) or (1, 1, 1);
    # each line is cut through its own base points, so every candidate
    # still lies on the conic to rounding
    rng = random.Random(seed)
    eps, phi = 10 ** rng.uniform(-8, -6), rng.uniform(0, 2 * math.pi)
    base = seed % 2
    a, b, r = base + eps * math.cos(phi), base + eps * math.sin(phi), rng.uniform(0.3, 1.5)
    conic = Conic([1, 0, -a, 1, -b, a * a + b * b - r * r])
    t0 = rng.uniform(0, math.pi)
    avoid = [ProjPoint(a + r * math.cos(t0 + k * math.pi / 2), b + r * math.sin(t0 + k * math.pi / 2), 1)
             for k in range(4)]
    for centre in walked_centres(conic, avoid):
        assert conic_contains(conic, centre) < 1e-13
    assert_choice_matches(conic, avoid)


def test_repeated_cuts_are_walked_once():
    # a centroid on x = y puts (0, 0, 1) and (1, 1, 1) on one line, whose
    # cuts are ranked once
    conic = Conic.unit_circle()
    avoid = [ProjPoint(math.cos(t), math.sin(t), 1) for t in (0.2, math.pi / 2 - 0.2)]
    centres = walked_centres(conic, avoid)
    assert len(centres) == 6
    assert all(proj_distance(p, q) > 1e-9 for i, p in enumerate(centres) for q in centres[:i])


# Pythagorean points of the unit circle and the circle's isotropic points:
# small exact coordinates make scores tie exactly
PYTHAGOREAN = [(3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (1, 0, 1), (0, 1, 1)]
EXACT_POINTS = [
    ProjPoint(sx * a, sy * b, c)
    for a, b, c in PYTHAGOREAN for sx in (1, -1) for sy in (1, -1)
] + [ProjPoint(1, 1j, 0), ProjPoint(1, -1j, 0)]


@pytest.mark.parametrize("conic", [Conic.unit_circle(), Conic((1, 0, 0, 1, 0, -1j)), Conic((2, 0, 0, 2, 0, -2))],
                         ids=["unit", "complex-radius", "scaled"])
def test_exact_coordinates(conic):
    on = [p for p in EXACT_POINTS if conic.qform(p.coords) == 0]
    for k in range(0, len(on), 5):
        assert_choice_matches(conic, on[k:k + 5])


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
