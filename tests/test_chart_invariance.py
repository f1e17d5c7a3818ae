"""Bracket gaps do not depend on the chart.

In each of the paper's bracket conditions every monomial has the same
degree in each point.  A change of chart on the conic multiplies each
point's pair by its own factor and each bracket by those of its two
points, so both sides of a condition change by one common factor: lhs/rhs
is the same in every chart, and a condition that holds holds in all of
them.  The chart choice can only move rounding.  Three explicit centres,
cut from the conic by fixed lines and kept apart from the points, check
both halves: random conic points, where lhs/rhs must agree across the
charts, and constructed polygons, where the gap must stay at rounding
level in each chart.
"""

import random
from types import SimpleNamespace

import pytest

from poncelet import (
    ProjLine,
    StereoChart,
    chain7_residual,
    conic_through_5,
    heptagon6_residual,
    line_conic_intersect,
    ninegon_residual,
    octagon_point7_residual,
    proj_distance,
)
from poncelet.cli import CONSTRUCT_KINDS
from poncelet.errors import GeometryError
from poncelet.projective import min_separation

from conftest import ring_points
from test_chart_choice import conic_points

CENTRE_LINES = (ProjLine(1, 0, -0.3), ProjLine(0, 1, 0.4), ProjLine(1, 1, -0.5))
CONDITIONS = {
    "heptagon6": (heptagon6_residual, 6),
    "octagon_point7": (octagon_point7_residual, 6),
    "ninegon": (ninegon_residual, 6),
    "chain7": (chain7_residual, 7),
}


def charts(conic, points):
    """A chart from each ``CENTRE_LINES`` cut, the first of its two cuts
    that keeps 0.05 from every point; None if a line has neither."""
    out = []
    for line in CENTRE_LINES:
        cuts = [c for c in line_conic_intersect(line, conic)[:2]
                if min(proj_distance(c, p) for p in points) > 0.05]
        if not cuts:
            return None
        out.append(StereoChart(conic, cuts[0]))
    return out


@pytest.mark.parametrize("name", CONDITIONS)
def test_ratio_is_the_same_in_every_chart(name):
    residual, k = CONDITIONS[name]
    rng = random.Random(name)
    done = 0
    while done < 200:
        conic = conic_through_5(ring_points(rng, 5))
        points = conic_points(rng, conic, k)
        if min_separation(points) < 0.05:
            continue
        three = charts(conic, points)
        if three is None:
            continue
        ratios = []
        for chart in three:
            r = residual([chart.project(p) for p in points])
            ratios.append(r.lhs / r.rhs)
        for ratio in ratios[1:]:
            assert abs(ratio - ratios[0]) <= 1e-9 * abs(ratios[0]), (name, ratios)
        done += 1


@pytest.mark.parametrize("kind, picks", [
    ("7", (0, 1, 2, 3, 4, 5)),
    ("8", (0, 1, 2, 3, 4, 6)),
    ("9", (0, 1, 2, 3, 4, 6)),
])
def test_closing_polygons_close_in_every_chart(kind, picks):
    spec = CONSTRUCT_KINDS[kind]
    residual = spec.bracket[1]
    rng = random.Random(kind)
    done = worst = 0
    while done < 100:
        try:
            scene, _ = spec.build(rng, SimpleNamespace(branch=done % 2))
        except GeometryError:
            continue
        if scene is None:
            continue
        verts = list(scene.vertices)
        three = charts(scene.outer, verts)
        if three is None:
            continue
        for chart in three:
            worst = max(worst, residual([chart.project(verts[i]) for i in picks]).scaled_gap)
        done += 1
    assert worst < 1e-12
