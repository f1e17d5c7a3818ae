"""The chart layer in its object form, kept as the reference.

``conic_contains``, ``StereoChart`` (``__init__`` and ``project``),
``chart_centers`` and the ``moderate_chart`` scoring loop as they were
before the straight-line rewrite: every transfer goes through ``join``,
``meet`` and ``RP1Point``.  The rewrite must do the same floating-point
operations in the same order, so tests compare the two by ``repr`` and by
exception class.
"""

import math

from poncelet import ProjLine, RP1Point, join, line_conic_intersect, meet, proj_distance
from poncelet.errors import (
    ConstructionDegeneracy,
    DegenerateChain,
    DegenerateInput,
    GeometryError,
    PointNotOnConic,
)
from poncelet.projective import _cross, _dot, _normalize3

REF_PROBES = [
    (1.0, 0.37, -0.22), (0.53, 1.0, 0.31), (1.0, -0.81, 0.47), (-0.29, 1.0, 0.83),
    (1.0, 1.13, -0.71), (0.91, -0.44, 1.0), (1.0, 0.08, 0.64), (-0.67, 0.25, 1.0),
]
REF_AXES = [
    (0.61, -1.0, 0.34), (1.0, 0.52, 0.18), (-0.23, 0.77, 1.0), (1.0, -0.35, -0.93),
]


def ref_conic_contains(conic, p):
    val = conic.qform(p.coords)
    r = conic.rows()
    scale = max(
        abs(r[i][j] * p.coords[i] * p.coords[j]) for i in range(3) for j in range(3)
    )
    return abs(val) / max(scale, 1e-300)


def ref_tangent_line_at(conic, p, tol=None):
    tol = 1e-9 if tol is None else tol
    if conic.degenerate:
        raise DegenerateInput("tangent_line_at requires a non-degenerate conic")
    if ref_conic_contains(conic, p) > max(tol, 1e-7):
        raise PointNotOnConic(f"{p} is not on {conic}")
    return ProjLine(conic.apply(p.coords))


class RefStereoChart:
    def __init__(self, conic, center, axis=None):
        if axis is None:
            axes = [ProjLine(*a) for a in REF_AXES]
            axis = max(axes, key=lambda a: abs(_dot(center.coords, a.coords)))
            if abs(_dot(center.coords, axis.coords)) <= 1e-6:
                raise DegenerateChain("no axis avoids the chart center")
        if ref_conic_contains(conic, center) > 1e-7:
            raise PointNotOnConic("chart center must lie on the conic")
        if abs(_dot(center.coords, axis.coords)) < 1e-12:
            raise ValueError("chart axis must not pass through the center")
        self.conic = conic
        self.center = center
        self.axis = axis
        u = meet(ref_tangent_line_at(conic, center), axis).coords
        cuts = (_cross(axis.coords, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        v = max(
            (_normalize3(c) for c in cuts if max(abs(z) for z in c) >= 1e-12),
            key=lambda c: max(abs(z) for z in _cross(u, c)),
        )
        i, j = max(
            ((i, j) for i in range(3) for j in range(i + 1, 3)),
            key=lambda ij: abs(u[ij[0]] * v[ij[1]] - u[ij[1]] * v[ij[0]]),
        )
        self._u = u
        self._v = v
        self._rows = (i, j, u[i] * v[j] - u[j] * v[i])

    def _axis_coords(self, q):
        u, v = self._u, self._v
        i, j, det = self._rows
        alpha = (q[i] * v[j] - q[j] * v[i]) / det
        beta = (u[i] * q[j] - u[j] * q[i]) / det
        return RP1Point(alpha, beta)

    def project(self, p):
        if ref_conic_contains(self.conic, p) > 1e-6:
            raise PointNotOnConic(f"{p} is not on the chart conic")
        if proj_distance(p, self.center) < 1e-12:
            return RP1Point.infinity()
        ray = join(self.center, p)
        q = meet(ray, self.axis)
        return self._axis_coords(q.coords)


def ref_chart_centers(conic, avoid=()):
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
    candidates.sort(key=lambda t: -t[0])
    return [center for _, center in candidates]


def ref_moderate_chart(conic, pts):
    best = None
    best_m = math.inf
    for center in ref_chart_centers(conic, pts)[:6]:
        try:
            ch = RefStereoChart(conic, center)
            m = max(abs(ch.project(p).value()) for p in pts)
        except GeometryError:
            continue
        if m < best_m:
            best_m = m
            best = ch
    if best is None:
        raise ConstructionDegeneracy("no usable chart on the carrier conic")
    return best


def chart_state(ch):
    """Everything a chart carries, as a string: equal iff bit-identical."""
    return repr((ch.center.coords, ch.axis.coords, ch._u, ch._v, ch._rows))


def outcome(fn, *args, **kwargs):
    """repr of the result (``chart_state`` for charts), or the exception class."""
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)
    if hasattr(out, "_rows"):
        return chart_state(out)
    if isinstance(out, RP1Point):
        return repr(out.coords)
    if isinstance(out, list):
        return repr([getattr(x, "coords", x) for x in out])
    return repr(out)
