"""The chart layer in its object form, kept as the reference.

``ref_conic_contains`` is ``conic_contains`` in the same floating-point
operations, so tests compare the two by ``repr``.  ``RefStereoChart`` is
the older chart, a projection from the centre onto a fixed axis line
through ``join``, ``meet`` and ``RP1Point``: another chart of the pencil
of lines at the centre, with the centre at infinity, so its values and
``StereoChart``'s differ by an affine map of the line, and tests compare
affine ratios and exception classes.

``ref_ranked_centers`` states the chart-centre rule of ``make_chart`` in
the same object form: the lines joining the points of the standard frame
to the real part of the tracked points' centroid cut the conic in the
candidates, which rank by the least |p.Ac| / (|Ac| |p|).  It cuts each
line through its own base points, so its centres and scores agree with
``make_chart``'s to rounding, not to the bit.
"""

from poncelet import ProjLine, ProjPoint, RP1Point, join, line_conic_intersect, meet, proj_distance
from poncelet.errors import (
    DegenerateChain,
    DegenerateInput,
    GeometryError,
    PointNotOnConic,
)
from poncelet.projective import _cross, _dot, _normalize3

REF_FRAME = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
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


def ref_centroid(points):
    """The real part of the affine points weighted by |z|^2, summed; the
    origin when no point is finite."""
    x = y = w = 0.0
    for p in points:
        px, py, pz = p.coords
        weight = abs(pz) ** 2
        if weight:
            x, y, w = x + weight * px / pz, y + weight * py / pz, w + weight
    return ProjPoint(complex(x).real, complex(y).real, w) if w else ProjPoint(0, 0, 1)


def ref_ranked_centers(conic, avoid=()):
    """[(score, centre)] best first, each centre a cut of the conic with a
    line from the centroid to a frame point, 1e-6 or more from every
    tracked point and 1e-9 or more from every centre before it."""
    g = ref_centroid(avoid)
    if conic.degenerate:
        return []
    ranked = []
    for frame_point in REF_FRAME:
        try:
            p1, p2, tangential = line_conic_intersect(join(g, ProjPoint(frame_point)), conic)
        except GeometryError:
            continue
        if tangential:
            continue
        for c in (p1, p2):
            if any(proj_distance(c, a) < 1e-6 for a in avoid):
                continue
            if any(proj_distance(c, r) < 1e-9 for _, r in ranked):
                continue
            tangent = conic.apply(c.coords)
            size = max(abs(z) for z in tangent)
            score = min(
                (abs(_dot(a.coords, tangent)) / (size * max(abs(z) for z in a.coords)) for a in avoid),
                default=1.0,
            )
            ranked.append((score, c))
    return sorted(ranked, key=lambda t: -t[0])
