"""Homogeneous-coordinate primitives in the complex projective plane.

Points and lines are complex 3-vectors up to scale, conics are complex
symmetric 3x3 matrices up to scale.  Everything is immutable and every
operation is a pure function, so values can be shared freely across
threads.  Vectors are normalized on construction so that the
largest-magnitude component equals 1; this keeps relative residuals
meaningful without any further bookkeeping.

Scalars are plain Python ``complex``.  Elements whose imaginary parts are
negligible after normalization report themselves as real.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoincidentElements,
    DegenerateInput,
    NonFiniteElement,
    NumericalRankDeficiency,
    PointNotOnConic,
    ProportionalConics,
)
from .settings import DEFAULT

Vec3 = tuple[complex, complex, complex]


# ---------------------------------------------------------------------------
# tuple-level helpers (hot paths avoid numpy's per-call overhead)


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _normalized_lead(top: complex) -> bool:
    """True if ``top`` leads entries that were normalized already.

    For complex z, z / z can come out as 1 + (rounding error)j, and dividing
    by that entry again would move the others.  Elements read back from a
    document (``stored=True``) therefore keep such entries as written, so
    parsing what was serialized gives back the same element.
    """
    return top.real == 1.0 and abs(top.imag) <= 1e-15


def _normalize3(coords: Iterable[complex], stored: bool = False) -> Vec3:
    c = tuple(complex(z) for z in coords)
    if len(c) != 3:
        raise ValueError("expected 3 homogeneous coordinates")
    if not all(_finite(z) for z in c):
        raise NonFiniteElement(f"non-finite coordinates {c}")
    k = max(range(3), key=lambda i: abs(c[i]))
    top = c[k]
    if top == 0:
        raise NonFiniteElement("zero vector is not a projective element")
    if stored and _normalized_lead(top):
        return c
    return (c[0] / top, c[1] / top, c[2] / top)


def _cross(u: Sequence[complex], v: Sequence[complex]) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u: Sequence[complex], v: Sequence[complex]) -> complex:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _minor_gap(u: Sequence[complex], v: Sequence[complex]) -> float:
    """Largest 2x2 minor of two normalized 3-vectors: 0 iff projectively equal."""
    return max(abs(z) for z in _cross(u, v))


def _det3(rows: Sequence[Sequence[complex]]) -> complex:
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


# ---------------------------------------------------------------------------
# elements


class _HomogeneousVector:
    __slots__ = ("coords",)

    def __init__(self, *coords, stored: bool = False):
        if len(coords) == 1 and not isinstance(coords[0], (int, float, complex)):
            coords = tuple(coords[0])
        object.__setattr__(self, "coords", _normalize3(coords, stored))

    def __setattr__(self, *a):  # immutable
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __repr__(self):
        return f"{type(self).__name__}({self.coords[0]:.6g}, {self.coords[1]:.6g}, {self.coords[2]:.6g})"

    def is_same(self, other, tol: float | None = None) -> bool:
        """Projective equality: all 2x2 minors vanish within tolerance."""
        tol = DEFAULT.rel if tol is None else tol
        return _minor_gap(self.coords, other.coords) < tol

    def is_real(self, tol: float | None = None) -> bool:
        tol = DEFAULT.rel if tol is None else tol
        return all(abs(z.imag) <= tol for z in self.coords)

    def real_coords(self) -> tuple[float, float, float]:
        return tuple(z.real for z in self.coords)


class ProjPoint(_HomogeneousVector):
    """Point of the projective plane, homogeneous (x, y, z)."""


class ProjLine(_HomogeneousVector):
    """Line of the projective plane; p lies on l iff p.l = 0."""


def proj_distance(a: _HomogeneousVector, b: _HomogeneousVector) -> float:
    """Scale-invariant gap between two elements of the same kind."""
    return _minor_gap(a.coords, b.coords)


def join(p: ProjPoint, q: ProjPoint, tol: float | None = None) -> ProjLine:
    """Line through two distinct points."""
    tol = DEFAULT.degeneracy if tol is None else tol
    c = _cross(p.coords, q.coords)
    if max(abs(z) for z in c) < max(tol, DEFAULT.degeneracy):
        raise CoincidentElements(f"join of coincident points {p} and {q}")
    return ProjLine(c)


def meet(l: ProjLine, m: ProjLine, tol: float | None = None) -> ProjPoint:
    """Intersection point of two distinct lines."""
    tol = DEFAULT.degeneracy if tol is None else tol
    c = _cross(l.coords, m.coords)
    if max(abs(z) for z in c) < max(tol, DEFAULT.degeneracy):
        raise CoincidentElements(f"meet of coincident lines {l} and {m}")
    return ProjPoint(c)


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint, tol: float | None = None) -> bool:
    tol = DEFAULT.rel if tol is None else tol
    return abs(_det3((p.coords, q.coords, r.coords))) < tol


def _no_three_collinear(points: Sequence[ProjPoint], tol: float = 1e-10) -> None:
    for i, j, k in itertools.combinations(range(len(points)), 3):
        if collinear(points[i], points[j], points[k], tol):
            raise DegenerateInput(f"points {i + 1}, {j + 1}, {k + 1} are collinear")


# ---------------------------------------------------------------------------
# conics


_SYM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class Conic:
    """Non-degenerate-by-default conic, stored as 6 entries of a symmetric matrix.

    ``entries`` packs (a00, a01, a02, a11, a12, a22), normalized so the
    largest-magnitude entry is 1.  The adjugate (proportional to the inverse
    when non-degenerate) acts as the dual conic.  Degeneracy is an explicit
    flag computed from |det| against the degeneracy tolerance, never silent.
    """

    __slots__ = ("entries", "det", "degenerate", "_adjugate")

    def __init__(self, entries: Sequence[complex], stored: bool = False):
        e = tuple(complex(z) for z in entries)
        if len(e) != 6:
            raise ValueError("Conic expects 6 packed symmetric entries")
        if not all(_finite(z) for z in e):
            raise NonFiniteElement(f"non-finite conic entries {e}")
        top = max(e, key=abs)
        if top == 0:
            raise NonFiniteElement("zero matrix is not a conic")
        if not (stored and _normalized_lead(top)):
            e = tuple(z / top for z in e)
        object.__setattr__(self, "entries", e)
        a00, a01, a02, a11, a12, a22 = e
        det = (
            a00 * (a11 * a22 - a12 * a12)
            - a01 * (a01 * a22 - a12 * a02)
            + a02 * (a01 * a12 - a11 * a02)
        )
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "degenerate", abs(det) < DEFAULT.degeneracy)
        object.__setattr__(self, "_adjugate", None)

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    @classmethod
    def from_matrix(cls, m: Sequence[Sequence[complex]]) -> "Conic":
        """Build from a full 3x3 matrix, symmetrizing exactly."""
        return cls(
            (
                m[0][0],
                (m[0][1] + m[1][0]) / 2,
                (m[0][2] + m[2][0]) / 2,
                m[1][1],
                (m[1][2] + m[2][1]) / 2,
                m[2][2],
            )
        )

    @classmethod
    def unit_circle(cls) -> "Conic":
        return cls((1, 0, 0, 1, 0, -1))

    @classmethod
    def circle(cls, radius: float) -> "Conic":
        return cls((1, 0, 0, 1, 0, -radius * radius))

    def rows(self) -> tuple[Vec3, Vec3, Vec3]:
        a00, a01, a02, a11, a12, a22 = self.entries
        return ((a00, a01, a02), (a01, a11, a12), (a02, a12, a22))

    def as_array(self) -> np.ndarray:
        return np.array(self.rows(), dtype=complex)

    def apply(self, p: Sequence[complex]) -> Vec3:
        """Matrix-vector product A p (polar line of p)."""
        r = self.rows()
        return (_dot(r[0], p), _dot(r[1], p), _dot(r[2], p))

    def qform(self, p: Sequence[complex]) -> complex:
        return _dot(p, self.apply(p))

    def adjugate_entries(self) -> tuple[complex, ...]:
        cached = self._adjugate
        if cached is None:
            a00, a01, a02, a11, a12, a22 = self.entries
            cached = (
                a11 * a22 - a12 * a12,
                a12 * a02 - a01 * a22,
                a01 * a12 - a11 * a02,
                a00 * a22 - a02 * a02,
                a01 * a02 - a00 * a12,
                a00 * a11 - a01 * a01,
            )
            object.__setattr__(self, "_adjugate", cached)
        return cached

    def dual(self) -> "Conic":
        """Adjugate as a conic on lines; inverse up to scale when non-degenerate."""
        return Conic(self.adjugate_entries())

    def dual_qform(self, l: Sequence[complex]) -> complex:
        """l^T adj(A) l; vanishes exactly when l is tangent."""
        b00, b01, b02, b11, b12, b22 = self.adjugate_entries()
        l0, l1, l2 = l
        return (
            b00 * l0 * l0
            + b11 * l1 * l1
            + b22 * l2 * l2
            + 2 * (b01 * l0 * l1 + b02 * l0 * l2 + b12 * l1 * l2)
        )

    def is_same(self, other: "Conic", tol: float | None = None) -> bool:
        tol = DEFAULT.rel if tol is None else tol
        a, b = self.entries, other.entries
        gap = max(
            abs(a[i] * b[j] - a[j] * b[i]) for i in range(6) for j in range(i + 1, 6)
        )
        return gap < tol

    def __repr__(self):
        kind = "degenerate " if self.degenerate else ""
        return f"Conic({kind}entries={tuple(f'{z:.4g}' for z in self.entries)})"


def conic_contains(conic: Conic, p: ProjPoint) -> float:
    """Scaled magnitude of p^T A p; caller compares against a tolerance.

    The scale is the largest |A_ij p_i p_j| summand, so the residual is
    invariant under rescaling of both the point and the conic.
    """
    val = conic.qform(p.coords)
    r = conic.rows()
    scale = max(
        abs(r[i][j] * p.coords[i] * p.coords[j]) for i in range(3) for j in range(3)
    )
    return abs(val) / max(scale, DEFAULT.floor)


def tangent_line_at(conic: Conic, p: ProjPoint, tol: float | None = None) -> ProjLine:
    """Tangent line A p at a point of the conic."""
    tol = DEFAULT.rel if tol is None else tol
    if conic.degenerate:
        raise DegenerateInput("tangent_line_at requires a non-degenerate conic")
    if conic_contains(conic, p) > max(tol, 1e-7):
        raise PointNotOnConic(f"{p} is not on {conic}")
    return ProjLine(conic.apply(p.coords))


def conic_through_5(points: Sequence[ProjPoint]) -> Conic:
    """Unique conic through five points, no three collinear."""
    if len(points) != 5:
        raise ValueError("conic_through_5 expects exactly 5 points")
    _no_three_collinear(points)
    return conic_fit(points)


def conic_through_5_lines(lines: Sequence[ProjLine]) -> Conic:
    """Conic tangent to five lines (fit in the dual plane, then dualize back)."""
    as_points = [ProjPoint(l.coords) for l in lines]
    dual = conic_through_5(as_points)
    return Conic(dual.adjugate_entries())


def conic_fit(points: Sequence[ProjPoint]) -> Conic:
    """Least-squares conic through five or more points (SVD null vector)."""
    if len(points) < 5:
        raise ValueError("conic_fit needs at least 5 points")
    rows = []
    for p in points:
        x, y, z = p.coords
        rows.append([x * x, 2 * x * y, 2 * x * z, y * y, 2 * y * z, z * z])
    _, s, vh = np.linalg.svd(np.array(rows, dtype=complex))
    if s[4] < 1e-10 * s[0]:
        raise NumericalRankDeficiency("points do not determine a unique conic")
    conic = Conic(tuple(vh[-1]))
    if conic.degenerate:
        raise DegenerateInput("fitted conic is degenerate")
    return conic


def conic_fit_lines(lines: Sequence[ProjLine]) -> Conic:
    """Least-squares conic tangent to five or more lines."""
    dual = conic_fit([ProjPoint(l.coords) for l in lines])
    return Conic(dual.adjugate_entries())


def _line_base_points(l: ProjLine) -> tuple[Vec3, Vec3]:
    """Two independent points spanning a line."""
    candidates = [
        _cross(l.coords, e)
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    u = max(candidates, key=lambda c: max(abs(z) for z in c))
    un = _normalize3(u)
    v = _normalize3(_cross(l.coords, un))
    return un, v


def _solve_quadratic(a: complex, b: complex, c: complex) -> tuple[tuple[complex, complex], tuple[complex, complex], bool]:
    """Roots of a t^2 + b t + c as homogeneous pairs (t : s), plus tangency flag.

    Homogeneous output handles the a ~ 0 case (one root at infinity) without
    special-casing the caller.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0:
        raise DegenerateInput("identically zero quadratic")
    disc = b * b - 4 * a * c
    tangential = abs(disc) <= (1e-9 * scale) ** 2 * 4 or abs(disc) <= 1e-12 * scale * scale
    sd = cmath.sqrt(disc)
    if abs(b + sd) < abs(b - sd):
        sd = -sd
    q = -(b + sd) / 2
    # roots: t1 = q/a, t2 = c/q  (Citardauq for the small root)
    if abs(q) > DEFAULT.floor:
        return (q, a), (c, q), tangential
    # b ~ 0 and c ~ 0 (or a ~ 0 and c ~ 0): fall back to explicit cases
    if abs(a) >= abs(c):
        return (sd / 2, a), (-sd / 2, a), tangential
    return (c, -sd / 2), (c, sd / 2), tangential


def line_conic_intersect(
    l: ProjLine, conic: Conic
) -> tuple[ProjPoint, ProjPoint, bool]:
    """Both intersection points of a line with a conic, plus a tangency flag.

    Intersections always exist over the complex field.  When the line is
    tangent the two returned points coincide (a doubled point) and the flag
    is True.
    """
    if conic.degenerate:
        raise DegenerateInput("line_conic_intersect requires a non-degenerate conic")
    u, v = _line_base_points(l)
    cu = conic.apply(u)
    a = _dot(v, conic.apply(v))
    b = 2 * _dot(v, cu)
    c = _dot(u, cu)
    (t1, s1), (t2, s2), tangential = _solve_quadratic(a, b, c)
    p1 = ProjPoint(tuple(s1 * ui + t1 * vi for ui, vi in zip(u, v)))
    p2 = ProjPoint(tuple(s2 * ui + t2 * vi for ui, vi in zip(u, v)))
    return p1, p2, tangential


def tangents_from_point(
    p: ProjPoint, conic: Conic
) -> tuple[ProjLine, ProjLine, bool]:
    """Both tangent lines from a point to a conic, plus a doubled flag.

    Dual of line-conic intersection: the pencil of lines through p is cut by
    the dual conic.  When p lies on the conic the two tangents coincide.
    """
    if conic.degenerate:
        raise DegenerateInput("tangents_from_point requires a non-degenerate conic")
    candidates = [
        _cross(p.coords, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    m1 = _normalize3(max(candidates, key=lambda c: max(abs(z) for z in c)))
    m2 = _normalize3(_cross(p.coords, m1))
    b00, b01, b02, b11, b12, b22 = conic.adjugate_entries()

    def dq(x, y):
        return (
            b00 * x[0] * y[0]
            + b11 * x[1] * y[1]
            + b22 * x[2] * y[2]
            + b01 * (x[0] * y[1] + x[1] * y[0])
            + b02 * (x[0] * y[2] + x[2] * y[0])
            + b12 * (x[1] * y[2] + x[2] * y[1])
        )

    a = dq(m2, m2)
    b = 2 * dq(m1, m2)
    c = dq(m1, m1)
    (t1, s1), (t2, s2), doubled = _solve_quadratic(a, b, c)
    l1 = ProjLine(tuple(s1 * ui + t1 * vi for ui, vi in zip(m1, m2)))
    l2 = ProjLine(tuple(s2 * ui + t2 * vi for ui, vi in zip(m1, m2)))
    return l1, l2, doubled


def second_intersection(conic: Conic, known: ProjPoint, other: ProjPoint) -> ProjPoint:
    """Second intersection of line (known v other) with the conic.

    ``known`` must lie on the conic; ``other`` fixes the line.  Uses the
    deflated quadratic, so it stays exact when the second point approaches
    the known one.
    """
    z = known.coords
    q = other.coords
    qcq = conic.qform(q)
    zcq = _dot(z, conic.apply(q))
    scale = max(abs(qcq), abs(zcq))
    if scale < DEFAULT.floor:
        raise DegenerateInput("line direction annihilates the conic form")
    if abs(qcq) <= 1e-14 * scale:
        return ProjPoint(q)
    t = -2 * zcq / qcq
    return ProjPoint(tuple(zi + t * qi for zi, qi in zip(z, q)))


# ---------------------------------------------------------------------------
# conic-conic intersection via a degenerate pencil member


def _split_degenerate_conic(d: Conic) -> tuple[ProjLine, ProjLine]:
    """Split a (numerically) rank-2 symmetric matrix into its two lines.

    The adjugate of a rank-2 conic is -p p^T for the intersection point p of
    the two lines; adding the cross-product matrix of p to the conic leaves a
    rank-1 matrix g h^T whose rows/columns are the lines.  A conic of rank 1
    is itself g g^T (a doubled line).
    """
    adj = d.adjugate_entries()
    rows = d.rows()
    scale = max(abs(z) for z in d.entries)
    adj_scale = max(abs(z) for z in adj)
    if adj_scale > 1e-10 * scale * scale:
        # rank 2: recover the common point p with p p^T = -adj
        full = (
            (-adj[0], -adj[1], -adj[2]),
            (-adj[1], -adj[3], -adj[4]),
            (-adj[2], -adj[4], -adj[5]),
        )
        i = max(range(3), key=lambda k: abs(full[k][k]))
        beta = cmath.sqrt(full[i][i])
        p = tuple(full[k][i] / beta for k in range(3))
        mp = (
            (0, p[2], -p[1]),
            (-p[2], 0, p[0]),
            (p[1], -p[0], 0),
        )
        c = [[rows[r][k] + mp[r][k] for k in range(3)] for r in range(3)]
        ri, ci = max(
            ((r, k) for r in range(3) for k in range(3)),
            key=lambda rc: abs(c[rc[0]][rc[1]]),
        )
        g = ProjLine(tuple(c[ri][k] for k in range(3)))
        h = ProjLine(tuple(c[k][ci] for k in range(3)))
        return g, h
    # rank 1: doubled line, rows are all proportional to it
    i = max(range(3), key=lambda k: max(abs(z) for z in rows[k]))
    g = ProjLine(rows[i])
    return g, g


def _polish_on_two_conics(p: ProjPoint, a: Conic, b: Conic, iterations: int = 3) -> ProjPoint:
    """Newton-polish a common point of two conics in a local affine chart."""
    coords = list(p.coords)
    k = max(range(3), key=lambda i: abs(coords[i]))
    idx = [i for i in range(3) if i != k]
    for _ in range(iterations):
        fa = _dot(coords, a.apply(coords))
        fb = _dot(coords, b.apply(coords))
        ga = a.apply(coords)
        gb = b.apply(coords)
        j00, j01 = 2 * ga[idx[0]], 2 * ga[idx[1]]
        j10, j11 = 2 * gb[idx[0]], 2 * gb[idx[1]]
        det = j00 * j11 - j01 * j10
        if abs(det) < DEFAULT.floor:
            break
        dx = (fa * j11 - fb * j01) / det
        dy = (fb * j00 - fa * j10) / det
        coords[idx[0]] -= dx
        coords[idx[1]] -= dy
    return ProjPoint(coords)


def conic_conic_intersect(a: Conic, b: Conic, polish: bool = True) -> list[ProjPoint]:
    """All four intersection points of two conics, with multiplicity.

    Finds a degenerate member of the pencil a + t b by solving the cubic
    det(a + t b) = 0, splits it into two lines and intersects each with
    ``a``.  Tangential contacts appear as repeated points, so the returned
    list always has exactly four entries counted with multiplicity.
    """
    if a.degenerate or b.degenerate:
        raise DegenerateInput("conic_conic_intersect requires non-degenerate conics")
    if a.is_same(b):
        raise ProportionalConics("the conics are proportional")

    def det_mix(t: complex) -> complex:
        e = tuple(ai + t * bi for ai, bi in zip(a.entries, b.entries))
        a00, a01, a02, a11, a12, a22 = e
        return (
            a00 * (a11 * a22 - a12 * a12)
            - a01 * (a01 * a22 - a12 * a02)
            + a02 * (a01 * a12 - a11 * a02)
        )

    # cubic coefficients by interpolation at t = 0, 1, -1, 2:
    #   d1  = c0 + c1 + c2 + c3
    #   dm1 = c0 - c1 + c2 - c3
    #   d2  = c0 + 2 c1 + 4 c2 + 8 c3
    d0 = det_mix(0)
    d1 = det_mix(1)
    dm1 = det_mix(-1)
    d2 = det_mix(2)
    c0 = d0
    c2 = (d1 + dm1) / 2 - d0
    c3 = (d2 - d0 - 4 * c2 - (d1 - dm1)) / 6
    c1 = (d1 - dm1) / 2 - c3

    coeffs = [c3, c2, c1, c0]
    lead = max(abs(z) for z in coeffs)
    coeffs = [z / lead for z in coeffs]
    # strip a (numerically) zero leading coefficient; the pencil may be
    # quadratic in t if det(B)'s contribution cancels
    while len(coeffs) > 1 and abs(coeffs[0]) < 1e-13:
        coeffs = coeffs[1:]
    roots = np.roots(np.array(coeffs, dtype=complex)) if len(coeffs) > 1 else []

    candidates = list(roots)
    if not candidates:
        raise DegenerateInput("pencil has no degenerate member (unexpected)")

    best: list[ProjPoint] | None = None
    best_err = math.inf
    for t0 in candidates:
        d = Conic(tuple(ai + t0 * bi for ai, bi in zip(a.entries, b.entries)))
        try:
            g, h = _split_degenerate_conic(d)
        except (NonFiniteElement, ZeroDivisionError):
            continue
        pts: list[ProjPoint] = []
        ok = True
        for line in (g, h):
            try:
                p1, p2, _ = line_conic_intersect(line, a)
            except DegenerateInput:
                ok = False
                break
            pts.extend([p1, p2])
        if not ok:
            continue
        if polish:
            pts = [_polish_on_two_conics(p, a, b) for p in pts]
        err = max(
            max(conic_contains(a, p), conic_contains(b, p)) for p in pts
        )
        if err < best_err:
            best_err = err
            best = pts
    if best is None:
        raise DegenerateInput("failed to split any degenerate pencil member")
    return best


# ---------------------------------------------------------------------------
# projective transformations


class ProjMap:
    """Invertible projective transformation of the plane.

    Acts on points by S p, on lines by (S^-1)^T l and on conics by
    (S^-1)^T A S^-1, so incidence and tangency are preserved.
    """

    __slots__ = ("rows", "det", "inv_rows")

    def __init__(self, rows: Sequence[Sequence[complex]], stored: bool = False):
        r = tuple(tuple(complex(z) for z in row) for row in rows)
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise ValueError("ProjMap expects a 3x3 matrix")
        flat = [z for row in r for z in row]
        if not all(_finite(z) for z in flat):
            raise NonFiniteElement("non-finite map entries")
        top = max(flat, key=abs)
        if top == 0:
            raise NonFiniteElement("zero matrix")
        if not (stored and _normalized_lead(top)):
            r = tuple(tuple(z / top for z in row) for row in r)
        det = _det3(r)
        if abs(det) < DEFAULT.degeneracy:
            raise DegenerateInput("projective map must be non-singular")
        adj = (
            (
                r[1][1] * r[2][2] - r[1][2] * r[2][1],
                r[0][2] * r[2][1] - r[0][1] * r[2][2],
                r[0][1] * r[1][2] - r[0][2] * r[1][1],
            ),
            (
                r[1][2] * r[2][0] - r[1][0] * r[2][2],
                r[0][0] * r[2][2] - r[0][2] * r[2][0],
                r[0][2] * r[1][0] - r[0][0] * r[1][2],
            ),
            (
                r[1][0] * r[2][1] - r[1][1] * r[2][0],
                r[0][1] * r[2][0] - r[0][0] * r[2][1],
                r[0][0] * r[1][1] - r[0][1] * r[1][0],
            ),
        )
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "inv_rows", adj)  # adjugate = inverse up to scale

    def __setattr__(self, *a):
        raise AttributeError("ProjMap is immutable")

    @classmethod
    def identity(cls) -> "ProjMap":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def inverse(self) -> "ProjMap":
        return ProjMap(self.inv_rows)

    def compose(self, other: "ProjMap") -> "ProjMap":
        """self after other."""
        a, b = self.rows, other.rows
        return ProjMap(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                for i in range(3)
            )
        )

    def __call__(self, x):
        return apply_map(self, x)


def _mat_vec(rows, v):
    return tuple(_dot(row, v) for row in rows)


def apply_map(s: ProjMap, x):
    """Transform a point, line or conic; incidence relations are preserved."""
    if isinstance(x, ProjPoint):
        return ProjPoint(_mat_vec(s.rows, x.coords))
    if isinstance(x, ProjLine):
        inv_t = tuple(
            tuple(s.inv_rows[j][i] for j in range(3)) for i in range(3)
        )
        return ProjLine(_mat_vec(inv_t, x.coords))
    if isinstance(x, Conic):
        inv = s.inv_rows
        rows = x.rows()
        # (S^-1)^T A S^-1
        tmp = [
            [sum(rows[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        out = [
            [sum(inv[k][i] * tmp[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        return Conic.from_matrix(out)
    raise TypeError(f"cannot apply a ProjMap to {type(x).__name__}")


def proj_map_from_4(src: Sequence[ProjPoint], dst: Sequence[ProjPoint]) -> ProjMap:
    """Unique map sending four general-position points to four others."""
    if len(src) != 4 or len(dst) != 4:
        raise ValueError("proj_map_from_4 expects two quadruples")

    def frame_matrix(quad):
        _no_three_collinear(quad, tol=1e-12)
        m = tuple(zip(quad[0].coords, quad[1].coords, quad[2].coords))  # columns p1,p2,p3
        det = _det3(m)
        # solve m . lam = p4 via Cramer
        p4 = quad[3].coords
        lam = []
        for col in range(3):
            mm = [list(row) for row in m]
            for r in range(3):
                mm[r][col] = p4[r]
            lam.append(_det3(mm) / det)
        return tuple(
            tuple(m[r][c] * lam[c] for c in range(3)) for r in range(3)
        )

    ms = frame_matrix(src)
    md = frame_matrix(dst)
    inv_ms = ProjMap(ms).inv_rows
    rows = tuple(
        tuple(sum(md[i][k] * inv_ms[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )
    return ProjMap(rows)


# ---------------------------------------------------------------------------
# six points on a conic


def six_on_conic_residual(points: Sequence[ProjPoint]) -> float:
    """Scaled residual of the 3x3-bracket conconicity identity for six points.

    Near zero iff the six points lie on a common conic; identically zero
    when two of the points coincide.
    """
    if len(points) != 6:
        raise ValueError("six_on_conic_residual expects 6 points")
    c = [p.coords for p in points]

    def br(i, j, k):
        return _det3((c[i - 1], c[j - 1], c[k - 1]))

    lhs = br(1, 2, 3) * br(1, 5, 6) * br(4, 2, 6) * br(4, 5, 3)
    rhs = br(4, 5, 6) * br(4, 2, 3) * br(1, 5, 3) * br(1, 2, 6)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), DEFAULT.floor)
