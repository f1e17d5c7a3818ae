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
import operator
from typing import Iterable, Sequence

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
# tuple-level helpers


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
    c = tuple(map(complex, coords))
    if len(c) != 3:
        raise ValueError("expected 3 homogeneous coordinates")
    return _unit3(*c, stored)


def _unit3(x: complex, y: complex, z: complex, stored: bool = False) -> Vec3:
    """``_normalize3`` of three complex coordinates."""
    if not (cmath.isfinite(x) and cmath.isfinite(y) and cmath.isfinite(z)):
        raise NonFiniteElement(f"non-finite coordinates {(x, y, z)}")
    # the first entry of largest magnitude leads, as max() would pick it
    ax, ay, az = abs(x), abs(y), abs(z)
    if ay > ax:
        top, big = y, ay
    else:
        top, big = x, ax
    if az > big:
        top = z
    if top == 0:
        raise NonFiniteElement("zero vector is not a projective element")
    if stored and _normalized_lead(top):
        return (x, y, z)
    return (x / top, y / top, z / top)


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
    return max(
        abs(u[1] * v[2] - u[2] * v[1]),
        abs(u[2] * v[0] - u[0] * v[2]),
        abs(u[0] * v[1] - u[1] * v[0]),
    )


def _det3(rows: Sequence[Sequence[complex]]) -> complex:
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _sym_rows(e: Sequence[complex]) -> tuple[Vec3, Vec3, Vec3]:
    """Rows of the symmetric matrix packed as (a00, a01, a02, a11, a12, a22)."""
    a00, a01, a02, a11, a12, a22 = e
    return ((a00, a01, a02), (a01, a11, a12), (a02, a12, a22))


def _sym_apply(e: Sequence[complex], p: Sequence[complex]) -> Vec3:
    """Product of the packed symmetric matrix ``e`` with the vector ``p``."""
    a00, a01, a02, a11, a12, a22 = e
    return (
        a00 * p[0] + a01 * p[1] + a02 * p[2],
        a01 * p[0] + a11 * p[1] + a12 * p[2],
        a02 * p[0] + a12 * p[1] + a22 * p[2],
    )


# ---------------------------------------------------------------------------
# elements


class _HomogeneousVector:
    __slots__ = ("coords",)

    def __init__(self, *coords, stored: bool = False):
        if len(coords) == 1 and not isinstance(coords[0], (int, float, complex)):
            coords = tuple(coords[0])
        object.__setattr__(self, "coords", _normalize3(coords, stored))

    @classmethod
    def _of_normalized(cls, coords: Vec3):
        """Wrap a normalized triple; dividing by the lead again moves complex bits."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

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


class ProjPoint(_HomogeneousVector):
    """Point of the projective plane, homogeneous (x, y, z)."""


class ProjLine(_HomogeneousVector):
    """Line of the projective plane; p lies on l iff p.l = 0."""


def proj_distance(a: _HomogeneousVector, b: _HomogeneousVector) -> float:
    """Scale-invariant gap between two elements of the same kind."""
    return _minor_gap(a.coords, b.coords)


def min_separation(elements: Sequence[_HomogeneousVector]) -> float:
    """Smallest ``proj_distance`` between two of the elements (inf for fewer than two)."""
    pairs = itertools.combinations([e.coords for e in elements], 2)
    return min((_minor_gap(u, v) for u, v in pairs), default=math.inf)


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """Line through two distinct points."""
    c = _cross(p.coords, q.coords)
    if max(abs(z) for z in c) < DEFAULT.degeneracy:
        raise CoincidentElements(f"join of coincident points {p} and {q}")
    return ProjLine(c)


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """Intersection point of two distinct lines."""
    c = _cross(l.coords, m.coords)
    if max(abs(z) for z in c) < DEFAULT.degeneracy:
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
        det = _det3(_sym_rows(e))
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
        return _sym_rows(self.entries)

    def apply(self, p: Sequence[complex]) -> Vec3:
        """Matrix-vector product A p (polar line of p)."""
        return _sym_apply(self.entries, p)

    def qform(self, p: Sequence[complex]) -> complex:
        return _dot(p, _sym_apply(self.entries, p))

    def adjugate_entries(self) -> tuple[complex, ...]:
        cached = self._adjugate
        if cached is None:
            # the cofactor rows r1 x r2, r2 x r0, r0 x r1, packed
            r0, r1, r2 = _sym_rows(self.entries)
            c0, c1, c2 = _cross(r1, r2), _cross(r2, r0), _cross(r0, r1)
            cached = (*c0, c1[1], c1[2], c2[2])
            object.__setattr__(self, "_adjugate", cached)
        return cached

    def dual(self) -> "Conic":
        """Adjugate as a conic on lines; inverse up to scale when non-degenerate."""
        return Conic(self.adjugate_entries())

    def dual_qform(self, l: Sequence[complex]) -> complex:
        """l^T adj(A) l; vanishes exactly when l is tangent."""
        return _dot(l, _sym_apply(self.adjugate_entries(), l))

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
    a00, a01, a02, a11, a12, a22 = conic.entries
    p0, p1, p2 = p.coords
    val = (
        p0 * (a00 * p0 + a01 * p1 + a02 * p2)
        + p1 * (a01 * p0 + a11 * p1 + a12 * p2)
        + p2 * (a02 * p0 + a12 * p1 + a22 * p2)
    )
    # the nine |A_ij p_i p_j| summands, row by row
    scale = max(
        abs(a00 * p0 * p0), abs(a01 * p0 * p1), abs(a02 * p0 * p2),
        abs(a01 * p1 * p0), abs(a11 * p1 * p1), abs(a12 * p1 * p2),
        abs(a02 * p2 * p0), abs(a12 * p2 * p1), abs(a22 * p2 * p2),
    )
    return abs(val) / max(scale, DEFAULT.floor)


def tangency_residual(conic: Conic, lines: Iterable[ProjLine]) -> float:
    """Worst |l^T adj(A) l| over the lines, scaled by the largest |adj(A)| entry."""
    scale = max(abs(z) for z in conic.adjugate_entries())
    return max(abs(conic.dual_qform(l.coords)) for l in lines) / max(scale, DEFAULT.floor)


def tangent_line_at(conic: Conic, p: ProjPoint) -> ProjLine:
    """Tangent line A p at a point of the conic."""
    if conic.degenerate:
        raise DegenerateInput("tangent_line_at requires a non-degenerate conic")
    if conic_contains(conic, p) > 1e-7:
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
    """Conic through five points, or the QR basic solution through more.

    The conic is the null vector of the rows (x^2, 2xy, 2xz, y^2, 2yz, z^2)
    of the points: for five rows by elimination with complete pivoting (the
    signed 5 x 5 minors), for more by Householder QR with column pivoting
    (normal equations would square the condition), setting the column never
    pivoted to 1 and dropping the trailing residual block.  That matches the
    least-squares minimiser of |Av| / |v| only to second order in the
    residual over the last pivot.  A pivot below 1e-10 of the first raises
    ``NumericalRankDeficiency``: the points do not fix one conic.
    """
    if len(points) < 5:
        raise ValueError("conic_fit needs at least 5 points")
    rows = [[x * x, 2 * x * y, 2 * x * z, y * y, 2 * y * z, z * z]
            for x, y, z in (p.coords for p in points)]
    steps = _pivoted_qr(rows) if len(rows) > 5 else _pivoted_elimination(rows)
    if steps is None:
        raise NumericalRankDeficiency("points do not determine a unique conic")
    v = [0j] * 6
    v[steps[-1][3][0]] = 1  # the column never pivoted
    for c, p, row, rest in reversed(steps):
        v[c] = -sum(map(operator.mul, row, map(v.__getitem__, rest))) / p
    conic = Conic(v)
    if conic.degenerate:
        raise DegenerateInput("fitted conic is degenerate")
    return conic


def _pivoted_elimination(rows: list[list[complex]]) -> list | None:
    """Gaussian elimination with complete pivoting on five rows (consumed).

    Returns the five steps as (pivot column, pivot, the pivot row's entries
    in the columns left, those columns), as ``_pivoted_qr`` does, or None
    once a pivot falls below 1e-10 of the first.
    """
    cols = [0, 1, 2, 3, 4, 5]
    steps = []
    for width in (6, 5, 4, 3, 2):
        mags = list(map(abs, itertools.chain.from_iterable(rows)))
        big = max(mags)
        if steps and big < 1e-10 * abs(steps[0][1]):
            return None
        i, j = divmod(mags.index(big), width)
        prow = rows.pop(i)
        p = prow.pop(j)
        steps.append((cols.pop(j), p, prow, tuple(cols)))
        for r in rows:
            f = r.pop(j) / p
            r[:] = [a - f * b for a, b in zip(r, prow)]
    return steps


def _pivoted_qr(rows: list[list[complex]]) -> list | None:
    """Householder QR with column pivoting (Businger & Golub 1965), five steps,
    returned as ``_pivoted_elimination`` returns its steps."""
    cols = [list(c) for c in zip(*rows)]
    ids = [0, 1, 2, 3, 4, 5]
    steps = []
    for _ in range(5):
        norms = [math.hypot(*map(abs, c)) for c in cols]
        norm = max(norms)
        if steps and norm < 1e-10 * abs(steps[0][1]):
            return None
        i = norms.index(norm)
        x, c_id = cols.pop(i), ids.pop(i)
        x0, a0 = x[0], abs(x[0])
        # reflect x onto alpha e1, alpha of x0's phase with the opposite sign
        alpha = -norm * (x0 / a0) if a0 else -norm
        x[0] = x0 - alpha
        h = norm * (norm + a0)
        xc = [z.conjugate() for z in x]
        cols = [[a - f * b for a, b in zip(c, x)]
                for f, c in [(sum(map(operator.mul, xc, c)) / h, c) for c in cols]]
        steps.append((c_id, alpha, [c[0] for c in cols], tuple(ids)))
        cols = [c[1:] for c in cols]
    return steps


def conic_fit_lines(lines: Sequence[ProjLine]) -> Conic:
    """Least-squares conic tangent to five or more lines."""
    dual = conic_fit([ProjPoint(l.coords) for l in lines])
    return Conic(dual.adjugate_entries())


def _line_base_points(lc: Vec3) -> tuple[Vec3, Vec3]:
    """Two independent points spanning a line (or lines through a point)."""
    # l x e for the basis vectors e, as full cross products (the signs of
    # their zero entries reach the output); the first largest one wins
    u = _cross(lc, (1, 0, 0))
    big = max(abs(u[0]), abs(u[1]), abs(u[2]))
    for e in ((0, 1, 0), (0, 0, 1)):
        c = _cross(lc, e)
        size = max(abs(c[0]), abs(c[1]), abs(c[2]))
        if size > big:
            u, big = c, size
    un = _unit3(*u)
    v = _cross(lc, un)
    if not (v[0] or v[1] or v[2]):
        # isotropic l (l.l = 0) with u along l: the basis cross product
        # farthest from u (the first of equals) spans the line with it
        products = [_cross(lc, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        v = max((c for c in products if c[0] or c[1] or c[2]),
                key=lambda c: _minor_gap(un, _unit3(*c)))
    return un, _unit3(*v)


def _solve_quadratic(a: complex, b: complex, c: complex) -> tuple[tuple[complex, complex], tuple[complex, complex], bool]:
    """Roots of a t^2 + b t + c as homogeneous pairs (t : s), plus tangency flag.

    Homogeneous output handles the a ~ 0 case (one root at infinity) without
    special-casing the caller.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0:
        raise DegenerateInput("identically zero quadratic")
    disc = b * b - 4 * a * c
    tangential = (
        abs(disc) <= (DEFAULT.rel * scale) ** 2 * 4
        or abs(disc) <= DEFAULT.degeneracy * scale * scale
    )
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
    p1, p2, tangential = _conic_cut(*_line_base_points(l.coords), conic.entries)
    return ProjPoint._of_normalized(p1), ProjPoint._of_normalized(p2), tangential


def _conic_cut(u: Vec3, v: Vec3, entries: Sequence[complex]) -> tuple[Vec3, Vec3, bool]:
    """Both normalized cuts of the conic with the line spanned by u and v."""
    a00, a01, a02, a11, a12, a22 = entries
    u0, u1, u2 = u
    v0, v1, v2 = v
    # A u and A v, then v.(A v), 2 v.(A u) and u.(A u), as Conic.apply/qform and _dot
    cu0 = a00 * u0 + a01 * u1 + a02 * u2
    cu1 = a01 * u0 + a11 * u1 + a12 * u2
    cu2 = a02 * u0 + a12 * u1 + a22 * u2
    cv0 = a00 * v0 + a01 * v1 + a02 * v2
    cv1 = a01 * v0 + a11 * v1 + a12 * v2
    cv2 = a02 * v0 + a12 * v1 + a22 * v2
    a = v0 * cv0 + v1 * cv1 + v2 * cv2
    b = 2 * (v0 * cu0 + v1 * cu1 + v2 * cu2)
    c = u0 * cu0 + u1 * cu1 + u2 * cu2
    (t1, s1), (t2, s2), tangential = _solve_quadratic(a, b, c)
    p1 = _unit3(s1 * u0 + t1 * v0, s1 * u1 + t1 * v1, s1 * u2 + t1 * v2)
    p2 = _unit3(s2 * u0 + t2 * v0, s2 * u1 + t2 * v1, s2 * u2 + t2 * v2)
    return p1, p2, tangential


def _other_root(e: Sequence[complex], k: Vec3, m: Vec3) -> Vec3:
    """Root other than ``k`` of the symmetric form ``e`` on the pencil ``m``
    (points of a line, or lines through a point), normalized: with
    d = m x e_j for the first largest |k_j| and Q(k) = 0, by Vieta it is
    Q(d) k - 2 B(k, d) d.  Each case leaves out the products with d_j = 0."""
    a00, a01, a02, a11, a12, a22 = e
    (k0, k1, k2), (m0, m1, m2) = k, m
    b0, b1, b2 = abs(k0), abs(k1), abs(k2)
    if b0 >= b1 and b0 >= b2:  # d = (0, m2, -m1)
        d1, d2 = m2, -m1
        c0, c1, c2 = a01 * d1 + a02 * d2, a11 * d1 + a12 * d2, a12 * d1 + a22 * d2
        q, b = d1 * c1 + d2 * c2, 2 * (k0 * c0 + k1 * c1 + k2 * c2)
        return _unit3(q * k0, q * k1 - b * d1, q * k2 - b * d2)
    if b1 >= b2:  # d = (-m2, 0, m0)
        d0, d2 = -m2, m0
        c0, c1, c2 = a00 * d0 + a02 * d2, a01 * d0 + a12 * d2, a02 * d0 + a22 * d2
        q, b = d0 * c0 + d2 * c2, 2 * (k0 * c0 + k1 * c1 + k2 * c2)
        return _unit3(q * k0 - b * d0, q * k1, q * k2 - b * d2)
    d0, d1 = m1, -m0  # d = (m1, -m0, 0)
    c0, c1, c2 = a00 * d0 + a01 * d1, a01 * d0 + a11 * d1, a02 * d0 + a12 * d1
    q, b = d0 * c0 + d1 * c1, 2 * (k0 * c0 + k1 * c1 + k2 * c2)
    return _unit3(q * k0 - b * d0, q * k1 - b * d1, q * k2)


def tangents_from_point(
    p: ProjPoint, conic: Conic
) -> tuple[ProjLine, ProjLine, bool]:
    """Both tangent lines from a point to a conic, plus a doubled flag.

    Dual of line-conic intersection: the pencil of lines through p is cut by
    the dual conic.  When p lies on the conic the two tangents coincide.
    """
    l1, l2, doubled = _tangent_pair(p.coords, conic)
    return ProjLine._of_normalized(l1), ProjLine._of_normalized(l2), doubled


def _tangent_pair(pc: Vec3, conic: Conic) -> tuple[Vec3, Vec3, bool]:
    """``tangents_from_point`` on coordinate tuples: the dual cut."""
    if conic.degenerate:
        raise DegenerateInput("tangents_from_point requires a non-degenerate conic")
    return _conic_cut(*_line_base_points(pc), conic.adjugate_entries())


def second_intersection(conic: Conic, known: ProjPoint, other: ProjPoint) -> ProjPoint:
    """Second intersection of line (known v other) with the conic.

    ``known`` must lie on the conic; ``other`` fixes the line.  The other
    root is taken from the known one (``_other_root``, the walk's kernel),
    so it stays exact when the second point approaches the known one.
    """
    m = _cross(known.coords, other.coords)
    if not (m[0] or m[1] or m[2]):
        raise DegenerateInput("second_intersection needs two distinct points")
    return ProjPoint._of_normalized(_other_root(conic.entries, known.coords, m))


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
        full = _sym_rows([-z for z in adj])
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


def _polish_on_two_conics(p: ProjPoint, a: Conic, b: Conic) -> ProjPoint:
    """Newton-polish (three steps) a common point of two conics in a local affine chart."""
    coords = list(p.coords)
    k = max(range(3), key=lambda i: abs(coords[i]))
    idx = [i for i in range(3) if i != k]
    for _ in range(3):
        ga = a.apply(coords)
        gb = b.apply(coords)
        fa = _dot(coords, ga)
        fb = _dot(coords, gb)
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


def _cubic_roots(coeffs: Sequence[complex]) -> list[complex]:
    """Roots, with multiplicity, of a polynomial of degree at most three.

    ``coeffs`` run from the highest degree down, the first nonzero.  The
    closed forms (Cardano's with the cube root on the side that avoids
    cancellation; ``_solve_quadratic``) are polished by at most four Newton
    steps, each kept only if it shrinks |p|.
    """
    if len(coeffs) == 4:
        a, b, c = (z / coeffs[0] for z in coeffs[1:])
        q = (a * a - 3 * b) / 9
        r = (2 * a * a * a - 9 * a * b + 27 * c) / 54
        sd = cmath.sqrt(r * r - q * q * q)
        u = -((r - sd if (r.conjugate() * sd).real < 0 else r + sd) ** (1 / 3))
        w = q / u if u else 0
        d = (u - w) * (math.sqrt(3) / 2 * 1j)
        roots = [u + w - a / 3, -(u + w) / 2 - a / 3 + d, -(u + w) / 2 - a / 3 - d]
    elif len(coeffs) == 3:
        (t1, s1), (t2, s2), _ = _solve_quadratic(*coeffs)
        roots = [t1 / s1, t2 / s2]
    else:
        roots = [-coeffs[1] / coeffs[0]] if len(coeffs) == 2 else []

    def value_and_slope(t):
        f, df = coeffs[0], 0
        for c in coeffs[1:]:
            f, df = f * t + c, df * t + f
        return f, df

    polished = []
    for t in roots:
        f, df = value_and_slope(t)
        for _ in range(4):
            step = t - f / df if df else t
            f1, df1 = value_and_slope(step)
            if not abs(f1) < abs(f):
                break
            t, f, df = step, f1, df1
        polished.append(t)
    return polished


def conic_conic_intersect(a: Conic, b: Conic) -> list[ProjPoint]:
    """All four intersection points of two conics, with multiplicity.

    Finds a degenerate member of the pencil a + t b by solving the cubic
    det(a + t b) = 0 in closed form (``_cubic_roots``), splits it into two
    lines, intersects each with ``a`` and Newton-polishes the four points on
    both conics.  Tangential contacts appear as repeated points, so the
    returned list always has exactly four entries counted with multiplicity.
    """
    if a.degenerate or b.degenerate:
        raise DegenerateInput("conic_conic_intersect requires non-degenerate conics")
    if a.is_same(b):
        raise ProportionalConics("the conics are proportional")

    def det_mix(t: complex) -> complex:
        return _det3(_sym_rows(tuple(ai + t * bi for ai, bi in zip(a.entries, b.entries))))

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
    candidates = _cubic_roots(coeffs)
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
        # the adjugate's columns are the cross products of the rows
        adj = tuple(zip(_cross(r[1], r[2]), _cross(r[2], r[0]), _cross(r[0], r[1])))
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "inv_rows", adj)  # adjugate = inverse up to scale

    def __setattr__(self, *a):
        raise AttributeError("ProjMap is immutable")

    def inverse(self) -> "ProjMap":
        return ProjMap(self.inv_rows)

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
        _no_three_collinear(quad, tol=DEFAULT.degeneracy)
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
