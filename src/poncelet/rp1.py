"""Bracket algebra on the projective line and stereographic transfer.

Points of a conic are identified with RP^1 by projecting from a point of
the conic onto a fixed axis line.  All chain/closure conditions in this
package are multihomogeneous 2x2-bracket equations evaluated on those
transferred coordinates, so their scaled residuals do not depend on the
chart; the chart only has to be fixed deterministically.

Convention for a bracket: ``[a b]`` is the determinant of the two
homogeneous coordinate pairs, so for affine points (x, 1), (y, 1) it is
x - y.

Each condition is written once, in the paper's notation, and read by one
evaluator: ``"36 24 56 35 12 14 = 13 45 26 15 46 23"`` on points labelled
``"123456"`` is [36][24][56][35][12][14] = [13][45][26][15][46][23].  A factor
may be squared (``27^2``), monomials add with `` + ``, and a comma separates
the two coefficients of a next-point formula.
"""

from __future__ import annotations

import cmath
import math
from functools import cache
from typing import NamedTuple, Sequence

from .errors import (
    CoincidentElements,
    DegenerateChain,
    DegenerateCrossRatio,
    DegenerateInput,
    NonFiniteElement,
    PointNotOnConic,
)
from .projective import (
    Conic,
    ProjLine,
    ProjPoint,
    Vec3,
    _cross,
    _dot,
    _finite,
    _line_base_points,
    _minor_gap,
    _normalize3,
    _conic_cut,
    conic_contains,
    meet,
    second_intersection,
)
from .settings import DEFAULT

Vec2 = tuple[complex, complex]


class RP1Point:
    """Point of the projective line, homogeneous pair normalized to max |.| = 1."""

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) == 1 and not isinstance(coords[0], (int, float, complex)):
            coords = tuple(coords[0])
        c = tuple(complex(z) for z in coords)
        if len(c) != 2:
            raise ValueError("RP1Point expects 2 homogeneous coordinates")
        if not all(_finite(z) for z in c):
            raise NonFiniteElement(f"non-finite coordinates {c}")
        top = c[0] if abs(c[0]) >= abs(c[1]) else c[1]
        if top == 0:
            raise NonFiniteElement("zero vector is not a point of RP1")
        object.__setattr__(self, "coords", (c[0] / top, c[1] / top))

    def __setattr__(self, *a):
        raise AttributeError("RP1Point is immutable")

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    @classmethod
    def _of_normalized(cls, coords: Vec2) -> "RP1Point":
        """Wrap a pair normalized already; a second division by the lead moves complex bits."""
        pt = object.__new__(cls)
        object.__setattr__(pt, "coords", coords)
        return pt

    @classmethod
    def affine(cls, x) -> "RP1Point":
        return cls(x, 1)

    @classmethod
    def infinity(cls) -> "RP1Point":
        return cls(1, 0)

    def value(self) -> complex:
        """Affine value a/b; infinity maps to complex inf."""
        a, b = self.coords
        if b == 0:
            return complex(math.inf, 0)
        return a / b

    def is_same(self, other: "RP1Point", tol: float | None = None) -> bool:
        tol = DEFAULT.rel if tol is None else tol
        return rp1_distance(self, other) < tol

    def __repr__(self):
        a, b = self.coords
        return f"RP1Point({a:.6g}, {b:.6g})"


def rp1_distance(a: RP1Point, b: RP1Point) -> float:
    """Scale-invariant gap |det| between two normalized RP1 points."""
    return abs(a.coords[0] * b.coords[1] - a.coords[1] * b.coords[0])


def bracket(a: RP1Point, b: RP1Point) -> complex:
    """2x2 determinant [a b]; antisymmetric, equals x_a - x_b on (x, 1) points."""
    return a.coords[0] * b.coords[1] - a.coords[1] * b.coords[0]


def cross_ratio(a: RP1Point, b: RP1Point, c: RP1Point, d: RP1Point) -> complex:
    """(a, b; c, d) = [a c][b d] / ([a d][b c])."""
    ad = bracket(a, d)
    bc = bracket(b, c)
    scale = max(abs(bracket(a, c)), abs(bracket(b, d)), abs(ad), abs(bc))
    if abs(ad) <= DEFAULT.degeneracy * max(scale, 1e-30) or abs(bc) <= DEFAULT.degeneracy * max(scale, 1e-30):
        raise DegenerateCrossRatio("denominator bracket vanishes")
    return bracket(a, c) * bracket(b, d) / (ad * bc)


# ---------------------------------------------------------------------------
# residual reporting


class BracketResidual(NamedTuple):
    """Both sides of a bracket equation plus their relative gap."""

    lhs: complex
    rhs: complex
    scaled_gap: float
    proper: bool = True

    @staticmethod
    def of(lhs: complex, rhs: complex, proper: bool = True) -> "BracketResidual":
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), DEFAULT.floor)
        return BracketResidual(lhs, rhs, gap, proper)


def _pairwise_distinct(points: Sequence[RP1Point]) -> bool:
    return not any(rp1_distance(a, b) < DEFAULT.rel for i, a in enumerate(points) for b in points[i + 1:])


# ---------------------------------------------------------------------------
# stereographic transfer


# probe lines whose intersections with a conic are the candidate chart centers
CHART_PROBES = (
    ProjLine(1.0, 0.37, -0.22),
    ProjLine(0.53, 1.0, 0.31),
    ProjLine(1.0, -0.81, 0.47),
    ProjLine(-0.29, 1.0, 0.83),
    ProjLine(1.0, 1.13, -0.71),
    ProjLine(0.91, -0.44, 1.0),
    ProjLine(1.0, 0.08, 0.64),
    ProjLine(-0.67, 0.25, 1.0),
)
# their base points, the part of line_conic_intersect that needs no conic
_PROBE_SPANS = tuple(_line_base_points(probe.coords) for probe in CHART_PROBES)
# fixed axis lines; a chart projects onto the one farthest from its center
CHART_AXES = (
    ProjLine(0.61, -1.0, 0.34),
    ProjLine(1.0, 0.52, 0.18),
    ProjLine(-0.23, 0.77, 1.0),
    ProjLine(1.0, -0.35, -0.93),
)


def _axis_cuts(axis: Vec3) -> list[Vec3]:
    """The axis cut by the coordinate lines and by x + y + z = 0, normalized."""
    cuts = (_cross(axis, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    return [_normalize3(c) for c in cuts if max(abs(z) for z in c) >= DEFAULT.degeneracy]


# each fixed axis with its cuts
_CHART_AXIS_CUTS = tuple((axis, _axis_cuts(axis.coords)) for axis in CHART_AXES)
_INFINITY = RP1Point.infinity().coords


class StereoChart:
    """Identification of the points of a conic with RP^1.

    Projects from ``center`` (a point of the conic) onto ``axis`` (a line
    not through the center; by default the ``CHART_AXES`` line farthest
    from the center).  The center itself corresponds to (1, 0), the point
    at infinity of the chart; the frame on the axis is anchored at the
    intersection of the axis with the tangent at the center, which is
    exactly the image of the center under the limiting projection.
    """

    __slots__ = ("conic", "center", "axis", "_u", "_v", "_rows")

    def __init__(self, conic: Conic, center: ProjPoint, axis: ProjLine | None = None):
        cc = center.coords
        if axis is None:
            # the first axis of largest |center . axis|
            gap = -1.0
            for a, a_cuts in _CHART_AXIS_CUTS:
                g = abs(_dot(cc, a.coords))
                if g > gap:
                    axis, cuts, gap = a, a_cuts, g
            if gap <= 1e-6:
                raise DegenerateChain("no axis avoids the chart center")
        else:
            cuts = _axis_cuts(axis.coords)
            gap = abs(_dot(cc, axis.coords))
        if conic_contains(conic, center) > 1e-7:
            raise PointNotOnConic("chart center must lie on the conic")
        if gap < DEFAULT.degeneracy:
            raise ValueError("chart axis must not pass through the center")
        if conic.degenerate:
            raise DegenerateInput("tangent_line_at requires a non-degenerate conic")
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axis", axis)
        # the tangent at the center (tangent_line_at, whose on-conic check
        # would repeat the one above) met with the axis
        u = meet(ProjLine(conic.apply(cc)), axis).coords
        # second frame point: axis cut by the best coordinate line avoiding u
        v = max(cuts, key=lambda c: _minor_gap(u, c))
        # the best-conditioned pair of rows for solving q = alpha*u + beta*v:
        # the first of (0, 1), (0, 2), (1, 2) with the largest |minor|
        u0, u1, u2 = u
        v0, v1, v2 = v
        rows = (0, 1, u0 * v1 - u1 * v0)
        for other in ((0, 2, u0 * v2 - u2 * v0), (1, 2, u1 * v2 - u2 * v1)):
            if abs(other[2]) > abs(rows[2]):
                rows = other
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("StereoChart is immutable")

    def _transfer(self, p: Vec3) -> Vec2:
        """Normalized RP1 pair of the conic point with coordinates ``p``.

        meet(join(center, p), axis) written as alpha*u + beta*v, in the
        floating-point operations of the join, meet and RP1Point steps it
        replaces, without building any of those elements.
        """
        c0, c1, c2 = self.center.coords
        p0, p1, p2 = p
        # join(center, p); its largest |entry| is proj_distance(p, center)
        r0 = c1 * p2 - c2 * p1
        r1 = c2 * p0 - c0 * p2
        r2 = c0 * p1 - c1 * p0
        a0, a1, a2 = abs(r0), abs(r1), abs(r2)
        top, big = (r1, a1) if a1 > a0 else (r0, a0)
        if a2 > big:
            top, big = r2, a2
        if big < DEFAULT.degeneracy:
            return _INFINITY
        l0, l1, l2 = r0 / top, r1 / top, r2 / top
        # meet with the axis
        x0, x1, x2 = self.axis.coords
        m0 = l1 * x2 - l2 * x1
        m1 = l2 * x0 - l0 * x2
        m2 = l0 * x1 - l1 * x0
        a0, a1, a2 = abs(m0), abs(m1), abs(m2)
        top, big = (m1, a1) if a1 > a0 else (m0, a0)
        if a2 > big:
            top, big = m2, a2
        if big < DEFAULT.degeneracy:
            raise CoincidentElements("the ray from the chart center runs along the axis")
        q = (m0 / top, m1 / top, m2 / top)
        # q = alpha*u + beta*v on the best-conditioned rows
        u, v = self._u, self._v
        i, j, det = self._rows
        alpha = (q[i] * v[j] - q[j] * v[i]) / det
        beta = (u[i] * q[j] - u[j] * q[i]) / det
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise NonFiniteElement(f"non-finite coordinates {(alpha, beta)}")
        top = alpha if abs(alpha) >= abs(beta) else beta
        if top == 0:
            raise NonFiniteElement("zero vector is not a point of RP1")
        return alpha / top, beta / top

    def project(self, p: ProjPoint) -> RP1Point:
        """Transfer a conic point to the line: meet(join(center, p), axis)."""
        if conic_contains(self.conic, p) > DEFAULT.on_conic:
            raise PointNotOnConic(f"{p} is not on the chart conic")
        return RP1Point._of_normalized(self._transfer(p.coords))

    def lift(self, x: RP1Point) -> ProjPoint:
        """Inverse transfer: second intersection of the ray with the conic."""
        alpha, beta = x.coords
        u, v = self._u, self._v
        q = tuple(alpha * ui + beta * vi for ui, vi in zip(u, v))
        return second_intersection(self.conic, self.center, ProjPoint(q))


def chart_centers(conic: Conic, avoid: Sequence[ProjPoint] = ()) -> list[ProjPoint]:
    """Candidate chart centers on a conic, best first.

    The ``CHART_PROBES`` intersections, minus those within 1e-6 of a point
    in ``avoid`` and repeats within ``DEFAULT.rel``, sorted stably by
    descending clearance from ``avoid``: distant centers keep transferred
    values tame.  Gaps are ``proj_distance``, written out.
    """
    if conic.degenerate:
        return []  # line_conic_intersect rejects every probe
    others = [a.coords for a in avoid]
    candidates: list[tuple[float, Vec3]] = []
    for u, v in _PROBE_SPANS:
        try:
            p1, p2, tangential = _conic_cut(u, v, conic.entries)
        except Exception:
            continue
        if tangential:
            continue
        for cand in (p1, p2):
            x0, x1, x2 = cand
            clearance = min(
                [
                    max(abs(x1 * y2 - x2 * y1), abs(x2 * y0 - x0 * y2), abs(x0 * y1 - x1 * y0))
                    for y0, y1, y2 in others
                ],
                default=1.0,
            )
            if clearance < 1e-6:
                continue
            for _, center in candidates:
                y0, y1, y2 = center
                gap = max(abs(x1 * y2 - x2 * y1), abs(x2 * y0 - x0 * y2), abs(x0 * y1 - x1 * y0))
                if gap < DEFAULT.rel:
                    break
            else:
                candidates.append((clearance, cand))
    candidates.sort(key=lambda t: -t[0])
    return [ProjPoint._of_normalized(center) for _, center in candidates]


def make_chart(conic: Conic, avoid: Sequence[ProjPoint] = (), variant: int = 0) -> StereoChart:
    """Chart centered at ``chart_centers(conic, avoid)[variant]``.

    ``variant`` wraps past the end of the list; distinct variants give
    distinct charts for invariance tests.
    """
    centers = chart_centers(conic, avoid)
    if not centers:
        raise DegenerateChain("no valid stereographic chart found")
    return StereoChart(conic, centers[variant % len(centers)])


# ---------------------------------------------------------------------------
# bracket equations in the paper's notation


@cache
def _parse(text: str, labels: str) -> tuple:
    """Each side of ``text`` as a tuple of monomials of (i, j, squared) factors."""
    return tuple(
        tuple(tuple((labels.index(f[0]), labels.index(f[1]), f.endswith("^2")) for f in term.split())
              for term in side.split(" + "))
        for side in text.replace(", ", " = ").split(" = ")
    )


def _sides(text: str, labels: str, points: Sequence[RP1Point]) -> list[complex]:
    """The value of each side of ``text`` at ``points``, named by ``labels``.

    Factors multiply and monomials add left to right, a square as ``b ** 2``,
    so the floats are those of the product written out by hand.
    """
    if len(points) != len(labels):
        raise ValueError(f"expected points {','.join(labels)}, got {len(points)} points")
    coords = [p.coords for p in points]
    values = []
    for side in _parse(text, labels):
        total = None
        for term in side:
            value = None
            for i, j, squared in term:
                (a0, a1), (b0, b1) = coords[i], coords[j]  # the bracket [ij]
                b = (a0 * b1 - a1 * b0) ** 2 if squared else a0 * b1 - a1 * b0
                value = b if value is None else value * b  # 1 * b could flip a zero's sign
            total = value if total is None else total + value
        values.append(total)
    return values


def _bracket_condition(equation: str, labels: str, points: Sequence[RP1Point]) -> BracketResidual:
    """``equation`` at ``points``; coincident points are reported in ``proper``."""
    lhs, rhs = _sides(equation, labels, points)
    return BracketResidual.of(lhs, rhs, proper=_pairwise_distinct(points))


def quadset_residual(
    pair14: tuple[RP1Point, RP1Point],
    pair25: tuple[RP1Point, RP1Point],
    pair36: tuple[RP1Point, RP1Point],
) -> BracketResidual:
    """Quadrilateral-set relation on the pairs (1,4: 2,5: 3,6)."""
    return _bracket_condition("15 26 34 = 16 24 35", "142536", (*pair14, *pair25, *pair36))


def chain7_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Seven-point chain condition; vanishes iff the seven points are consecutive
    points of a proper chain of tangents.  Non-properness is flagged, not raised."""
    return _bracket_condition("74 16 54 32 = 72 14 56 34", "1234567", points)


def chain7_forms(points: Sequence[RP1Point]) -> tuple[BracketResidual, BracketResidual, BracketResidual]:
    """The three equivalent lexicographic chain conditions; any two imply the third."""
    forms = ("14 27 34 56 = 16 23 45 47", "14 24 37 56 = 15 23 46 47", "15 27 34 46 = 16 24 37 45")
    return tuple(_bracket_condition(form, "1234567", points) for form in forms)


def next_chain_point(points: Sequence[RP1Point]) -> RP1Point:
    """Seventh chain point after six, p7 = c1 p2 - c2 p4: the chain condition is
    linear in it.  The source text displays the second sign flipped; this form
    reproduces its worked octagon iteration."""
    c1, c2 = _sides("14 34 56, 16 23 45", "123456", points)
    p2, p4 = points[1], points[3]
    if rp1_distance(p2, p4) < DEFAULT.rel:
        raise DegenerateChain("points 2 and 4 coincide; next point undefined")
    out = tuple(c1 * a - c2 * b for a, b in zip(p2.coords, p4.coords))
    if max(abs(z) for z in out) <= DEFAULT.degeneracy * max(abs(c1), abs(c2), DEFAULT.floor):
        raise DegenerateChain("coefficient brackets collapsed")
    return RP1Point(out)


def hexagon_point6(points: Sequence[RP1Point]) -> RP1Point:
    """Sixth point closing a hexagonal chain, p6 = k1 p5 - k2 p1: setting point 7
    to point 1 in the chain condition leaves an equation linear in point 6."""
    k1, k2 = _sides("14 21 34, 23 45 41", "12345", points)
    p1, p5 = points[0], points[4]
    out = tuple(k1 * a - k2 * b for a, b in zip(p5.coords, p1.coords))
    if max(abs(z) for z in out) <= DEFAULT.degeneracy * max(abs(k1), abs(k2), DEFAULT.floor):
        raise DegenerateChain("hexagon coefficients collapsed")
    return RP1Point(out)


def heptagon6_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Closure condition for six consecutive points of a proper 7-gon."""
    return _bracket_condition("36 24 56 35 12 14 = 13 45 26 15 46 23", "123456", points)


def heptagon6_cross_ratio_product(points: Sequence[RP1Point]) -> complex:
    """(1,6;4,3) * (3,4;5,2) * (5,2;6,1); equals 1 exactly on 7-gon prefixes."""
    p1, p2, p3, p4, p5, p6 = points
    return (
        cross_ratio(p1, p6, p4, p3)
        * cross_ratio(p3, p4, p5, p2)
        * cross_ratio(p5, p2, p6, p1)
    )


def heptagon_precondition_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Three-summand construction polynomial for the heptagon's sixth point.

    Expands to the same polynomial as the two-monomial closure condition;
    the positive summand stands alone on the left.
    """
    return _bracket_condition(
        "12 14 25 34 56 36 = 15 16 23^2 45 46 + 12 16 45^2 23 36", "123456", points
    )


def octagon_point7_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Octagon condition on points 1..5 and 7."""
    return _bracket_condition("12 14 27 34 35 57 = 13 17 23 25 45 47", "123457", points)


def ninegon_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Nine-gon condition on points 1,2,3,4,5,7 (three degree-9 monomials)."""
    return _bracket_condition(
        "12 14 15 27^2 34 35^2 47 = 15 17^2 23^2 24 34 45 57 + 12 14 17 24 25 35 37^2 45",
        "123457",
        points,
    )


def gp_residual(a: RP1Point, b_: RP1Point, c: RP1Point, d: RP1Point) -> float:
    """Scaled Grassmann-Pluecker residual |[ab][cd] - [ac][bd] + [ad][bc]|."""
    t1 = bracket(a, b_) * bracket(c, d)
    t2 = bracket(a, c) * bracket(b_, d)
    t3 = bracket(a, d) * bracket(b_, c)
    scale = max(abs(t1), abs(t2), abs(t3), DEFAULT.floor)
    return abs(t1 - t2 + t3) / scale


def gp_syzygy_combination(points: Sequence[RP1Point]) -> tuple[complex, complex, complex]:
    """The certified identity linking the heptagon construction and test polynomials.

    Returns (combo, precondition_difference, test_difference) where

        combo = [15][45][46][23] gp(1,2,3,6)
              + [12][23][36][45] gp(1,4,5,6)
              - [12][36][14][56] gp(2,3,4,5)

    vanishes identically (each factor is a Grassmann-Pluecker relation) and
    expands term by term to test_difference - precondition_difference; the
    two polynomial differences are therefore equal at every input.
    """
    p1, p2, p3, p4, p5, p6 = points
    b = bracket

    def gp(a, b_, c, d):
        return b(a, b_) * b(c, d) - b(a, c) * b(b_, d) + b(a, d) * b(b_, c)

    combo = (
        b(p1, p5) * b(p4, p5) * b(p4, p6) * b(p2, p3) * gp(p1, p2, p3, p6)
        + b(p1, p2) * b(p2, p3) * b(p3, p6) * b(p4, p5) * gp(p1, p4, p5, p6)
        - b(p1, p2) * b(p3, p6) * b(p1, p4) * b(p5, p6) * gp(p2, p3, p4, p5)
    )
    pre = heptagon_precondition_residual(points)
    test = heptagon6_residual(points)
    return combo, pre.lhs - pre.rhs, test.lhs - test.rhs
