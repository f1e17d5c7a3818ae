"""Bracket algebra on the projective line and stereographic transfer.

Points of a conic are identified with RP^1 by projecting from a point of
the conic onto a fixed axis line.  All chain/closure conditions in this
package are multihomogeneous 2x2-bracket equations evaluated on those
transferred coordinates, so their scaled residuals do not depend on the
chart; the chart only has to be fixed deterministically.

Convention for a bracket: ``[a b]`` is the determinant of the two
homogeneous coordinate pairs, so for affine points (x, 1), (y, 1) it is
x - y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateChain,
    DegenerateCrossRatio,
    NonFiniteElement,
    PointNotOnConic,
)
from .projective import (
    Conic,
    ProjLine,
    ProjPoint,
    _cross,
    _dot,
    _finite,
    _normalize3,
    join,
    line_conic_intersect,
    meet,
    proj_distance,
    second_intersection,
    tangent_line_at,
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


@dataclass(frozen=True)
class BracketResidual:
    """Both sides of a bracket equation plus their relative gap."""

    lhs: complex
    rhs: complex
    scaled_gap: float
    proper: bool = True

    @staticmethod
    def of(lhs: complex, rhs: complex, proper: bool = True) -> "BracketResidual":
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), DEFAULT.floor)
        return BracketResidual(lhs, rhs, gap, proper)


def _pairwise_distinct(points: Sequence[RP1Point], tol: float | None = None) -> bool:
    tol = DEFAULT.rel if tol is None else tol
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if rp1_distance(points[i], points[j]) < tol:
                return False
    return True


# ---------------------------------------------------------------------------
# stereographic transfer


class StereoChart:
    """Identification of the points of a conic with RP^1.

    Projects from ``center`` (a point of the conic) onto ``axis`` (a line
    not through the center).  The center itself corresponds to (1, 0), the
    point at infinity of the chart; the frame on the axis is anchored at
    the intersection of the axis with the tangent at the center, which is
    exactly the image of the center under the limiting projection.
    """

    __slots__ = ("conic", "center", "axis", "_u", "_v")

    def __init__(self, conic: Conic, center: ProjPoint, axis: ProjLine):
        from .projective import conic_contains

        if conic_contains(conic, center) > 1e-7:
            raise PointNotOnConic("chart center must lie on the conic")
        if abs(_dot(center.coords, axis.coords)) < 1e-12:
            raise ValueError("chart axis must not pass through the center")
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axis", axis)
        tangent = tangent_line_at(conic, center)
        u = meet(tangent, axis)
        # second frame point: axis cut by the best coordinate line avoiding u
        best = None
        best_gap = -1.0
        for probe in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            cand = _cross(axis.coords, probe)
            if max(abs(z) for z in cand) < 1e-12:
                continue
            cand_n = _normalize3(cand)
            gap = max(abs(z) for z in _cross(u.coords, cand_n))
            if gap > best_gap:
                best_gap = gap
                best = cand_n
        object.__setattr__(self, "_u", u.coords)
        object.__setattr__(self, "_v", best)

    def __setattr__(self, *a):
        raise AttributeError("StereoChart is immutable")

    def _axis_coords(self, q: Sequence[complex]) -> RP1Point:
        """Express an axis point as alpha*u + beta*v."""
        u, v = self._u, self._v
        best_rows = max(
            ((i, j) for i in range(3) for j in range(i + 1, 3)),
            key=lambda ij: abs(u[ij[0]] * v[ij[1]] - u[ij[1]] * v[ij[0]]),
        )
        i, j = best_rows
        det = u[i] * v[j] - u[j] * v[i]
        alpha = (q[i] * v[j] - q[j] * v[i]) / det
        beta = (u[i] * q[j] - u[j] * q[i]) / det
        return RP1Point(alpha, beta)

    def project(self, p: ProjPoint) -> RP1Point:
        """Transfer a conic point to the line: meet(join(center, p), axis)."""
        from .projective import conic_contains

        if conic_contains(self.conic, p) > 1e-6:
            raise PointNotOnConic(f"{p} is not on the chart conic")
        if proj_distance(p, self.center) < DEFAULT.degeneracy:
            return RP1Point.infinity()
        ray = join(self.center, p)
        q = meet(ray, self.axis)
        return self._axis_coords(q.coords)

    def lift(self, x: RP1Point) -> ProjPoint:
        """Inverse transfer: second intersection of the ray with the conic."""
        alpha, beta = x.coords
        u, v = self._u, self._v
        q = tuple(alpha * ui + beta * vi for ui, vi in zip(u, v))
        return second_intersection(self.conic, self.center, ProjPoint(q))


def make_chart(conic: Conic, avoid: Sequence[ProjPoint] = (), variant: int = 0) -> StereoChart:
    """Deterministic chart on a conic.

    Probe-line intersections are ranked by their clearance from the points
    in ``avoid`` (distant centers keep transferred values tame) and
    ``variant`` walks down that order, giving distinct charts for
    invariance tests.  The axis is the fixed line farthest from the center.
    """
    probes = [
        ProjLine(1.0, 0.37, -0.22),
        ProjLine(0.53, 1.0, 0.31),
        ProjLine(1.0, -0.81, 0.47),
        ProjLine(-0.29, 1.0, 0.83),
        ProjLine(1.0, 1.13, -0.71),
        ProjLine(0.91, -0.44, 1.0),
        ProjLine(1.0, 0.08, 0.64),
        ProjLine(-0.67, 0.25, 1.0),
    ]
    candidates: list[tuple[float, ProjPoint]] = []
    for probe in probes:
        try:
            p1, p2, tangential = line_conic_intersect(probe, conic)
        except Exception:
            continue
        if tangential:
            continue
        for cand in (p1, p2):
            clearance = min(
                (proj_distance(cand, a) for a in avoid), default=1.0
            )
            if clearance < 1e-6:
                continue
            if any(proj_distance(cand, c) < 1e-9 for _, c in candidates):
                continue
            candidates.append((clearance, cand))
    # centers far from every tracked point keep projected values tame;
    # ``variant`` walks down that preference order to give distinct charts
    ordered = sorted(candidates, key=lambda t: -t[0])
    if not ordered:
        raise DegenerateChain("no valid stereographic chart found")
    _, center = ordered[variant % len(ordered)]
    best_axis = None
    best_gap = 0.0
    for axis in (
        ProjLine(0.61, -1.0, 0.34),
        ProjLine(1.0, 0.52, 0.18),
        ProjLine(-0.23, 0.77, 1.0),
        ProjLine(1.0, -0.35, -0.93),
    ):
        gap = abs(_dot(center.coords, axis.coords))
        if gap > best_gap:
            best_gap = gap
            best_axis = axis
    if best_axis is None or best_gap <= 1e-6:
        raise DegenerateChain("no axis avoids the chart center")
    return StereoChart(conic, center, best_axis)


# ---------------------------------------------------------------------------
# quadset and chain conditions


def quadset_residual(
    pair14: tuple[RP1Point, RP1Point],
    pair25: tuple[RP1Point, RP1Point],
    pair36: tuple[RP1Point, RP1Point],
) -> BracketResidual:
    """Quadrilateral-set relation [15][26][34] = [16][24][35] on (1,4: 2,5: 3,6)."""
    p1, p4 = pair14
    p2, p5 = pair25
    p3, p6 = pair36
    lhs = bracket(p1, p5) * bracket(p2, p6) * bracket(p3, p4)
    rhs = bracket(p1, p6) * bracket(p2, p4) * bracket(p3, p5)
    return BracketResidual.of(lhs, rhs, proper=_pairwise_distinct((p1, p2, p3, p4, p5, p6)))


def chain7_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Seven-point chain condition [74][16][54][32] = [72][14][56][34].

    Vanishes iff the seven points are consecutive points of a proper chain
    of tangents; non-properness is reported in the flag, not raised.
    """
    if len(points) != 7:
        raise ValueError("chain7_residual expects 7 points")
    p1, p2, p3, p4, p5, p6, p7 = points
    lhs = bracket(p7, p4) * bracket(p1, p6) * bracket(p5, p4) * bracket(p3, p2)
    rhs = bracket(p7, p2) * bracket(p1, p4) * bracket(p5, p6) * bracket(p3, p4)
    return BracketResidual.of(lhs, rhs, proper=_pairwise_distinct(points))


def chain7_forms(points: Sequence[RP1Point]) -> tuple[BracketResidual, BracketResidual, BracketResidual]:
    """The three equivalent lexicographic chain conditions; any two imply the third."""
    if len(points) != 7:
        raise ValueError("chain7_forms expects 7 points")
    p1, p2, p3, p4, p5, p6, p7 = points
    b = bracket
    f1 = BracketResidual.of(
        b(p1, p4) * b(p2, p7) * b(p3, p4) * b(p5, p6),
        b(p1, p6) * b(p2, p3) * b(p4, p5) * b(p4, p7),
    )
    f2 = BracketResidual.of(
        b(p1, p4) * b(p2, p4) * b(p3, p7) * b(p5, p6),
        b(p1, p5) * b(p2, p3) * b(p4, p6) * b(p4, p7),
    )
    f3 = BracketResidual.of(
        b(p1, p5) * b(p2, p7) * b(p3, p4) * b(p4, p6),
        b(p1, p6) * b(p2, p4) * b(p3, p7) * b(p4, p5),
    )
    return f1, f2, f3


def next_chain_point(points: Sequence[RP1Point]) -> RP1Point:
    """Unique seventh chain point after six given ones.

    The chain condition is linear in the last point; solving it gives
    p7 = [14][34][56] p2 - [16][23][45] p4.  (The displayed sum in the
    source text has the second sign flipped; this form is the one that
    reproduces the worked octagon iteration.)
    """
    if len(points) != 6:
        raise ValueError("next_chain_point expects 6 points")
    p1, p2, p3, p4, p5, p6 = points
    if rp1_distance(p2, p4) < DEFAULT.rel:
        raise DegenerateChain("points 2 and 4 coincide; next point undefined")
    c1 = bracket(p1, p4) * bracket(p3, p4) * bracket(p5, p6)
    c2 = bracket(p1, p6) * bracket(p2, p3) * bracket(p4, p5)
    out = (
        c1 * p2.coords[0] - c2 * p4.coords[0],
        c1 * p2.coords[1] - c2 * p4.coords[1],
    )
    scale = max(abs(c1), abs(c2))
    if max(abs(z) for z in out) <= 1e-12 * max(scale, DEFAULT.floor):
        raise DegenerateChain("coefficient brackets collapsed")
    return RP1Point(out)


def hexagon_point6(points: Sequence[RP1Point]) -> RP1Point:
    """Sixth point closing a hexagonal chain (wraparound-linear condition).

    Setting point 7 equal to point 1 in the chain condition leaves an
    equation linear in point 6: p6 = [14][21][34] p5 - [23][45][41] p1.
    """
    if len(points) != 5:
        raise ValueError("hexagon_point6 expects 5 points")
    p1, p2, p3, p4, p5 = points
    k1 = bracket(p1, p4) * bracket(p2, p1) * bracket(p3, p4)
    k2 = bracket(p2, p3) * bracket(p4, p5) * bracket(p4, p1)
    out = (
        k1 * p5.coords[0] - k2 * p1.coords[0],
        k1 * p5.coords[1] - k2 * p1.coords[1],
    )
    if max(abs(z) for z in out) <= 1e-12 * max(abs(k1), abs(k2), DEFAULT.floor):
        raise DegenerateChain("hexagon coefficients collapsed")
    return RP1Point(out)


def heptagon6_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Closure condition for six consecutive points of a proper 7-gon:
    [36][24][56][35][12][14] = [13][45][26][15][46][23]."""
    if len(points) != 6:
        raise ValueError("heptagon6_residual expects 6 points")
    p1, p2, p3, p4, p5, p6 = points
    b = bracket
    lhs = b(p3, p6) * b(p2, p4) * b(p5, p6) * b(p3, p5) * b(p1, p2) * b(p1, p4)
    rhs = b(p1, p3) * b(p4, p5) * b(p2, p6) * b(p1, p5) * b(p4, p6) * b(p2, p3)
    return BracketResidual.of(lhs, rhs, proper=_pairwise_distinct(points))


def heptagon6_cross_ratio_product(points: Sequence[RP1Point]) -> complex:
    """(1,6;4,3) * (3,4;5,2) * (5,2;6,1); equals 1 exactly on 7-gon prefixes."""
    p1, p2, p3, p4, p5, p6 = points
    return (
        cross_ratio(p1, p6, p4, p3)
        * cross_ratio(p3, p4, p5, p2)
        * cross_ratio(p5, p2, p6, p1)
    )


def heptagon_precondition_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Three-summand construction polynomial for the heptagon's sixth point:

        -[15][16][23]^2[45][46] - [12][16][45]^2[23][36]
            + [12][14][25][34][56][36]  =  0

    Expands to the same polynomial as the two-monomial closure condition;
    the lhs/rhs split keeps the positive summand on one side.
    """
    if len(points) != 6:
        raise ValueError("heptagon_precondition_residual expects 6 points")
    p1, p2, p3, p4, p5, p6 = points
    b = bracket
    t1 = b(p1, p5) * b(p1, p6) * b(p2, p3) ** 2 * b(p4, p5) * b(p4, p6)
    t2 = b(p1, p2) * b(p1, p6) * b(p4, p5) ** 2 * b(p2, p3) * b(p3, p6)
    t3 = b(p1, p2) * b(p1, p4) * b(p2, p5) * b(p3, p4) * b(p5, p6) * b(p3, p6)
    return BracketResidual.of(t3, t1 + t2, proper=_pairwise_distinct(points))


def octagon_point7_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Octagon condition on points 1..5 and 7:
    [12][14][27][34][35][57] = [13][17][23][25][45][47]."""
    if len(points) != 6:
        raise ValueError("octagon_point7_residual expects points 1,2,3,4,5,7")
    p1, p2, p3, p4, p5, p7 = points
    b = bracket
    lhs = b(p1, p2) * b(p1, p4) * b(p2, p7) * b(p3, p4) * b(p3, p5) * b(p5, p7)
    rhs = b(p1, p3) * b(p1, p7) * b(p2, p3) * b(p2, p5) * b(p4, p5) * b(p4, p7)
    return BracketResidual.of(lhs, rhs, proper=_pairwise_distinct(points))


def ninegon_residual(points: Sequence[RP1Point]) -> BracketResidual:
    """Nine-gon condition on points 1,2,3,4,5,7 (three degree-9 monomials):

        [12][14][15][27]^2[34][35]^2[47]
            - [15][17]^2[23]^2[24][34][45][57]
            - [12][14][17][24][25][35][37]^2[45]  =  0
    """
    if len(points) != 6:
        raise ValueError("ninegon_residual expects points 1,2,3,4,5,7")
    p1, p2, p3, p4, p5, p7 = points
    b = bracket
    t1 = (
        b(p1, p2) * b(p1, p4) * b(p1, p5)
        * b(p2, p7) ** 2 * b(p3, p4) * b(p3, p5) ** 2 * b(p4, p7)
    )
    t2 = (
        b(p1, p5) * b(p1, p7) ** 2 * b(p2, p3) ** 2
        * b(p2, p4) * b(p3, p4) * b(p4, p5) * b(p5, p7)
    )
    t3 = (
        b(p1, p2) * b(p1, p4) * b(p1, p7) * b(p2, p4) * b(p2, p5)
        * b(p3, p5) * b(p3, p7) ** 2 * b(p4, p5)
    )
    return BracketResidual.of(t1, t2 + t3, proper=_pairwise_distinct(points))


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
