"""Bracket algebra on the projective line and the transfer of conics to it.

Points of a conic are identified with RP^1 by the pencil of lines through
one point c of the conic: p goes to the line c v p.  In that chart a
bracket [p q] is det(c, p, q) times one factor per point, and all
chain/closure conditions in this package are multihomogeneous 2x2-bracket
equations, each monomial of the same degree in every point, so in exact
arithmetic their scaled residuals do not depend on the chart.  The chart
moves rounding only: ``make_chart`` fixes its centre deterministically,
from one cheap ranking of a few centres, and builds one chart.

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

import math
from functools import cache
from typing import NamedTuple, Sequence

from .errors import (
    ConstructionDegeneracy,
    DegenerateChain,
    DegenerateCrossRatio,
    DegenerateInput,
    GeometryError,
    NonFiniteElement,
    PointNotOnConic,
)
from .projective import (
    Conic,
    ProjPoint,
    Vec3,
    _cross,
    _dot,
    _finite,
    _minor_gap,
    _normalize3,
    _conic_cut,
    _line_base_points,
    _other_root,
    conic_contains,
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
# charts: the pencil of lines at a point of the conic


# the standard projective frame: a chart's second line joins its centre to
# one of the first three; the lines joining them all to (the real part of)
# the tracked points' centroid cut a conic in the candidate centres
_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))
_INFINITY = RP1Point.infinity().coords


class StereoChart:
    """The pencil of lines through ``center``, a point c of the conic, as RP^1.

    A point p of the conic goes to its line c v p.  The pencil has the
    basis T = A c, the tangent at c, and L = c x e_k, the line from c to
    the frame point e_k of the first largest |T_k|; the line of p is
    (T.p) L - (L.p) T, so p goes to (L.p : T.p).  The center itself goes
    to (1, 0), the limit along the conic, as its line is the tangent.  A
    bracket [p q] of two transferred points is det(c, p, q) times one
    factor per point, so a bracket condition reads the same in every chart.
    """

    __slots__ = ("conic", "center", "_pencil")

    def __init__(self, conic: Conic, center: ProjPoint):
        cc = center.coords
        if conic_contains(conic, center) > 1e-7:
            raise PointNotOnConic("chart center must lie on the conic")
        if conic.degenerate:
            raise DegenerateInput("a chart needs a non-degenerate conic")
        t = conic.apply(cc)
        k = max(range(3), key=lambda i: abs(t[i]))
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "_pencil", (_cross(cc, _FRAME[k]), t))

    def __setattr__(self, *a):
        raise AttributeError("StereoChart is immutable")

    def _transfer(self, p: Vec3) -> Vec2:
        """Normalized RP1 pair (L.p : T.p) of the conic point with coordinates ``p``."""
        l, t = self._pencil
        alpha, beta = _dot(l, p), _dot(t, p)
        if abs(alpha) < DEFAULT.degeneracy and abs(beta) < DEFAULT.degeneracy:
            return _INFINITY  # the center: both lines pass through it
        top = alpha if abs(alpha) >= abs(beta) else beta
        return alpha / top, beta / top

    def project(self, p: ProjPoint) -> RP1Point:
        """Transfer a conic point to the line: the line from the center to it."""
        if conic_contains(self.conic, p) > DEFAULT.on_conic:
            raise PointNotOnConic(f"{p} is not on the chart conic")
        return RP1Point._of_normalized(self._transfer(p.coords))

    def lift(self, x: RP1Point) -> ProjPoint:
        """Inverse transfer: the other cut of the conic with the line of ``x``."""
        alpha, beta = x.coords
        l, t = self._pencil
        m = tuple(beta * li - alpha * ti for li, ti in zip(l, t))
        return ProjPoint._of_normalized(_other_root(self.conic.entries, self.center.coords, m))


def make_chart(conic: Conic, avoid: Sequence[ProjPoint] = ()) -> StereoChart:
    """Chart from the best centre on ``conic`` for the points ``avoid``.

    The candidates are the cuts of the conic with the lines joining the
    ``_FRAME`` points to the real part g of the centroid of ``avoid`` (the
    origin when no point of it is finite), less those within 1e-6 of a
    point of ``avoid`` and repeats within ``DEFAULT.rel``.  In the chart
    from c a point's value is (L.p)/(T.p), with T = A c the tangent at c,
    so it blows up where |p.Ac| is small: the centres rank by the least
    |p.Ac| / (|Ac| |p|) over ``avoid``, largest first and stably, each norm
    the largest |entry|.  A centre that takes no chart passes to the next.
    """
    if conic.degenerate:
        raise ConstructionDegeneracy("no chart on a degenerate conic")
    coords = [p.coords for p in avoid]
    # the real part of the sum of (x, y, z) conj(z), the affine points
    # weighted by |z|^2: real lines keep the centres of a real conic real
    # when rounding leaves the tracked points a little off the real plane
    g = tuple(sum((q[i] * q[2].conjugate()).real for q in coords) for i in range(3))
    g = _normalize3(g) if any(g) else (0, 0, 1)
    ranked: list[tuple[float, Vec3]] = []
    for d in _FRAME:
        line = _cross(g, d)
        if max(map(abs, line)) < DEFAULT.degeneracy:
            continue  # g is the frame point: no line
        try:
            # through the line's own base points, so every cut lies on the
            # conic to rounding however close g comes to d
            cuts = _conic_cut(*_line_base_points(line), conic.entries)
        except GeometryError:
            continue
        if cuts[2]:
            continue  # a tangent line: one doubled cut
        for c in cuts[:2]:
            if any(_minor_gap(c, q) < 1e-6 for q in coords):
                continue
            if any(_minor_gap(c, r[1]) < DEFAULT.rel for r in ranked):
                continue
            t = conic.apply(c)
            scale = max(map(abs, t))
            ranked.append((min((abs(_dot(q, t)) for q in coords), default=scale) / scale, c))
    ranked.sort(key=lambda r: -r[0])
    for _, c in ranked:
        try:
            return StereoChart(conic, ProjPoint._of_normalized(c))
        except GeometryError:
            continue
    raise ConstructionDegeneracy("no usable chart on the carrier conic")


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
