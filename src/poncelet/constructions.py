"""Explicit join/meet constructions for Poncelet polygons.

Every construction returns its result together with a ConstructionTrace: a
record of all named intermediate elements, the recorded incidences they
must satisfy (replayable as an audit), and every two-valued branch choice
taken.  Two-valued intersection choices are always explicit parameters or
trace entries; later polygon points are derived algebraically from earlier
ones, never by a second independent construction, which sidesteps the
consistency pitfalls of symmetric completions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    CoincidentElements,
    ConstructionDegeneracy,
    DegenerateInput,
    DegeneratePencil,
    GeometryError,
    NoValidLabeling,
    NotAHeptagonPrefix,
    NotAnOctagonPrefix,
    NumericalRankDeficiency,
)
from .projective import (
    Conic,
    ProjLine,
    ProjPoint,
    _cross as _cross3,
    _cubic_roots,
    _det3,
    _dot,
    _line_base_points,
    _no_three_collinear,
    apply_map,
    conic_conic_intersect,
    conic_contains,
    conic_through_5,
    conic_through_5_lines,
    join,
    line_conic_intersect,
    meet,
    proj_distance,
    proj_map_from_4,
    tangency_residual,
    tangent_line_at,
)
from .chains import PonceletScene, pole
from .rp1 import (
    _ON_CONIC,
    StereoChart,
    chart_centers,
    heptagon6_residual,
    hexagon_point6,
    next_chain_point,
    octagon_point7_residual,
)


@dataclass
class ConstructionTrace:
    """Audit record of a construction run."""

    elements: dict[str, object] = field(default_factory=dict)
    branches: list[tuple[str, int]] = field(default_factory=list)
    incidences: list[tuple[str, str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, element) -> None:
        self.elements[label] = element

    def record_meet(self, label: str, l1_label: str, l2_label: str, point: ProjPoint) -> None:
        self.elements[label] = point
        self.incidences.append(("incident", label, l1_label))
        self.incidences.append(("incident", label, l2_label))

    def record_join(self, label: str, p1_label: str, p2_label: str, line: ProjLine) -> None:
        self.elements[label] = line
        self.incidences.append(("incident", p1_label, label))
        self.incidences.append(("incident", p2_label, label))

    def record_on_conic(self, point_label: str, conic_label: str) -> None:
        self.incidences.append(("on_conic", point_label, conic_label))

    def record_branch(self, step: str, index: int) -> None:
        self.branches.append((step, index))

    def replay(self) -> float:
        """Worst scaled residual of every recorded incidence."""
        worst = 0.0
        for kind, a, b in self.incidences:
            ea, eb = self.elements[a], self.elements[b]
            if kind == "incident":
                point, line = (ea, eb) if isinstance(ea, ProjPoint) else (eb, ea)
                worst = max(
                    worst,
                    abs(sum(x * y for x, y in zip(point.coords, line.coords))),
                )
            elif kind == "on_conic":
                worst = max(worst, conic_contains(eb, ea))
        return worst


def _guard(fn, *args, step: str = ""):
    try:
        return fn(*args)
    except (CoincidentElements, DegenerateInput, NumericalRankDeficiency) as exc:
        raise ConstructionDegeneracy(f"step {step or fn.__name__} degenerate: {exc}") from exc


def moderate_chart(conic: Conic, pts: Sequence[ProjPoint]) -> StereoChart:
    """Chart keeping every tracked point's transferred value moderate.

    Residual conditioning of the bracket conditions degrades with extreme
    transferred values, so score the six best-ranked chart centers and keep
    the tamest (the first on ties).
    """
    # project's on-conic check does not depend on the chart: make it once
    if any(conic_contains(conic, p) > _ON_CONIC for p in pts):
        raise ConstructionDegeneracy("no usable chart on the carrier conic")
    coords = [p.coords for p in pts]
    best = None
    best_m = math.inf
    for center in chart_centers(conic, pts)[:6]:
        try:
            ch = StereoChart(conic, center)
            # |project(p).value()|, infinite at the center
            m = max(abs(a / b) if b else math.inf for a, b in map(ch._transfer, coords))
        except GeometryError:
            continue
        if m < best_m:
            best_m = m
            best = ch
    if best is None:
        raise ConstructionDegeneracy("no usable chart on the carrier conic")
    return best


def _cut_branch(
    tr: ConstructionTrace, l: ProjLine, conic: Conic, label: str, branch: int
) -> ProjPoint:
    """Cut the line l with the carrier conic A and keep the ``branch`` cut.

    Records both positions (the other as ``<label>_alt``), the branch taken
    and the incidences of the kept point with l and A.
    """
    s1, s2, tangential = line_conic_intersect(l, conic)
    if tangential:
        tr.notes.append(f"line l tangent to A; the two positions of {label} coincide")
    pt = (s1, s2)[branch % 2]
    tr.add(label, pt)
    tr.add(f"{label}_alt", (s2, s1)[branch % 2])
    tr.record_branch("intersect l with A", branch % 2)
    tr.record_on_conic(label, "A")
    tr.incidences.append(("incident", label, "l"))
    return pt


# ---------------------------------------------------------------------------
# heptagon


def construct_heptagon_p6(
    points: Sequence[ProjPoint], branch: int = 0
) -> tuple[ProjPoint, ConstructionTrace]:
    """Sixth point of a Poncelet 7-gon from five free points.

    O = 14^25, P = 13^24, Q = 24^35, R = 15^OP; cutting the line RQ with
    the conic through the five points gives the two admissible positions
    of point 6; ``branch`` picks one.
    """
    if len(points) != 5:
        raise ValueError("construct_heptagon_p6 expects 5 points")
    _no_three_collinear(points)
    p1, p2, p3, p4, p5 = points
    tr = ConstructionTrace()
    for i, p in enumerate(points, 1):
        tr.add(str(i), p)
    conic = _guard(conic_through_5, points, step="conic through 1..5")
    tr.add("A", conic)
    for i in range(1, 6):
        tr.record_on_conic(str(i), "A")
    l14 = _guard(join, p1, p4, step="14")
    l25 = _guard(join, p2, p5, step="25")
    l13 = _guard(join, p1, p3, step="13")
    l24 = _guard(join, p2, p4, step="24")
    l35 = _guard(join, p3, p5, step="35")
    l15 = _guard(join, p1, p5, step="15")
    for lbl, ln in (("14", l14), ("25", l25), ("13", l13), ("24", l24), ("35", l35), ("15", l15)):
        tr.add(lbl, ln)
    o = _guard(meet, l14, l25, step="O")
    tr.record_meet("O", "14", "25", o)
    pp = _guard(meet, l13, l24, step="P")
    tr.record_meet("P", "13", "24", pp)
    q = _guard(meet, l24, l35, step="Q")
    tr.record_meet("Q", "24", "35", q)
    lop = _guard(join, o, pp, step="OP")
    tr.record_join("OP", "O", "P", lop)
    r = _guard(meet, l15, lop, step="R")
    tr.record_meet("R", "15", "OP", r)
    l = _guard(join, r, q, step="l")
    tr.record_join("l", "R", "Q", l)
    return _cut_branch(tr, l, conic, "6", branch), tr


def complete_heptagon(points: Sequence[ProjPoint]) -> ProjPoint:
    """Seventh point closing a heptagon prefix, from the chain condition."""
    if len(points) != 6:
        raise ValueError("complete_heptagon expects 6 points")
    tol = 1e-6  # on-conic residual and bracket gap of the prefix
    conic = conic_through_5(points[:5])
    if conic_contains(conic, points[5]) > tol:
        raise NotAHeptagonPrefix("sixth point does not lie on the carrier conic")
    chart = moderate_chart(conic, list(points))
    xs = [chart.project(p) for p in points]
    if heptagon6_residual(xs).scaled_gap > tol:
        raise NotAHeptagonPrefix("heptagon closure condition violated")
    return chart.lift(next_chain_point(xs))


def complete_hexagon_p6(points: Sequence[ProjPoint]) -> ProjPoint:
    """Sixth point closing a Poncelet hexagon (wraparound-linear condition)."""
    if len(points) != 5:
        raise ValueError("complete_hexagon_p6 expects 5 points")
    _no_three_collinear(points)
    conic = conic_through_5(points)
    chart = moderate_chart(conic, list(points))
    xs = [chart.project(p) for p in points]
    return chart.lift(hexagon_point6(xs))


# ---------------------------------------------------------------------------
# octagon


def construct_octagon_p7(
    points: Sequence[ProjPoint], branch: int = 0
) -> tuple[ProjPoint, ConstructionTrace]:
    """Point 7 of a Poncelet 8-gon from points 1..5.

    P = 14^25, Q = 12^45, R = 24^3Q; cutting the line RP with the carrier
    conic gives the two admissible positions of point 7.
    """
    if len(points) != 5:
        raise ValueError("construct_octagon_p7 expects 5 points")
    _no_three_collinear(points)
    p1, p2, p3, p4, p5 = points
    tr = ConstructionTrace()
    for i, p in enumerate(points, 1):
        tr.add(str(i), p)
    conic = _guard(conic_through_5, points, step="conic through 1..5")
    tr.add("A", conic)
    l14 = _guard(join, p1, p4, step="14")
    l25 = _guard(join, p2, p5, step="25")
    l12 = _guard(join, p1, p2, step="12")
    l45 = _guard(join, p4, p5, step="45")
    l24 = _guard(join, p2, p4, step="24")
    for lbl, ln in (("14", l14), ("25", l25), ("12", l12), ("45", l45), ("24", l24)):
        tr.add(lbl, ln)
    pp = _guard(meet, l14, l25, step="P")
    tr.record_meet("P", "14", "25", pp)
    q = _guard(meet, l12, l45, step="Q")
    tr.record_meet("Q", "12", "45", q)
    l3q = _guard(join, p3, q, step="3Q")
    tr.record_join("3Q", "3", "Q", l3q)
    r = _guard(meet, l24, l3q, step="R")
    tr.record_meet("R", "24", "3Q", r)
    l = _guard(join, r, pp, step="l")
    tr.record_join("l", "R", "P", l)
    return _cut_branch(tr, l, conic, "7", branch), tr


def complete_octagon(
    points: Sequence[ProjPoint], p7: ProjPoint
) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """Points 6 and 8 plus the center, given 1..5 and a valid point 7.

    The center is 15^37; joining 2 and 4 to it and re-cutting the conic
    yields 6 and 8 (the octagon's long diagonals all pass through the
    center, which the caller can verify on the completed polygon).
    """
    if len(points) != 5:
        raise ValueError("complete_octagon expects points 1..5")
    tol = 1e-6  # on-conic residual and bracket gap of point 7
    conic = conic_through_5(points)
    if conic_contains(conic, p7) > tol:
        raise NotAnOctagonPrefix("point 7 does not lie on the carrier conic")
    chart = moderate_chart(conic, list(points) + [p7])
    xs = [chart.project(p) for p in points] + [chart.project(p7)]
    if octagon_point7_residual(xs).scaled_gap > tol:
        raise NotAnOctagonPrefix("octagon point-7 condition violated")
    p1, p2, p3, p4, p5 = points
    center = _guard(meet, join(p1, p5), join(p3, p7), step="center 15^37")
    from .projective import second_intersection

    p6 = second_intersection(conic, p2, center)
    p8 = second_intersection(conic, p4, center)
    return p6, p8, center


# ---------------------------------------------------------------------------
# nine-gon


def construct_ninegon_p4(
    points: Sequence[ProjPoint],
) -> tuple[tuple[ProjPoint, ProjPoint, ProjPoint], ConstructionTrace]:
    """All three positions of point 4 completing 1,2,3,5,6 to a 9-gon.

    Auxiliary conic route: P = 25^36, Q = 12^56, L = 56^tangent(1),
    M = 13^LP, N = 25^Q3; the conic through 1,P,Q,N,M meets the carrier
    conic in point 1 and exactly the three sought positions.

    The source recipe prints the N step as "24^Q3", which is not
    constructible from the inputs (there is no point 4 yet); the incidence
    structure that actually completes the conic is N on the line 25, which
    the closure oracle confirms, so that reading is used here.
    """
    if len(points) != 5:
        raise ValueError("construct_ninegon_p4 expects points 1,2,3,5,6")
    _no_three_collinear(points)
    p1, p2, p3, p5, p6 = points
    tr = ConstructionTrace()
    for lbl, p in zip(("1", "2", "3", "5", "6"), points):
        tr.add(lbl, p)
    conic = _guard(conic_through_5, points, step="conic through 1,2,3,5,6")
    tr.add("A", conic)
    l25 = _guard(join, p2, p5, step="25")
    l36 = _guard(join, p3, p6, step="36")
    l12 = _guard(join, p1, p2, step="12")
    l56 = _guard(join, p5, p6, step="56")
    l13 = _guard(join, p1, p3, step="13")
    for lbl, ln in (("25", l25), ("36", l36), ("12", l12), ("56", l56), ("13", l13)):
        tr.add(lbl, ln)
    tangent1 = _guard(tangent_line_at, conic, p1, step="tangent at 1")
    tr.add("t1", tangent1)
    pp = _guard(meet, l25, l36, step="P")
    tr.record_meet("P", "25", "36", pp)
    q = _guard(meet, l12, l56, step="Q")
    tr.record_meet("Q", "12", "56", q)
    ll = _guard(meet, l56, tangent1, step="L")
    tr.record_meet("L", "56", "t1", ll)
    lp = _guard(join, ll, pp, step="LP")
    tr.record_join("LP", "L", "P", lp)
    m = _guard(meet, l13, lp, step="M")
    tr.record_meet("M", "13", "LP", m)
    q3 = _guard(join, q, p3, step="Q3")
    tr.record_join("Q3", "Q", "3", q3)
    nn = _guard(meet, l25, q3, step="N")
    tr.record_meet("N", "25", "Q3", nn)
    tr.notes.append("N read as 25^Q3 (recipe's '24' not constructible); oracle-validated")
    cc = _guard(conic_through_5, [p1, pp, q, nn, m], step="conic through 1,P,Q,N,M")
    tr.add("C", cc)
    for lbl in ("1", "P", "Q", "N", "M"):
        tr.record_on_conic(lbl, "C")
    pts4 = conic_conic_intersect(conic, cc)
    dists = [proj_distance(x, p1) for x in pts4]
    i1 = min(range(4), key=lambda i: dists[i])
    if dists[i1] > 1e-6:
        raise ConstructionDegeneracy(
            "conic pencil lost the base point 1 (worst-case conditioning)"
        )
    cands = tuple(pts4[i] for i in range(4) if i != i1)
    for k, c in enumerate(cands, 1):
        tr.add(f"4_{k}", c)
        tr.record_on_conic(f"4_{k}", "A")
        tr.record_on_conic(f"4_{k}", "C")
    return cands, tr


# ---------------------------------------------------------------------------
# doubling


def _self_polar_frame(
    a: Conic, b: Conic, tr: ConstructionTrace
) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """Diagonal triangle of the complete quadrangle of the 4 intersections.

    Falls back to the eigenvector frame of dual(b) A when intersections
    collide (double contact, e.g. concentric circles), where the diagonal
    triangle is not determined by quadrangle meets.
    """
    rs = conic_conic_intersect(a, b)
    distinct = all(
        proj_distance(rs[i], rs[j]) > 1e-6 for i in range(4) for j in range(i + 1, 4)
    )
    if distinct:
        for k, r in enumerate(rs, 1):
            tr.add(f"r{k}", r)
        l12 = join(rs[0], rs[1])
        l34 = join(rs[2], rs[3])
        l13 = join(rs[0], rs[2])
        l24 = join(rs[1], rs[3])
        l14 = join(rs[0], rs[3])
        l23 = join(rs[1], rs[2])
        for lbl, ln in (
            ("l12", l12), ("l34", l34), ("l13", l13),
            ("l24", l24), ("l14", l14), ("l23", l23),
        ):
            tr.add(lbl, ln)
        o = meet(l12, l34)
        x = meet(l13, l24)
        y = meet(l14, l23)
        tr.record_meet("O", "l12", "l34", o)
        tr.record_meet("X", "l13", "l24", x)
        tr.record_meet("Y", "l14", "l23", y)
        return o, x, y
    tr.notes.append("pencil intersections collide; frame from dual(B)A eigenvectors")
    o, x, y = (ProjPoint(v) for v in _eigenvector_frame(a, b))
    tr.add("O", o)
    tr.add("X", x)
    tr.add("Y", y)
    return o, x, y


def _eigenvector_frame(a: Conic, b: Conic) -> list[Sequence[complex]]:
    """Eigenvectors of M = dual(b) A, the self-polar triangle of the pencil.

    Each is the largest cross product of two rows of M - lam I, for lam a
    root of det(lam I - M).  Where M - lam I has rank one (a double
    eigenvalue: double contact, e.g. concentric circles) its largest row is
    a line of eigenvectors, and the frame takes a point x of that line and
    the point of the line conjugate to x.
    """
    m = [[_dot(row, col) for col in zip(*a.rows())] for row in b.dual().rows()]

    def shifted(lam: complex) -> list[list[complex]]:
        return [[z - lam if i == j else z for j, z in enumerate(row)] for i, row in enumerate(m)]

    trace = m[0][0] + m[1][1] + m[2][2]
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    lams = _cubic_roots([1, -trace, minors, -_det3(m)])
    frame: list[Sequence[complex]] = []
    for lam in lams:
        rows = shifted(lam)
        v = max((_cross3(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))), key=_size)
        if _size(v) > 1e-6 * max(map(_size, rows)) ** 2:  # a double root is off by ~1e-8
            frame.append(v)
        elif len(frame) < 2:  # the first root of the double pair
            # the trace and the simple eigenvalue give the double one to rounding
            top = max(shifted((trace - max(lams, key=lambda z: abs(z - lam))) / 2), key=_size)
            x = _line_base_points(top)[0]
            frame += [x, _cross3(top, a.apply(x))]
    if len(frame) != 3:
        raise DegeneratePencil("eigenvector frame collapsed")
    return frame


def _size(v: Sequence[complex]) -> float:
    return max(map(abs, v))


# _interleaving_ok transfers with StereoChart._transfer and takes
# RP1Point.value() by hand: doubling passes it only vertices inside its own
# on-conic cut, which is stricter than project's, so project's check could
# never fire there.


def _interleaving_ok(chart: StereoChart, verts: Sequence[ProjPoint]) -> bool:
    """True when every odd vertex sits inside the arc of its neighbours.

    A doubled polygon p_1, t_1, p_2, t_2, ... must thread each mapped touch
    point t_i strictly between p_i and p_{i+1} in the chain's rotation
    direction on the real conic.  Complex scenes have no real cyclic order
    and skip the check; a real scene fails it when a mapped touch point is
    not real, since a real polygon doubles to a real one.
    """
    angles, nonreal = [], set()
    for i, (num, den) in enumerate(map(chart._transfer, [p.coords for p in verts])):
        v = num / den if den else complex(math.inf, 0)
        if not math.isfinite(abs(v)):
            angles.append(math.pi)
        elif abs(v.imag) > 1e-6 * max(1.0, abs(v)):
            nonreal.add(i % 2)
        else:
            angles.append(2 * math.atan(v.real))
    if nonreal:
        return 0 in nonreal
    k = len(angles)
    for direction in (1, -1):
        ok = True
        for i in range(0, k, 2):
            a = angles[i]
            b = angles[(i + 2) % k]
            t = angles[(i + 1) % k]
            arc = (direction * (b - a)) % (2 * math.pi)
            pos = (direction * (t - a)) % (2 * math.pi)
            if not (1e-12 < pos < arc - 1e-12):
                ok = False
                break
        if ok:
            return True
    return False


def doubling(scene: PonceletScene) -> tuple[PonceletScene, ConstructionTrace]:
    """Poncelet 2n-gon from a closing n-gon scene.

    Builds the self-polar frame of the conic pair, maps the inner conic to
    the outer one with the axis-anchored correspondence, and interleaves
    the original vertices with the mapped touch points.  The intrinsic
    labeling ambiguities are resolved by deterministic enumeration: the
    first labeling whose output is a proper interleaved 2n-gon wins.
    """
    a, b = scene.outer, scene.inner
    if a.is_same(b):
        raise DegeneratePencil("outer and inner conics are proportional")
    if not scene.closed:
        raise DegenerateInput("doubling needs a closed scene")
    n = len(scene.vertices)
    tr = ConstructionTrace()
    o, x, y = _self_polar_frame(a, b, tr)
    frame = (o, x, y)
    chart = None
    for o_idx in range(3):
        rest = [i for i in range(3) if i != o_idx]
        opt = frame[o_idx]
        xpt, ypt = frame[rest[0]], frame[rest[1]]
        try:
            xax = join(opt, xpt)
            yax = join(opt, ypt)
            ax = line_conic_intersect(xax, a)[:2]
            ay = line_conic_intersect(yax, a)[:2]
            bx = line_conic_intersect(xax, b)[:2]
            by = line_conic_intersect(yax, b)[:2]
        except GeometryError:
            continue
        for sx, sy in itertools.product((0, 1), (0, 1)):
            bs = [bx[sx], bx[1 - sx], by[sy], by[1 - sy]]
            try:
                tau = proj_map_from_4(bs, [ax[0], ax[1], ay[0], ay[1]])
            except GeometryError:
                continue
            if not apply_map(tau, b).is_same(a, 1e-6):
                continue
            verts: list[ProjPoint] = []
            for i in range(n):
                verts.append(scene.vertices[i])
                verts.append(apply_map(tau, scene.touch_points[i]))
            if max(conic_contains(a, p) for p in verts) > 1e-7:
                continue
            distinct = all(
                proj_distance(verts[i], verts[j]) > 1e-6
                for i in range(2 * n)
                for j in range(i + 1, 2 * n)
            )
            if not distinct:
                continue
            try:
                edges = [join(verts[i], verts[(i + 1) % (2 * n)]) for i in range(2 * n)]
                inner2 = conic_through_5_lines(edges[:5])
            except GeometryError:
                continue
            if tangency_residual(inner2, edges) > 1e-6:
                continue
            if chart is None:
                # centred on a vertex of the scene: the chart is real
                # wherever the scene is
                chart = StereoChart(a, verts[0])
            if not _interleaving_ok(chart, verts):
                continue
            tr.add("x", xax)
            tr.add("y", yax)
            for lbl, pt in (
                ("a_x1", ax[0]), ("a_x2", ax[1]), ("a_y1", ay[0]), ("a_y2", ay[1]),
                ("b_x1", bs[0]), ("b_x2", bs[1]), ("b_y1", bs[2]), ("b_y2", bs[3]),
            ):
                tr.add(lbl, pt)
            tr.add("tau", tau)
            tr.record_branch("frame point used as O", o_idx)
            tr.record_branch("x-axis inner ordering", sx)
            tr.record_branch("y-axis inner ordering", sy)
            out = PonceletScene.assemble(a, inner2, verts, 2 * n)
            return out, tr
    raise NoValidLabeling("no labeling produced a proper interleaved 2n-gon")


# ---------------------------------------------------------------------------
# butterfly chain constructions


def _cross(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint, step: str) -> ProjPoint:
    """(a v b)^(c v d), reporting any degeneracy as ``step``."""
    return _guard(meet, _guard(join, a, b, step=step), _guard(join, c, d, step=step), step=step)


def _pivot_step(p: dict, greens: dict, blues: dict, i: int) -> ProjLine:
    """Chain point i + 1: the one step of every join/meet chain.

    The line m = G_{i-3}B_{i-3} carries G_{i-2} = m^(i-4)(i-1) and
    B_i = m^(i-2)(i-1), and i + 1 = (G_{i-2} v i-2)^(B_i v i).  Fills
    ``greens[i - 2]``, ``blues[i]`` and ``p[i + 1]``; returns m.
    """
    m = _guard(join, greens[i - 3], blues[i - 3], step=f"m{i - 3}")
    g, b = f"G{i - 2}", f"B{i}"
    greens[i - 2] = _guard(meet, m, _guard(join, p[i - 4], p[i - 1], step=g), step=g)
    blues[i] = _guard(meet, m, _guard(join, p[i - 2], p[i - 1], step=b), step=b)
    p[i + 1] = _cross(greens[i - 2], p[i - 2], blues[i], p[i], str(i + 1))
    return m


def chain_point7_joinmeet(
    points: Sequence[ProjPoint], conic: Conic
) -> tuple[ProjPoint, ConstructionTrace]:
    """Seventh chain point by joins and meets only.

    Pivot route: B3 = 12^34, G3 = 14^36, then G4 and B6 on the line G3B3,
    and 7 = (G4 v 4)^(B6 v 6); the butterfly incidence guarantees the
    result lands back on the conic.
    """
    if len(points) != 6:
        raise ValueError("chain_point7_joinmeet expects 6 points")
    p = {i + 1: pt for i, pt in enumerate(points)}
    tr = ConstructionTrace()
    for i in range(1, 7):
        tr.add(str(i), p[i])
    tr.add("A", conic)
    blues = {3: _cross(p[1], p[2], p[3], p[4], "B3")}
    greens = {3: _cross(p[1], p[4], p[3], p[6], "G3")}
    tr.add("B3", blues[3])
    tr.add("G3", greens[3])
    m3 = _pivot_step(p, greens, blues, 6)
    tr.record_join("m3", "G3", "B3", m3)
    tr.add("G4", greens[4])
    tr.add("B6", blues[6])
    tr.add("7", p[7])
    tr.record_on_conic("7", "A")
    return p[7], tr


@dataclass
class ChainConstruction:
    """Result of the iterated join/meet chain."""

    points: list[ProjPoint]           # chain points 1, 2, 3, ...
    greens: dict[int, ProjPoint]      # G_i pivots
    blues: dict[int, ProjPoint]       # B_i pivots
    closed_period: int | None         # n if the iteration returned to the seed
    trace: ConstructionTrace


def chain_iterate_joinmeet(
    points: Sequence[ProjPoint], conic: Conic, steps: int
) -> ChainConstruction:
    """Iterate the join/meet chain construction for ``steps`` new points.

    Initialization is the pivots B3 = 12^34, B4 = 23^45, B5 = 34^56 and
    G3 = 14^36; each step adds one green pivot, one blue pivot and one
    chain point (a full three-colored triangle), the first one point 7.
    If the seed belongs to an n-gon the chain revisits its start and
    ``closed_period`` records n.  No conic membership is asserted, so the
    iteration also runs on perturbed off-conic seeds.
    """
    if len(points) != 6:
        raise ValueError("chain_iterate_joinmeet expects 6 seed points")
    p = {i + 1: pt for i, pt in enumerate(points)}
    tr = ConstructionTrace()
    for i in range(1, 7):
        tr.add(str(i), p[i])
    tr.add("A", conic)
    blues = {k: _cross(p[k - 2], p[k - 1], p[k], p[k + 1], f"B{k}") for k in (3, 4, 5)}
    greens = {3: _cross(p[1], p[4], p[3], p[6], "G3")}
    closed: int | None = None
    for i in range(6, 6 + steps):
        _pivot_step(p, greens, blues, i)
        if closed is None and proj_distance(p[i + 1], p[1]) < 1e-7:
            closed = i
    pts = [p[i] for i in range(1, 7 + steps)]
    for i, pt in enumerate(pts, 1):
        tr.add(str(i), pt)
    for k, v in greens.items():
        tr.add(f"G{k}", v)
    for k, v in blues.items():
        tr.add(f"B{k}", v)
    return ChainConstruction(pts, greens, blues, closed, tr)


def butterfly_check(
    a_points: Sequence[ProjPoint],
    b_points: Sequence[ProjPoint],
    line: ProjLine,
) -> float:
    """Residual of the conic butterfly incidence.

    With both quadruples on one conic, X_i the cuts of the lines A_iA_{i+1}
    on ``line``, and the B ring threaded through X_1..X_3, returns the gap
    between X_4 and the cut of B_4B_1 (zero when the hypotheses hold).
    """
    if len(a_points) != 4 or len(b_points) != 4:
        raise ValueError("butterfly_check expects two quadruples")
    a1, a4 = a_points[0], a_points[3]
    b1, b4 = b_points[0], b_points[3]
    x4 = _guard(meet, _guard(join, a4, a1, step="A4A1"), line, step="X4")
    x4b = _guard(meet, _guard(join, b4, b1, step="B4B1"), line, step="X4'")
    return proj_distance(x4, x4b)


# ---------------------------------------------------------------------------
# shared helpers for tests and the CLI


def polygon_scene(points: Sequence[ProjPoint], n: int | None = None) -> PonceletScene:
    """Scene from a closed polygon on a conic: fit both conics and assemble.

    Uses every vertex and every edge in the over-determined fits, which
    averages construction noise instead of propagating the first five.
    """
    from .projective import conic_fit, conic_fit_lines

    pts = list(points)
    outer = conic_fit(pts)
    edges = [join(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    inner = conic_fit_lines(edges)
    worst = tangency_residual(inner, edges)
    if worst > 1e-6:
        raise DegenerateInput(f"edges are not tangent to a common conic ({worst:.2e})")
    return PonceletScene.assemble(outer, inner, pts, n if n is not None else len(pts))
