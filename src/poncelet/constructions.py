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
from typing import NamedTuple, Sequence

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
    conic_fit,
    conic_fit_lines,
    conic_through_5,
    conic_through_5_lines,
    join,
    line_conic_intersect,
    meet,
    min_separation,
    proj_distance,
    proj_map_from_4,
    second_intersection,
    tangency_residual,
    tangent_line_at,
)
from .chains import PonceletScene
from .rp1 import (
    StereoChart,
    heptagon6_residual,
    hexagon_point6,
    make_chart,
    next_chain_point,
    octagon_point7_residual,
)
from .settings import DEFAULT


class ConstructionTrace:
    """Audit record of a construction run."""

    def __init__(self) -> None:
        self.elements: dict[str, object] = {}
        self.branches: list[tuple[str, int]] = []
        self.incidences: list[tuple[str, str, str]] = []
        self.notes: list[str] = []

    def add(self, label: str, element) -> None:
        self.elements[label] = element

    # recipe steps: each names its inputs by label and is guarded under its
    # own label, so a degenerate step reports as "step <label> degenerate"

    def line(self, label: str, a: str, b: str) -> ProjLine:
        """The line ``label`` = a v b, recording no incidence."""
        self.elements[label] = _guard(join, self.elements[a], self.elements[b], step=label)
        return self.elements[label]

    def lines(self, *labels: str) -> None:
        """Lines of two labelled points each, named after them: "14" = 1 v 4."""
        for label in labels:
            self.line(label, label[0], label[1])

    def join(self, label: str, a: str, b: str) -> ProjLine:
        """The line ``label`` = a v b, recording a and b on it."""
        line = self.line(label, a, b)
        self.incidences += [("incident", a, label), ("incident", b, label)]
        return line

    def meet(self, label: str, a: str, b: str) -> ProjPoint:
        """The point ``label`` = a ^ b, recording it on both lines."""
        self.elements[label] = _guard(meet, self.elements[a], self.elements[b], step=label)
        self.incidences += [("incident", label, a), ("incident", label, b)]
        return self.elements[label]

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
                worst = max(worst, abs(_dot(point.coords, line.coords)))
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
    transferred values; ``make_chart`` ranks its centres by the least
    denominator of those values.
    """
    # project's on-conic check does not depend on the chart: make it once
    if any(conic_contains(conic, p) > DEFAULT.on_conic for p in pts):
        raise ConstructionDegeneracy("no usable chart on the carrier conic")
    return make_chart(conic, pts)


def _start(points: Sequence[ProjPoint], labels: str) -> tuple[ConstructionTrace, Conic]:
    """Trace of five non-collinear input points named by ``labels``, and their
    conic, the carrier A."""
    _no_three_collinear(points)
    tr = ConstructionTrace()
    for label, p in zip(labels, points):
        tr.add(label, p)
    named = "1..5" if labels == "12345" else ",".join(labels)
    tr.add("A", _guard(conic_through_5, points, step=f"conic through {named}"))
    return tr, tr.elements["A"]


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
    tr, conic = _start(points, "12345")
    for i in "12345":
        tr.record_on_conic(i, "A")
    tr.lines("14", "25", "13", "24", "35", "15")
    tr.meet("O", "14", "25")
    tr.meet("P", "13", "24")
    tr.meet("Q", "24", "35")
    tr.join("OP", "O", "P")
    tr.meet("R", "15", "OP")
    return _cut_branch(tr, tr.join("l", "R", "Q"), conic, "6", branch), tr


def complete_heptagon(points: Sequence[ProjPoint]) -> ProjPoint:
    """Seventh point closing a heptagon prefix, from the chain condition."""
    if len(points) != 6:
        raise ValueError("complete_heptagon expects 6 points")
    conic = conic_through_5(points[:5])
    if conic_contains(conic, points[5]) > DEFAULT.on_conic:
        raise NotAHeptagonPrefix("sixth point does not lie on the carrier conic")
    chart = moderate_chart(conic, list(points))
    xs = [chart.project(p) for p in points]
    if heptagon6_residual(xs).scaled_gap > 1e-6:
        raise NotAHeptagonPrefix("heptagon closure condition violated")
    return chart.lift(next_chain_point(xs))


def complete_hexagon_p6(points: Sequence[ProjPoint]) -> ProjPoint:
    """Sixth point closing a Poncelet hexagon (wraparound-linear condition)."""
    if len(points) != 5:
        raise ValueError("complete_hexagon_p6 expects 5 points")
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
    tr, conic = _start(points, "12345")
    tr.lines("14", "25", "12", "45", "24")
    tr.meet("P", "14", "25")
    tr.meet("Q", "12", "45")
    tr.join("3Q", "3", "Q")
    tr.meet("R", "24", "3Q")
    return _cut_branch(tr, tr.join("l", "R", "P"), conic, "7", branch), tr


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
    conic = conic_through_5(points)
    if conic_contains(conic, p7) > DEFAULT.on_conic:
        raise NotAnOctagonPrefix("point 7 does not lie on the carrier conic")
    chart = moderate_chart(conic, list(points) + [p7])
    xs = [chart.project(p) for p in points] + [chart.project(p7)]
    if octagon_point7_residual(xs).scaled_gap > 1e-6:
        raise NotAnOctagonPrefix("octagon point-7 condition violated")
    p1, p2, p3, p4, p5 = points
    center = _guard(meet, join(p1, p5), join(p3, p7), step="center 15^37")
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
    tr, conic = _start(points, "12356")
    tr.lines("25", "36", "12", "56", "13")
    tr.add("t1", _guard(tangent_line_at, conic, points[0], step="tangent at 1"))
    tr.meet("P", "25", "36")
    tr.meet("Q", "12", "56")
    tr.meet("L", "56", "t1")
    tr.join("LP", "L", "P")
    tr.meet("M", "13", "LP")
    tr.join("Q3", "Q", "3")
    tr.meet("N", "25", "Q3")
    tr.notes.append("N read as 25^Q3 (recipe's '24' not constructible); oracle-validated")
    rim = [tr.elements[lbl] for lbl in "1PQNM"]
    tr.add("C", _guard(conic_through_5, rim, step="conic through 1,P,Q,N,M"))
    for lbl in "1PQNM":
        tr.record_on_conic(lbl, "C")
    pts4 = conic_conic_intersect(conic, tr.elements["C"])
    dists = [proj_distance(x, points[0]) for x in pts4]
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
    if min_separation(rs) > 1e-6:
        for k, r in enumerate(rs, 1):
            tr.add(f"r{k}", r)
        for i, j in ("12", "34", "13", "24", "14", "23"):
            tr.line(f"l{i}{j}", f"r{i}", f"r{j}")
        return tr.meet("O", "l12", "l34"), tr.meet("X", "l13", "l24"), tr.meet("Y", "l14", "l23")
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
            if min_separation(verts) <= 1e-6:
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


class ChainConstruction(NamedTuple):
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
        # chain point i + 1: the line m = G_{i-3}B_{i-3} carries
        # G_{i-2} = m^(i-4)(i-1) and B_i = m^(i-2)(i-1), and
        # i + 1 = (G_{i-2} v i-2)^(B_i v i)
        m = _guard(join, greens[i - 3], blues[i - 3], step=f"m{i - 3}")
        g, b = f"G{i - 2}", f"B{i}"
        greens[i - 2] = _guard(meet, m, _guard(join, p[i - 4], p[i - 1], step=g), step=g)
        blues[i] = _guard(meet, m, _guard(join, p[i - 2], p[i - 1], step=b), step=b)
        p[i + 1] = _cross(greens[i - 2], p[i - 2], blues[i], p[i], str(i + 1))
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
    pts = list(points)
    outer = conic_fit(pts)
    edges = [join(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    inner = conic_fit_lines(edges)
    worst = tangency_residual(inner, edges)
    if worst > 1e-6:
        raise DegenerateInput(f"edges are not tangent to a common conic ({worst:.2e})")
    return PonceletScene.assemble(outer, inner, pts, n if n is not None else len(pts))
