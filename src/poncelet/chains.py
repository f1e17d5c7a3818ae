"""Poncelet chains: synthetic tangent iteration, closure tests and the
closure-polynomial solver.

Two independent engines compute the same chains.  The synthetic one walks
the conic pair geometrically (intersect the current tangent with the outer
conic, draw the other tangent to the inner one); the algebraic one iterates
the linear next-point formula on transferred line coordinates.  Closure is
always certified with a double wrap: the chain state is a (point, line)
pair, so matching the first two points again after n steps suffices, and
that second check is what rejects spurious closure-polynomial roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    PointNotOnConic,
    TangentialDegeneracy,
)
from .projective import (
    Conic,
    ProjLine,
    ProjPoint,
    ProjMap,
    apply_map,
    conic_contains,
    conic_through_5_lines,
    join,
    line_conic_intersect,
    proj_distance,
    tangents_from_point,
)
from .ratpoly import (
    GaussQ,
    Poly,
    PolyVec,
    _pv_bracket,
    chain_next_vector,
    constant_vector,
    exact_newton,
    normalize_pair,
    poly_gcd,
    primitive,
    to_complex,
    variable_vector,
)
from .rp1 import RP1Point, StereoChart
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# scene types


@dataclass(frozen=True)
class ChainState:
    """Current vertex plus the tangent line that led into it."""

    point: ProjPoint
    line: ProjLine


@dataclass(frozen=True)
class ClosureReport:
    n: int
    closes: bool
    residual_p: float  # gap between p_{n+1} and p_1
    residual_q: float  # gap between p_{n+2} and p_2
    spurious: bool     # first wrap matches, second does not


def pole(conic: Conic, line: ProjLine) -> ProjPoint:
    """Pole of a line; for a tangent line this is the touching point."""
    b00, b01, b02, b11, b12, b22 = conic.adjugate_entries()
    l0, l1, l2 = line.coords
    return ProjPoint(
        b00 * l0 + b01 * l1 + b02 * l2,
        b01 * l0 + b11 * l1 + b12 * l2,
        b02 * l0 + b12 * l1 + b22 * l2,
    )


@dataclass(frozen=True)
class PonceletScene:
    """Vertex list on an outer conic with edges tangent to an inner conic.

    A scene with ``n == len(vertices)`` is a closed polygon (the edge list
    wraps around); otherwise it is an open chain prefix and the wrap edge
    does not exist.
    """

    outer: Conic
    inner: Conic
    vertices: tuple[ProjPoint, ...]
    touch_points: tuple[ProjPoint, ...]
    n: int | None = None

    @property
    def closed(self) -> bool:
        return self.n is not None and self.n == len(self.vertices)

    @classmethod
    def assemble(
        cls,
        outer: Conic,
        inner: Conic,
        vertices: Sequence[ProjPoint],
        n: int | None = None,
    ) -> "PonceletScene":
        verts = tuple(vertices)
        scene = cls(outer, inner, verts, (), n)
        touches = tuple(pole(inner, e) for e in scene.edges())
        return cls(outer, inner, verts, touches, n)

    def edges(self) -> list[ProjLine]:
        k = len(self.vertices)
        count = k if self.closed else k - 1
        return [
            join(self.vertices[i], self.vertices[(i + 1) % k]) for i in range(count)
        ]

    def verify(self) -> dict[str, float]:
        """Worst-case residuals of the scene invariants."""
        vert = max(conic_contains(self.outer, p) for p in self.vertices)
        edges = self.edges()
        scale = max(abs(z) for z in self.inner.adjugate_entries())
        tang = max(
            abs(self.inner.dual_qform(e.coords)) / max(scale, DEFAULT.floor)
            for e in edges
        )
        touch = 0.0
        for q, e in zip(self.touch_points, edges):
            touch = max(touch, conic_contains(self.inner, q))
            touch = max(touch, abs(sum(a * b for a, b in zip(q.coords, e.coords))))
        return {"vertex": vert, "tangency": tang, "touch": touch}


# ---------------------------------------------------------------------------
# synthetic engine


def chain_step(outer: Conic, inner: Conic, state: ChainState) -> ChainState:
    """One Poncelet step: new vertex on the current line, new tangent there.

    Both two-valued choices are resolved by "other than the previous one":
    the candidate farther (in the scale-free minor metric) from the current
    element is taken.  Coinciding candidates mean the chain is stuck at a
    tangential contact.
    """
    p1, p2, tangential = line_conic_intersect(state.line, outer)
    if tangential:
        raise TangentialDegeneracy("chain line is tangent to the outer conic")
    d1 = proj_distance(p1, state.point)
    d2 = proj_distance(p2, state.point)
    nxt = p1 if d1 >= d2 else p2
    if max(d1, d2) < 1e-9:
        raise TangentialDegeneracy("both intersection candidates coincide with the vertex")
    l1, l2, doubled = tangents_from_point(nxt, inner)
    if doubled:
        raise TangentialDegeneracy("next vertex lies on the inner conic")
    e1 = proj_distance(l1, state.line)
    e2 = proj_distance(l2, state.line)
    nxt_line = l1 if e1 >= e2 else l2
    if max(e1, e2) < 1e-9:
        raise TangentialDegeneracy("both tangent candidates coincide")
    return ChainState(nxt, nxt_line)


def start_state(
    outer: Conic, inner: Conic, start: ProjPoint, first_tangent_choice: int = 0
) -> ChainState:
    if conic_contains(outer, start) > 1e-6:
        raise PointNotOnConic("chain start must lie on the outer conic")
    t1, t2, doubled = tangents_from_point(start, inner)
    if doubled:
        raise TangentialDegeneracy("start point lies on the inner conic")
    return ChainState(start, (t1, t2)[first_tangent_choice % 2])


def run_chain(
    outer: Conic,
    inner: Conic,
    start: ProjPoint,
    first_tangent_choice: int = 0,
    steps: int = 0,
) -> list[ProjPoint]:
    """Chain vertices p_1 .. p_{steps+1} from a start point on the outer conic."""
    state = start_state(outer, inner, start, first_tangent_choice)
    out = [state.point]
    for _ in range(steps):
        state = chain_step(outer, inner, state)
        out.append(state.point)
    return out


def closure_test(
    outer: Conic,
    inner: Conic,
    start: ProjPoint,
    n: int,
    first_tangent_choice: int = 0,
    tol: float | None = None,
) -> ClosureReport:
    """Double-wrap closure check of the synthetic chain."""
    tol = DEFAULT.closure if tol is None else tol
    pts = run_chain(outer, inner, start, first_tangent_choice, steps=n + 1)
    res_p = proj_distance(pts[n], pts[0])
    res_q = proj_distance(pts[n + 1], pts[1])
    closes = res_p < tol and res_q < tol
    spurious = res_p < tol <= res_q
    return ClosureReport(n, closes, res_p, res_q, spurious)


# ---------------------------------------------------------------------------
# algebraic engine (closure polynomials)


ChainValue = object  # RP1Point | int | float | Fraction | complex | (num, den) pair


def _exact_pairs(points: Sequence[ChainValue]) -> tuple[list[tuple], bool]:
    """Coordinate pairs kept exact: numbers and Fractions pass through as-is.

    RP1Point coordinates are normalized floats, so raw numeric inputs are
    the way to feed exact rational data (Fractions and ints survive intact).
    """
    pairs = []
    for p in points:
        if isinstance(p, RP1Point):
            pairs.append((p.coords[0], p.coords[1]))
        elif isinstance(p, tuple):
            pairs.append((p[0], p[1]))
        else:
            pairs.append((p, 1))

    def _is_complex(z):
        return isinstance(z, (complex, GaussQ)) and (
            z.imag != 0 if isinstance(z, complex) else bool(z.im)
        )

    gaussian = any(_is_complex(z) for pair in pairs for z in pair)
    return pairs, gaussian


@dataclass(frozen=True)
class ClosureSystem:
    """Symbolic chain data for five fixed points and one unknown slot."""

    n: int
    var_slot: int
    gaussian: bool
    vectors: tuple[PolyVec, ...]  # chain points p_1 .. p_{n+2} as polynomial pairs
    polynomial: Poly              # reduced numerator of the first-wrap condition
    second_wrap: Poly             # reduced numerator of the second-wrap condition
    genuine: Poly                 # gcd of the two wraps: exactly the genuine roots

    def exact(self, x):
        """``x`` as an exact scalar: floats and complexes convert exactly."""
        if not isinstance(x, (float, complex)):
            return x
        z = complex(x)
        return GaussQ.from_complex(z) if self.gaussian or z.imag != 0 else Fraction(z.real)

    def wrap_residuals(self, x) -> tuple[float, float]:
        """Both wrap gaps of the chain at a candidate root, in exact arithmetic.

        ``x`` may be an exact scalar (Fraction/GaussQ) or a complex float
        (converted exactly).  Exact evaluation means a spurious root can
        never masquerade as closing through float cancellation.
        """
        x = self.exact(x)
        return (
            self._wrap_gap(x, self.n, 0),
            self._wrap_gap(x, self.n + 1, 1),
        )

    def _wrap_gap(self, x, idx_new: int, idx_ref: int) -> float:
        a, b = self.vectors[idx_new]
        ra, rb = self.vectors[idx_ref]
        va, vb = a.eval_exact(x), b.eval_exact(x)
        wa, wb = ra.eval_exact(x), rb.eval_exact(x)
        det = va * wb - vb * wa
        scale = max(_mag(va), _mag(vb)) * max(_mag(wa), _mag(wb))
        return _mag(det) / max(scale, DEFAULT.floor)


def _mag(z) -> float:
    return abs(to_complex(z))


def closure_system(
    points5: Sequence[ChainValue], n: int, var_slot: int = 5
) -> ClosureSystem:
    """Build the symbolic chain for points 1..6 with one unknown coordinate.

    ``points5`` are the five known points in chain order with the unknown
    removed; ``var_slot`` is the 0-based position of the unknown among the
    first six chain points.
    """
    if n < 6:
        raise DegenerateInput("closure polynomials need n >= 6")
    if len(points5) != 5:
        raise ValueError("expected exactly five known points")
    pairs, gaussian = _exact_pairs(points5)
    vecs: list[PolyVec] = []
    it = iter(pairs)
    for slot in range(6):
        if slot == var_slot:
            vecs.append(variable_vector(gaussian))
        else:
            vecs.append(constant_vector(next(it), gaussian))
    # distinctness of the known points, checked exactly on the constants
    consts = [v for i, v in enumerate(vecs[:6]) if i != var_slot]
    for i in range(5):
        for j in range(i + 1, 5):
            det = consts[i][0] * consts[j][1] - consts[i][1] * consts[j][0]
            if det.is_zero():
                raise DegenerateInput("known chain points must be pairwise distinct")
    # the recursion runs on the starting points scaled to reduced integer
    # pairs; chain_next_vector is homogeneous in each point, so the vectors
    # it returns do not change, and only the stored starting points keep
    # the caller's exact values
    work = [normalize_pair(*v) for v in vecs]
    while len(work) < n + 2:
        work.append(chain_next_vector(work[-6:]))
    vecs += work[6:]
    closing = _pv_bracket(work[n], work[0])
    second = _pv_bracket(work[n + 1], work[1])
    if closing.is_zero() or second.is_zero():
        raise DegenerateInput("closure condition vanished identically")
    # a common root forces both chain states to repeat, hence true closure;
    # the reduced vector pairs are coprime, so no zero-vector false positives
    return ClosureSystem(
        n, var_slot, gaussian, tuple(vecs),
        primitive(closing), primitive(second), poly_gcd(closing, second),
    )


def closure_polynomial(points5: Sequence[ChainValue], n: int) -> Poly:
    """Reduced closure polynomial for point 6, given points 1..5 and period n.

    Exact rational (or Gaussian-rational) coefficients in canonical
    primitive form; its roots contain every genuine position of point 6.
    Pass ints/Fractions (not pre-normalized RP1 points) to keep the
    coefficients exact.
    """
    return closure_system(points5, n).polynomial


@dataclass(frozen=True)
class ClosureRoot:
    value: complex
    residual_p: float
    residual_q: float
    accepted: bool


def _poly_roots(system: ClosureSystem, poly: Poly) -> list[tuple[object, complex]]:
    """Polished, deduplicated roots of one factor polynomial."""
    coeffs = poly.complex_coefficients()
    if len(coeffs) <= 1:
        return []
    seeds = np.roots(np.array(coeffs[::-1], dtype=complex))
    polished = []
    for s in seeds:
        z = complex(s)
        if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)) and not system.gaussian:
            z = complex(z.real, 0.0)
        exact_x, approx = exact_newton(poly, z)
        polished.append((exact_x, approx))
    merged: list[tuple[object, complex]] = []
    for x, approx in sorted(polished, key=lambda t: (t[1].real, t[1].imag)):
        if any(abs(approx - m) < 1e-7 * max(1.0, abs(m)) for _, m in merged):
            continue
        merged.append((x, approx))
    return merged


def closure_roots(
    points5: Sequence[ChainValue], n: int, tol: float | None = None
) -> list[ClosureRoot]:
    """All closure-polynomial roots, two-wrap filtered.

    The genuine factor (gcd of both wrap polynomials) and the spurious
    cofactor are solved separately, which keeps clustered genuine/spurious
    neighbourhoods well-conditioned; roots closer than 1e-7 merge as one.
    """
    tol = DEFAULT.closure if tol is None else tol
    system = closure_system(points5, n)
    genuine = system.genuine
    cofactor = (
        system.polynomial // genuine if genuine.degree > 0 else system.polynomial
    )
    out = []
    for x, approx in _poly_roots(system, genuine) if genuine.degree > 0 else []:
        res_p, res_q = system.wrap_residuals(x)
        out.append(ClosureRoot(approx, res_p, res_q, res_p < tol and res_q < tol))
    genuine_vals = [r.value for r in out]
    for x, approx in _poly_roots(system, cofactor):
        if any(abs(approx - g) < 1e-7 * max(1.0, abs(g)) for g in genuine_vals):
            continue
        res_p, res_q = system.wrap_residuals(x)
        out.append(ClosureRoot(approx, res_p, res_q, res_p < tol and res_q < tol))
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out


def count_solutions(points5: Sequence[ChainValue], n: int) -> int:
    """Number of genuine positions of point 6 closing the chain at period n.

    Counted algebraically: distinct roots of the gcd of the two wrap
    polynomials, which realizes the double-wrap filter in exact arithmetic
    (robust even when genuine and spurious roots cluster).
    """
    system = closure_system(points5, n)
    g = system.genuine
    if g.degree <= 0:
        return 0
    square_part = poly_gcd(g, g.derivative())
    return g.degree - (square_part.degree if square_part.degree > 0 else 0)


def algebraic_closure_report(
    points5: Sequence[ChainValue], x6, n: int, tol: float | None = None
) -> ClosureReport:
    """Two-wrap closure report for a concrete sixth point, via the symbolic chain.

    Evaluating the reduced symbolic vectors keeps the chain meaningful even
    at candidates where the pointwise iteration hits a removable 0/0 (the
    hallmark of spurious roots).
    """
    tol = DEFAULT.closure if tol is None else tol
    system = closure_system(points5, n)
    if isinstance(x6, RP1Point):
        x6 = x6.value()
    res_p, res_q = system.wrap_residuals(x6)
    closes = res_p < tol and res_q < tol
    return ClosureReport(n, closes, res_p, res_q, res_p < tol <= res_q)


def chain_values(
    points5: Sequence[ChainValue], x6, n_points: int
) -> list[RP1Point]:
    """First ``n_points`` chain points for a concrete sixth value (symbolic path)."""
    system = closure_system(points5, max(6, n_points - 2))
    val = system.exact(x6.value() if isinstance(x6, RP1Point) else x6)
    out = []
    for vec in system.vectors[:n_points]:
        a, b = vec
        va, vb = a.eval_exact(val), b.eval_exact(val)
        out.append(RP1Point(to_complex(va), to_complex(vb)))
    return out


# ---------------------------------------------------------------------------
# lifting RP^1 data to scenes


def canonical_chart() -> StereoChart:
    """Fixed chart on the unit circle used to lift line coordinates to scenes."""
    return StereoChart(
        Conic.unit_circle(), ProjPoint(0, 1, 1), ProjLine(0, 1, 0)
    )


def scene_from_rp1(points: Sequence[RP1Point]) -> PonceletScene:
    """Scene from six transferred chain points: lift to the unit circle, fit
    the inner conic tangent to the five edge lines."""
    if len(points) != 6:
        raise ValueError("scene_from_rp1 expects 6 points")
    chart = canonical_chart()
    lifted = [chart.lift(x) for x in points]
    for i in range(6):
        for j in range(i + 1, 6):
            if proj_distance(lifted[i], lifted[j]) < 1e-10:
                raise DegenerateInput("lifted chain points are not distinct")
    edges = [join(lifted[i], lifted[i + 1]) for i in range(5)]
    try:
        inner = conic_through_5_lines(edges)
    except Exception as exc:
        raise DegenerateInput(f"inner conic fit failed: {exc}") from exc
    scale = max(abs(z) for z in inner.adjugate_entries())
    for e in edges:
        if abs(inner.dual_qform(e.coords)) / scale > 1e-7:
            raise DegenerateInput("inner conic does not touch every edge")
    return PonceletScene.assemble(chart.conic, inner, lifted)


def concentric_scene(n: int, start_angle: float = 0.0, density: int = 1) -> PonceletScene:
    """Classical closing scene: unit circle outside, radius cos(pi d / n) inside."""
    if math.gcd(density, n) != 1:
        raise DegenerateInput("density must be coprime to n")
    outer = Conic.unit_circle()
    inner = Conic.circle(math.cos(math.pi * density / n))
    step = 2 * math.pi * density / n
    verts = [
        ProjPoint(math.cos(start_angle + k * step), math.sin(start_angle + k * step), 1)
        for k in range(n)
    ]
    return PonceletScene.assemble(outer, inner, verts, n)


def transformed_scene(scene: PonceletScene, s: ProjMap) -> PonceletScene:
    return PonceletScene(
        apply_map(s, scene.outer),
        apply_map(s, scene.inner),
        tuple(apply_map(s, p) for p in scene.vertices),
        tuple(apply_map(s, q) for q in scene.touch_points),
        scene.n,
    )
