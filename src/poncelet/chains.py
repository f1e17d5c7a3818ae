"""Poncelet chains: synthetic tangent iteration, closure tests and the
closure-polynomial solver.

Two independent engines compute the same chains.  The synthetic one walks
the conic pair geometrically (intersect the current tangent with the outer
conic, draw the other tangent to the inner one); the algebraic one iterates
the linear next-point formula on transferred line coordinates.  Closure is
always certified with a double wrap: the chain state is a (point, line)
pair, so matching the first two points again after n steps suffices, and
that second check is what rejects spurious closure-polynomial roots.

The synthetic walk is one kernel loop on coordinate tuples.  A scene whose
imaginary parts are all exactly zero (not within a tolerance) walks in
floats.  Widened back, its values are the complex walk's but for +0.0
where that gives -0.0, which documents erase by writing ``z.imag + 0.0``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DegenerateInput, PointNotOnConic, TangentialDegeneracy
from .projective import (
    Conic,
    ProjLine,
    ProjPoint,
    ProjMap,
    Vec3,
    _dot,
    _minor_gap,
    _other_root,
    _sym_apply,
    _tangent_pair,
    apply_map,
    conic_contains,
    conic_through_5_lines,
    join,
    min_separation,
    tangency_residual,
)
from .ratpoly import (
    GaussInt,
    Poly,
    PolyVec,
    _exact_div,
    _gauss_fraction,
    _hom_eval,
    _parts,
    _pv_bracket,
    _ratio_float,
    chain_next_vector,
    normalize_pair,
    poly_gcd,
    primitive,
    squarefree,
)
from .roots import isolate_roots
from .rp1 import RP1Point, StereoChart
from .settings import DEFAULT


# ---------------------------------------------------------------------------
# scene types


class ChainState(NamedTuple):
    """Current vertex plus the tangent line that led into it."""

    point: ProjPoint
    line: ProjLine


class ClosureReport(NamedTuple):
    n: int
    closes: bool
    residual_p: float  # gap between p_{n+1} and p_1
    residual_q: float  # gap between p_{n+2} and p_2
    spurious: bool     # first wrap matches, second does not

    @classmethod
    def of(cls, n: int, res_p: float, res_q: float) -> "ClosureReport":
        """Both wrap gaps judged against ``DEFAULT.closure``."""
        tol = DEFAULT.closure
        return cls(n, res_p < tol and res_q < tol, res_p, res_q, res_p < tol <= res_q)


def pole(conic: Conic, line: ProjLine) -> ProjPoint:
    """Pole of a line; for a tangent line this is the touching point."""
    return ProjPoint(_sym_apply(conic.adjugate_entries(), line.coords))


class PonceletScene(NamedTuple):
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
        tang = tangency_residual(self.inner, edges)
        touch = 0.0
        for q, e in zip(self.touch_points, edges):
            touch = max(touch, conic_contains(self.inner, q))
            touch = max(touch, abs(_dot(q.coords, e.coords)))
        return {"vertex": vert, "tangency": tang, "touch": touch}


# ---------------------------------------------------------------------------
# synthetic engine


def chain_step(outer: Conic, inner: Conic, state: ChainState) -> ChainState:
    """One Poncelet step: new vertex on the current line, new tangent there.

    Each is the other root of an involution whose one root is known (the
    current vertex on the line, the current line through the new vertex),
    taken by ``_other_root``; a root equal to the known one means the chain
    is stuck at a tangential contact.
    """
    _, (p, l) = _walk(outer, inner, state, 1)
    return ChainState(ProjPoint._of_normalized(tuple(map(complex, p))),
                      ProjLine._of_normalized(tuple(map(complex, l))))


def _walk(outer: Conic, inner: Conic, state: ChainState, steps: int) -> list[tuple[Vec3, Vec3]]:
    """The walk kernel: the (vertex, line) coordinate pairs of ``steps`` steps
    from ``state``, the start first, each normalized once; both forms and the
    state are narrowed to float once if no imaginary part is nonzero."""
    if outer.degenerate or inner.degenerate:
        raise DegenerateInput("a chain step requires non-degenerate conics")
    e, a, gap = outer.entries, inner.adjugate_entries(), DEFAULT.rel
    p, l = state.point.coords, state.line.coords
    if not any(z.imag for z in (*e, *a, *p, *l)):
        e, a, p, l = (tuple(z.real for z in v) for v in (e, a, p, l))
    out = [(p, l)]
    for _ in range(steps):
        nxt = _other_root(e, p, l)
        if _minor_gap(nxt, p) < gap:
            raise TangentialDegeneracy("chain line is tangent to the outer conic")
        line = _other_root(a, l, nxt)
        if _minor_gap(line, l) < gap:
            raise TangentialDegeneracy("next vertex lies on the inner conic")
        p, l = nxt, line
        out.append((p, l))
    return out


def start_state(
    outer: Conic, inner: Conic, start: ProjPoint, first_tangent_choice: int = 0
) -> ChainState:
    if conic_contains(outer, start) > DEFAULT.on_conic:
        raise PointNotOnConic("chain start must lie on the outer conic")
    t1, t2, doubled = _tangent_pair(start.coords, inner)
    if doubled:
        raise TangentialDegeneracy("start point lies on the inner conic")
    return ChainState(start, ProjLine._of_normalized((t1, t2)[first_tangent_choice % 2]))


def run_chain(
    outer: Conic,
    inner: Conic,
    start: ProjPoint,
    first_tangent_choice: int = 0,
    steps: int = 0,
) -> list[ProjPoint]:
    """Chain vertices p_1 .. p_{steps+1} from a start point on the outer conic."""
    walk = _walk(outer, inner, start_state(outer, inner, start, first_tangent_choice), steps)
    return [start] + [ProjPoint._of_normalized(tuple(map(complex, p))) for p, _ in walk[1:]]


def closure_test(
    outer: Conic,
    inner: Conic,
    start: ProjPoint,
    n: int,
) -> ClosureReport:
    """Double-wrap closure check of the synthetic chain (first tangent 0)."""
    pts = [p for p, _ in _walk(outer, inner, start_state(outer, inner, start), n + 1)]
    return ClosureReport.of(n, _minor_gap(pts[n], pts[0]), _minor_gap(pts[n + 1], pts[1]))


# ---------------------------------------------------------------------------
# algebraic engine (closure polynomials)


ChainValue = object  # RP1Point | int | float | Fraction | complex | GaussInt | (num, den) pair


def _exact(x: ChainValue) -> tuple[int, int, int]:
    """``_gauss_fraction(x)``: (re, im, den) in integers; a value that is not
    finite is ``DegenerateInput``."""
    try:
        return _gauss_fraction(x)
    except (OverflowError, ValueError):
        raise DegenerateInput(f"chain value {x!r} is not finite") from None


def _known_vector(p: ChainValue) -> PolyVec:
    """A known point (an RP1Point, a pair (a, b), or x meaning (x, 1)) as a
    constant pair over Z or Z[i]: with a = (ar + i*ai)/ad, b = (br + i*bi)/bd
    it is (ar*bd + i*ai*bd, br*ad + i*bi*ad), a ``GaussInt`` only where the
    imaginary part is nonzero."""
    a, b = p.coords if isinstance(p, RP1Point) else p if isinstance(p, tuple) else (p, 1)
    (ar, ai, ad), (br, bi, bd) = _exact(a), _exact(b)
    return (Poly([GaussInt(ar * bd, ai * bd) if ai else ar * bd]),
            Poly([GaussInt(br * ad, bi * ad) if bi else br * ad]))


class ClosureSystem(NamedTuple):
    """Symbolic chain data for five fixed points and one unknown slot, each
    known point entering as a reduced integer pair: every coefficient of
    every vector, form and polynomial is an int or a ``GaussInt``."""

    n: int
    vectors: tuple[PolyVec, ...]  # chain points p_1 .. p_{n+2} as reduced pairs
    polynomial: Poly              # reduced numerator of the first-wrap condition
    second_wrap: Poly             # reduced numerator of the second-wrap condition
    genuine: Poly                 # gcd of the two wraps: exactly the genuine roots
    wraps: tuple                  # int_form of p_{n+1}, p_1, then of p_{n+2}, p_2

    def wrap_residuals(self, x) -> tuple[float, float]:
        """Both wrap gaps of the chain at a candidate root, in exact arithmetic.

        ``x`` may be an int, Fraction, Gaussian integer, a float or complex
        (taken exactly), or a homogeneous pair (num, den) with an int den,
        the form ``exact_newton`` returns.  Exact evaluation means a
        spurious root can never masquerade as closing through float
        cancellation.
        """
        xr, xi, w = _exact(x)
        return tuple(_wrap_gap(*(_hom_eval(f, xr, xi, w) for f in forms)) for forms in self.wraps)


def _wrap_gap(a, b, c, d) -> float:
    """Gap between the chain points (a : b) and (c : d), each an exact (re, im, den);
    past the float range each pair is divided by about its larger magnitude, a
    power of two, which leaves the gap as it is."""
    (ar, ai, ad), (br, bi, bd), (cr, ci, cd), (dr, di, dd) = a, b, c, d
    # a*d - b*c over the common denominator ad*bd*cd*dd, never reduced, the
    # power of two 2^z that s and t share divided out before the products
    s, t = bd * cd, ad * dd
    z = ((s | t) & -(s | t)).bit_length() - 1
    s, t = s >> z, t >> z
    det_r = (ar * dr - ai * di) * s - (br * cr - bi * ci) * t
    det_i = (ar * di + ai * dr) * s - (br * ci + bi * cr) * t
    tops = (max(0, *(max(re.bit_length(), im.bit_length()) - den.bit_length()
                     for re, im, den in pair)) for pair in ((a, b), (c, d)))
    for e, f in ((0, 0), tops):
        scale = max(_mag(ar, ai, ad << e), _mag(br, bi, bd << e)) * max(
            _mag(cr, ci, cd << f), _mag(dr, di, dd << f))
        det = _mag(det_r, det_i, s * t << z + e + f)
        if max(det, scale) < math.inf:
            break
    return det / max(scale, DEFAULT.floor)


def _value(re: int, im: int, den: int) -> complex:
    """(re + i*im) / den, each part rounded correctly from the exact value."""
    return complex(_ratio_float(re, den), _ratio_float(im, den))


def _mag(re: int, im: int, den: int) -> float:
    """|re + i*im| / den, from the correctly rounded parts."""
    return abs(_value(re, im, den))


def closure_system(
    points5: Sequence[ChainValue], n: int, var_slot: int = 5
) -> ClosureSystem:
    """Build the symbolic chain for points 1..6 with one unknown coordinate.

    ``points5`` are the five known points in chain order with the unknown
    removed; ``var_slot`` is the 0-based position of the unknown among the
    first six chain points.  Each known point becomes a reduced integer
    pair once, by ``_known_vector``; the unknown is the pair (x, 1).
    """
    if n < 6:
        raise DegenerateInput("closure polynomials need n >= 6")
    if len(points5) != 5:
        raise ValueError("expected exactly five known points")
    if not 0 <= var_slot <= 5:
        raise ValueError(f"var_slot must be in 0..5, not {var_slot}")
    known = [normalize_pair(*_known_vector(p)) for p in points5]
    # distinctness of the known points, checked exactly on their scalar pairs
    consts = [(a.c[0] if a.c else 0, b.c[0] if b.c else 0) for a, b in known]
    for i, (a, b) in enumerate(consts):
        if any(not (a * d - b * c) for c, d in consts[i + 1:]):
            raise DegenerateInput("known chain points must be pairwise distinct")
    work = known[:var_slot] + [(Poly([0, 1]), Poly([1]))] + known[var_slot:]
    # brackets of neighbouring points, each formed once and carried into four steps
    seams = list(map(_pv_bracket, work[1:4], work[2:5]))
    while len(work) < n + 2:
        seams.append(_pv_bracket(work[-2], work[-1]))
        work.append(chain_next_vector(work[-6:], seams[-4:]))
    closing = _pv_bracket(work[n], work[0])
    second = _pv_bracket(work[n + 1], work[1])
    if closing.is_zero() or second.is_zero():
        raise DegenerateInput("closure condition vanished identically")
    # a common root forces both chain states to repeat, hence true closure;
    # the reduced vector pairs are coprime, so no zero-vector false positives
    wraps = tuple(tuple(p.int_form() for i in ij for p in work[i]) for ij in ((n, 0), (n + 1, 1)))
    return ClosureSystem(
        n, tuple(work), primitive(closing), primitive(second), poly_gcd(closing, second), wraps
    )


def closure_polynomial(points5: Sequence[ChainValue], n: int) -> Poly:
    """Reduced closure polynomial for point 6, given points 1..5 and period n.

    Integer (or Gaussian-integer) coefficients in the canonical primitive
    form of ``primitive``; its roots contain every genuine position of point 6.
    Pass ints/Fractions (not pre-normalized RP1 points) to keep the
    coefficients exact.
    """
    return closure_system(points5, n).polynomial


class ClosureRoot(NamedTuple):
    value: complex
    residual_p: float
    residual_q: float
    accepted: bool
    radius: float  # the disc around value holds this root and no other of its part


def closure_roots(points5: Sequence[ChainValue], n: int) -> list[ClosureRoot]:
    """Every distinct closure-polynomial root, two-wrap filtered.

    The polynomial splits exactly into two square-free parts with no common
    root: the genuine part h = g / gcd(g, g') of the gcd g of both wrap
    polynomials, whose degree is ``count_solutions``, and the spurious part,
    the square-free part of polynomial / g with the roots of h divided out.
    ``roots.isolate_roots`` finds the roots of each and certifies each one
    by a disc that holds no other root of its part.  A root is accepted
    when both wrap gaps, evaluated exactly at the disc's centre, are below
    ``DEFAULT.closure``.
    """
    system = closure_system(points5, n)
    genuine = squarefree(system.genuine)
    spurious = squarefree(_exact_div(system.polynomial, system.genuine))
    if genuine.degree > 0 and spurious.degree > 0:
        spurious = _exact_div(spurious, poly_gcd(spurious, genuine))
    # on a real system a root's mirror (xr, -xi) has its residuals, conjugated
    real = not any(zi for forms in system.wraps for f in forms for _, zi in f)
    out, seen = [], {}
    for part in (genuine, spurious):
        for root in isolate_roots(part):
            xr, xi = _parts(root.x[0])
            res = seen[xr, xi] = real and seen.get((xr, -xi)) or system.wrap_residuals(root.x)
            out.append(ClosureRoot(root.value, *res, ClosureReport.of(n, *res).closes, root.radius))
    out.sort(key=lambda r: (r.value.real, r.value.imag))
    return out


def count_solutions(points5: Sequence[ChainValue], n: int) -> int:
    """Number of genuine positions of point 6 closing the chain at period n.

    Counted algebraically: distinct roots of the gcd of the two wrap
    polynomials, which realizes the double-wrap filter in exact arithmetic
    (robust even when genuine and spurious roots cluster).
    """
    return squarefree(closure_system(points5, n).genuine).degree


def algebraic_closure_report(
    points5: Sequence[ChainValue], x6, n: int
) -> ClosureReport:
    """Two-wrap closure report for a concrete sixth point, via the symbolic chain.

    Evaluating the reduced symbolic vectors keeps the chain meaningful even
    at candidates where the pointwise iteration hits a removable 0/0 (the
    hallmark of spurious roots).
    """
    x = x6.value() if isinstance(x6, RP1Point) else x6
    return ClosureReport.of(n, *closure_system(points5, n).wrap_residuals(x))


def chain_values(
    points5: Sequence[ChainValue], x6, n_points: int
) -> list[RP1Point]:
    """First ``n_points`` chain points for a concrete sixth value (symbolic path)."""
    system = closure_system(points5, max(6, n_points - 2))
    x = _exact(x6.value() if isinstance(x6, RP1Point) else x6)
    return [RP1Point(*(_value(*_hom_eval(p.int_form(), *x)) for p in v))
            for v in system.vectors[:n_points]]


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
    if min_separation(lifted) < 1e-10:
        raise DegenerateInput("lifted chain points are not distinct")
    edges = [join(lifted[i], lifted[i + 1]) for i in range(5)]
    try:
        inner = conic_through_5_lines(edges)
    except Exception as exc:
        raise DegenerateInput(f"inner conic fit failed: {exc}") from exc
    if tangency_residual(inner, edges) > 1e-7:
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
