"""Bit identity of the chain-step primitives against their earlier form.

The references below are the generator-and-key implementations that the
straight-line code in ``poncelet.projective`` replaced.  Both must do the
same floating-point operations in the same order, so results are compared
by ``repr``: signed zeros count, because they reach the JSON documents.
The one intended difference is isotropic elements such as (0, 1, 1j), on
which the earlier form raised: there the primitives must now give valid
output, checked by incidence instead of against the reference.

The synthetic walk (``run_chain``, ``chain_step``, ``closure_test``) takes
the other root of each step from the known one, where the reference walk
below solves both quadratics and keeps the farther candidate.  Its vertices
and lines must lie within ``DEFAULT.rel`` of the reference's, its closure
flags and fault classes must be the reference's, and its entry points must
agree bit for bit, also on non-real conic pairs where a second
normalization would move bits.

A real scene walks in floats.  Its vertices and lines must equal (==) the
walk stepped by hand in complex through ``_other_root``, with the same
closure residuals and the same step of a tangential contact; a scene with
one nonzero imaginary part must keep the complex bits.  Each pivot branch
of ``_other_root`` must equal the full nine-term Vieta form by value.
"""

import cmath
import math
import random
from types import SimpleNamespace

import pytest

from poncelet import (
    ClosureReport,
    Conic,
    ProjLine,
    ProjMap,
    ProjPoint,
    apply_map,
    chain_step,
    closure_test,
    concentric_scene,
    conic_contains,
    line_conic_intersect,
    run_chain,
    tangent_line_at,
    tangents_from_point,
    transformed_scene,
)
from poncelet.chains import ChainState, _walk, start_state
from poncelet.errors import (
    DegenerateInput,
    NonFiniteElement,
    PointNotOnConic,
    TangentialDegeneracy,
)
from poncelet.projective import (
    _line_base_points,
    _minor_gap,
    _normalize3,
    _other_root,
    tangency_residual,
)
from poncelet.settings import DEFAULT

from conftest import random_map


# ---------------------------------------------------------------------------
# references


def ref_finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def ref_normalize3(coords, stored=False):
    c = tuple(complex(z) for z in coords)
    if len(c) != 3:
        raise ValueError("expected 3 homogeneous coordinates")
    if not all(ref_finite(z) for z in c):
        raise NonFiniteElement(f"non-finite coordinates {c}")
    k = max(range(3), key=lambda i: abs(c[i]))
    top = c[k]
    if top == 0:
        raise NonFiniteElement("zero vector is not a projective element")
    if stored and top.real == 1.0 and abs(top.imag) <= 1e-15:
        return c
    return (c[0] / top, c[1] / top, c[2] / top)


def ref_cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def ref_dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def ref_minor_gap(u, v):
    return max(abs(z) for z in ref_cross(u, v))


def ref_line_base_points(lc):
    candidates = [ref_cross(lc, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    u = max(candidates, key=lambda c: max(abs(z) for z in c))
    un = ref_normalize3(u)
    v = ref_normalize3(ref_cross(lc, un))
    return un, v


def ref_apply(conic, p):
    a00, a01, a02, a11, a12, a22 = conic.entries
    r = ((a00, a01, a02), (a01, a11, a12), (a02, a12, a22))
    return (ref_dot(r[0], p), ref_dot(r[1], p), ref_dot(r[2], p))


def ref_qform(conic, p):
    return ref_dot(p, ref_apply(conic, p))


def ref_solve_quadratic(a, b, c):
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0:
        raise DegenerateInput("identically zero quadratic")
    disc = b * b - 4 * a * c
    tangential = abs(disc) <= (1e-9 * scale) ** 2 * 4 or abs(disc) <= 1e-12 * scale * scale
    sd = cmath.sqrt(disc)
    if abs(b + sd) < abs(b - sd):
        sd = -sd
    q = -(b + sd) / 2
    if abs(q) > 1e-300:
        return (q, a), (c, q), tangential
    if abs(a) >= abs(c):
        return (sd / 2, a), (-sd / 2, a), tangential
    return (c, -sd / 2), (c, sd / 2), tangential


def ref_line_conic_intersect(lc, conic):
    if conic.degenerate:
        raise DegenerateInput("line_conic_intersect requires a non-degenerate conic")
    u, v = ref_line_base_points(lc)
    cu = ref_apply(conic, u)
    a = ref_dot(v, ref_apply(conic, v))
    b = 2 * ref_dot(v, cu)
    c = ref_dot(u, cu)
    (t1, s1), (t2, s2), tangential = ref_solve_quadratic(a, b, c)
    p1 = ref_normalize3(tuple(s1 * ui + t1 * vi for ui, vi in zip(u, v)))
    p2 = ref_normalize3(tuple(s2 * ui + t2 * vi for ui, vi in zip(u, v)))
    return p1, p2, tangential


def ref_tangents_from_point(pc, conic):
    """The dual cut: the pencil of lines through p cut by the adjugate, as
    ``ref_line_conic_intersect`` cuts a line with the entries."""
    if conic.degenerate:
        raise DegenerateInput("tangents_from_point requires a non-degenerate conic")
    m1, m2 = ref_line_base_points(pc)
    dual = SimpleNamespace(entries=conic.adjugate_entries())
    cm = ref_apply(dual, m1)
    a = ref_dot(m2, ref_apply(dual, m2))
    b = 2 * ref_dot(m2, cm)
    c = ref_dot(m1, cm)
    (t1, s1), (t2, s2), doubled = ref_solve_quadratic(a, b, c)
    l1 = ref_normalize3(tuple(s1 * ui + t1 * vi for ui, vi in zip(m1, m2)))
    l2 = ref_normalize3(tuple(s2 * ui + t2 * vi for ui, vi in zip(m1, m2)))
    return l1, l2, doubled


def ref_walk(outer, inner, start, choice, steps):
    """(vertex, line) states of a walk built from the references
    (start_state's and chain_step's decisions)."""
    if conic_contains(outer, start) > 1e-6:
        raise PointNotOnConic("chain start must lie on the outer conic")
    t1, t2, doubled = ref_tangents_from_point(start.coords, inner)
    if doubled:
        raise TangentialDegeneracy("start point lies on the inner conic")
    point, line = start.coords, (t1, t2)[choice % 2]
    out = [(point, line)]
    for _ in range(steps):
        p1, p2, tangential = ref_line_conic_intersect(line, outer)
        if tangential:
            raise TangentialDegeneracy("chain line is tangent to the outer conic")
        d1, d2 = ref_minor_gap(p1, point), ref_minor_gap(p2, point)
        nxt = p1 if d1 >= d2 else p2
        if max(d1, d2) < 1e-9:
            raise TangentialDegeneracy("both intersection candidates coincide")
        l1, l2, doubled = ref_tangents_from_point(nxt, inner)
        if doubled:
            raise TangentialDegeneracy("next vertex lies on the inner conic")
        e1, e2 = ref_minor_gap(l1, line), ref_minor_gap(l2, line)
        if max(e1, e2) < 1e-9:
            raise TangentialDegeneracy("both tangent candidates coincide")
        point, line = nxt, (l1 if e1 >= e2 else l2)
        out.append((point, line))
    return out


def ref_run_chain(outer, inner, start, choice, steps):
    """run_chain built from the references."""
    return [point for point, _ in ref_walk(outer, inner, start, choice, steps)]


def ref_closure_test(outer, inner, start, n):
    """closure_test built from the references: first tangent, closure cut 1e-8."""
    pts = ref_run_chain(outer, inner, start, 0, n + 1)
    res_p = ref_minor_gap(pts[n], pts[0])
    res_q = ref_minor_gap(pts[n + 1], pts[1])
    return ClosureReport(n, res_p < 1e-8 and res_q < 1e-8, res_p, res_q, res_p < 1e-8 <= res_q)


# ---------------------------------------------------------------------------
# inputs


# entries of equal magnitude in several positions: the first one must lead
TIES = [
    (1, -1, 1j), (1j, 1, -1), (-1, 1j, 1), (1, 1, 1), (-1, -1, -1),
    (2, -2, 0), (0, 1j, -1j), (0, 0, -1), (1 + 1j, 1 - 1j, -1 - 1j),
    (0.6 + 0.8j, -1, 0.8 - 0.6j), (3 + 4j, -5, 5j), (-0.0, 1, -1),
]
# l.l = 0 and l x u = 0 for the first largest basis cross product u
ISOTROPIC = [(0, 1, 1j), (0, 1j, -1), (-0.0, -1, -1j), (0, -1j, 1), (0.0, 2.5, -2.5j)]
SPARSE = [0, 0.0, -0.0, 1, -1, -2.5, 0.5, 1j, -1j, 0.5 - 0.5j, -3 + 0j, complex(-0.0, 2)]


def sample_vectors(rng, count):
    out = list(TIES)
    while len(out) < count:
        kind = rng.randrange(4)
        if kind == 0:
            v = tuple(rng.uniform(-3, 3) for _ in range(3))
        elif kind == 1:
            v = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3))
        elif kind == 2:
            v = tuple(rng.choice(SPARSE) for _ in range(3))
        else:
            v = tuple(rng.choice((0, -0.0, rng.uniform(-2, 2))) for _ in range(3))
        if any(v):
            out.append(v)
    return out


def sample_conics(rng, count):
    out = [Conic.unit_circle(), Conic.circle(0.5), Conic((1, 0, 0, -1, 0, 1j))]
    while len(out) < count:
        if rng.random() < 0.5:
            entries = tuple(rng.uniform(-2, 2) for _ in range(6))
        else:
            entries = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6))
        conic = Conic(entries)
        if not conic.degenerate:
            out.append(conic)
    return out


DEGENERATE = Conic((1, 0, 0, 0, 0, 0))


def points_on(conic, rng, count=8):
    """Points of the conic, cut out by generic complex lines."""
    lines = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(count)]
    return [ProjPoint(ref_line_conic_intersect(ProjLine(l).coords, conic)[0]) for l in lines]


def outcome(fn, *args):
    """repr of the result, or the exception class raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc)


def isotropic(v):
    """The earlier form raised on this element: l x u vanished."""
    return outcome(ref_line_base_points, ref_normalize3(v)) is NonFiniteElement


def on_line(lc, pc):
    return abs(ref_dot(lc, pc)) <= 1e-12 * max(map(abs, lc)) * max(map(abs, pc))


def coords_of(result):
    a, b, flag = result
    return a.coords, b.coords, flag


@pytest.fixture(scope="module")
def vectors():
    return sample_vectors(random.Random(7), 400)


@pytest.fixture(scope="module")
def conics():
    return sample_conics(random.Random(8), 12)


# ---------------------------------------------------------------------------
# tests


class TestPrimitivesBitIdentical:
    def test_normalize3(self, vectors):
        for v in vectors:
            for stored in (False, True):
                assert repr(_normalize3(v, stored)) == repr(ref_normalize3(v, stored))
            # read back as stored: a lead of 1 + (rounding)j is kept as written
            n = ref_normalize3(v)
            assert repr(_normalize3(n, True)) == repr(ref_normalize3(n, True))

    @pytest.mark.parametrize("bad", [
        [], [1, 2], [1, 2, 3, 4], ["a", 1, 2], [None, 1, 2], [1, 2, 3, None],
        [1, 2, None, 4], [math.nan, 0, 1], [1, math.inf, 1], [1, complex(0, math.nan), 0],
        [0, 0, 0], [0j, -0.0, 0], [complex(1e308, 1e308), 1, 1], "123", "1a3",
    ])
    def test_normalize3_malformed(self, bad):
        for stored in (False, True):
            got = outcome(_normalize3, iter(bad), stored)
            assert got == outcome(ref_normalize3, iter(bad), stored)

    def test_minor_gap(self, vectors):
        normalized = [ref_normalize3(v) for v in vectors]
        pairs = list(zip(normalized, normalized[1:] + normalized[:1]))
        pairs += [(u, u) for u in normalized[:50]] + list(zip(vectors, vectors[3:]))
        for u, v in pairs:
            assert repr(_minor_gap(u, v)) == repr(ref_minor_gap(u, v))

    def test_line_base_points(self, vectors):
        for v in vectors:
            line = ProjLine(v)
            if not isotropic(v):
                assert outcome(_line_base_points, line.coords) == outcome(ref_line_base_points, line.coords)

    @pytest.mark.parametrize("v", ISOTROPIC)
    def test_line_base_points_isotropic(self, v):
        """Two independent normalized points on the line, also when l.l = 0."""
        line = ProjLine(v)
        u, w = _line_base_points(line.coords)
        assert on_line(line.coords, u) and on_line(line.coords, w)
        assert _minor_gap(u, w) > 0.5
        assert max(map(abs, u)) == 1 and max(map(abs, w)) == 1

    def test_conic_apply_and_qform(self, vectors, conics):
        for conic in conics:
            for v in vectors[:100]:
                assert repr(conic.apply(v)) == repr(ref_apply(conic, v))
                assert repr(conic.qform(v)) == repr(ref_qform(conic, v))
            for bad in [(1, 2), (1, 2, 3, 4), ("a", 1, 2), (1, None, 1), [1, 1j, -1]]:
                assert outcome(conic.apply, bad) == outcome(ref_apply, conic, bad)
                assert outcome(conic.qform, bad) == outcome(ref_qform, conic, bad)

    def test_line_conic_intersect(self, vectors, conics):
        rng = random.Random(9)
        for conic in conics + [DEGENERATE]:
            lines = [ProjLine(v) for v in vectors[:60] + ISOTROPIC]
            if not conic.degenerate:
                # tangent lines: the two intersections coincide
                lines += [tangent_line_at(conic, p) for p in points_on(conic, rng)]
            for line in lines:
                if isotropic(line.coords) and not conic.degenerate:
                    p1, p2, _ = line_conic_intersect(line, conic)
                    for p in (p1, p2):
                        assert on_line(line.coords, p.coords) and conic_contains(conic, p) < 1e-9
                    continue
                got = outcome(lambda: coords_of(line_conic_intersect(line, conic)))
                assert got == outcome(ref_line_conic_intersect, line.coords, conic)

    def test_tangents_from_point(self, vectors, conics):
        rng = random.Random(10)
        for conic in conics + [DEGENERATE]:
            points = [ProjPoint(v) for v in vectors[:60] + ISOTROPIC]
            if not conic.degenerate:
                # points on the conic: the two tangents coincide
                points += points_on(conic, rng)
            for p in points:
                if isotropic(p.coords) and not conic.degenerate:
                    l1, l2, _ = tangents_from_point(p, conic)
                    for l in (l1, l2):
                        assert on_line(l.coords, p.coords) and tangency_residual(conic, [l]) < 1e-9
                    continue
                got = outcome(lambda: coords_of(tangents_from_point(p, conic)))
                assert got == outcome(ref_tangents_from_point, p.coords, conic)


def complex_map(rng):
    """Projective map with non-real entries: it sends the scene to non-real conics."""
    while True:
        rows = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)] for _ in range(3)]
        m = ProjMap(rows)
        if abs(m.det) > 0.05:
            return m


def porism_starts(rng, n, m, count=4):
    """A projective image of the concentric n-gon scene and starts on its outer conic."""
    scene = transformed_scene(concentric_scene(n, start_angle=rng.uniform(0, 2 * math.pi)), m)
    angles = [rng.uniform(0, 2 * math.pi) for _ in range(count)]
    return scene, [apply_map(m, ProjPoint(math.cos(a), math.sin(a), 1)) for a in angles]


def walk_gap(got, want):
    """Largest minor gap between corresponding coordinate tuples."""
    assert len(got) == len(want)
    return max(_minor_gap(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", range(5, 13))
def test_run_chain_walks_bit_identical(n):
    """Porism-style walks of three wraps, by run_chain and by chain_step, on
    projective images of concentric scenes under a real and a non-real map:
    the two entry points give the same bits, and every vertex and line lies
    within DEFAULT.rel of the two-candidate reference walk.

    Non-real vertices mostly move when normalized a second time, so this
    fails if a walk normalizes what a step already normalized.
    """
    rng = random.Random(100 + n)
    moved = 0
    for m in (random_map(rng), complex_map(rng)):
        scene, starts = porism_starts(rng, n, m)
        for k, start in enumerate(starts):
            steps = 3 * n + 1
            want = ref_walk(scene.outer, scene.inner, start, k, steps)
            got = run_chain(scene.outer, scene.inner, start, k, steps=steps)
            assert walk_gap([p.coords for p in got], [point for point, _ in want]) < DEFAULT.rel
            state = start_state(scene.outer, scene.inner, start, k)
            states = [state]
            for _ in range(steps):
                state = chain_step(scene.outer, scene.inner, state)
                states.append(state)
            assert repr([s.point.coords for s in states]) == repr([p.coords for p in got])
            assert walk_gap([s.line.coords for s in states], [line for _, line in want]) < DEFAULT.rel
            moved += sum(repr(_normalize3(p.coords)) != repr(p.coords) for p in got)
    assert moved > 0


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("real", [True, False])
def test_closure_report_bit_identical(n, real):
    """ClosureReport at the period and off it: the residual floats are the
    minor gaps of run_chain's own vertices, bit for bit, and the closes and
    spurious flags are the reference's."""
    rng = random.Random(500 + n + 50 * real)
    m = random_map(rng) if real else complex_map(rng)
    scene, starts = porism_starts(rng, n, m)
    for start in starts:
        for period in (n, n + 1, 3 * n):
            got = closure_test(scene.outer, scene.inner, start, period)
            pts = [p.coords for p in run_chain(scene.outer, scene.inner, start, 0, period + 1)]
            res_p, res_q = _minor_gap(pts[period], pts[0]), _minor_gap(pts[period + 1], pts[1])
            assert repr((got.residual_p, got.residual_q)) == repr((res_p, res_q))
            want = ref_closure_test(scene.outer, scene.inner, start, period)
            assert (got.n, got.closes, got.spurious) == (want.n, want.closes, want.spurious)


def farther_first(candidates, known):
    """The two candidates, the one farther from the known element first."""
    a, b, _ = candidates
    return (a, b) if ref_minor_gap(a, known) >= ref_minor_gap(b, known) else (b, a)


def test_deflated_root_is_the_farther_candidate():
    """On projective images of concentric_scene(n), each deflated root of a
    step is the reference's farther candidate: within DEFAULT.rel of it and
    nearer to it than to the other one."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(3, 12), st.integers(0, 2**32), st.booleans())
    def check(n, seed, real):
        rng = random.Random(seed)
        m = random_map(rng) if real else complex_map(rng)
        scene, starts = porism_starts(rng, n, m, count=1)
        outer, inner = scene.outer, scene.inner
        for point, line in ref_walk(outer, inner, starts[0], seed % 2, n):
            state = ChainState(ProjPoint._of_normalized(point), ProjLine._of_normalized(line))
            _, (nxt, tangent) = _walk(outer, inner, state, 1)
            far_point, near_point = farther_first(ref_line_conic_intersect(line, outer), point)
            far_line, near_line = farther_first(ref_tangents_from_point(far_point, inner), line)
            for got, far, near in ((nxt, far_point, near_point), (tangent, far_line, near_line)):
                assert ref_minor_gap(got, far) < DEFAULT.rel
                assert ref_minor_gap(got, far) < ref_minor_gap(got, near)

    check()


def test_long_walk_stays_on_the_conics():
    """Deflation does not let the vertices drift off the outer conic or the
    lines off the inner one: 20 000 steps on a real image of a scene that
    does not close (inner radius 0.6, no rational rotation number)."""
    rng = random.Random(20)
    m = random_map(rng)
    outer, inner = apply_map(m, Conic.unit_circle()), apply_map(m, Conic.circle(0.6))
    state = start_state(outer, inner, apply_map(m, ProjPoint(1, 0, 1)))
    tail = []
    for k in range(20000):
        state = chain_step(outer, inner, state)
        if k >= 19990:
            tail.append(state)
    assert max(conic_contains(outer, s.point) for s in tail) <= 1e-12
    assert tangency_residual(inner, [s.line for s in tail]) <= 1e-12


UNIT = Conic.unit_circle()
# circle of radius 1/2 about (1/2, 1/2): the tangent y = z from (0, 1, 1)
# also touches the unit circle, at (0, 1, 1) itself
OFFSET = Conic((1, 0, -0.5, 1, -0.5, 0.25))
# circle of radius 1/2 about (1/2, 0): it passes through (1, 0, 1)
THROUGH = Conic((1, 0, -0.5, 1, 0, 0))
# circle through (0, 1, 1) and (1, 0, 1): its tangent y = x + 1 at (0, 1, 1)
# cuts the unit circle again at (-1, 0, 1), so a walk from there along it
# reaches a vertex on the inner conic
ACROSS = Conic((1, 0, -0.5, 1, -0.5, 0))

WALK_FAULTS = {
    "degenerate outer": (DEGENERATE, Conic.circle(0.5), ProjPoint(0, 1, 1), DegenerateInput),
    "degenerate inner": (UNIT, DEGENERATE, ProjPoint(0, 1, 1), DegenerateInput),
    "start on inner": (UNIT, THROUGH, ProjPoint(1, 0, 1), TangentialDegeneracy),
    "line tangent to outer": (UNIT, OFFSET, ProjPoint(0, 1, 1), TangentialDegeneracy),
    "vertex on inner": (UNIT, ACROSS, ProjPoint(-1, 0, 1), TangentialDegeneracy),
    "start off outer": (UNIT, Conic.circle(0.5), ProjPoint(2, 0, 1), PointNotOnConic),
    # ProjPoint rejects non-finite coordinates; only the trusted constructor
    # lets them reach a walk
    "nan start": (UNIT, Conic.circle(0.5),
                  ProjPoint._of_normalized((complex(math.nan), 0j, 1 + 0j)), NonFiniteElement),
    "inf start": (UNIT, Conic.circle(0.5),
                  ProjPoint._of_normalized((complex(math.inf), 0j, 1 + 0j)), NonFiniteElement),
}


@pytest.mark.parametrize("case", sorted(WALK_FAULTS))
def test_walk_faults_raise_as_reference(case):
    """run_chain and closure_test raise the exception class the references raise."""
    outer, inner, start, expected = WALK_FAULTS[case]

    def kind(fn, *args):
        try:
            fn(*args)
        except Exception as exc:
            return type(exc)
        return None

    raised = set()
    for choice in (0, 1):
        got = kind(run_chain, outer, inner, start, choice, 6)
        assert got == kind(ref_run_chain, outer, inner, start, choice, 6)
        if got is None:
            want = ref_run_chain(outer, inner, start, choice, 6)
            assert walk_gap([p.coords for p in run_chain(outer, inner, start, choice, 6)],
                            want) < DEFAULT.rel
        raised.add(got)
    got = kind(closure_test, outer, inner, start, 5)
    assert got == kind(ref_closure_test, outer, inner, start, 5)
    assert expected in raised | {got}


# ---------------------------------------------------------------------------
# real scenes walk in floats


def hand_walk(outer, inner, state, steps):
    """The kernel's loop stepped by hand in complex through ``_other_root``:
    the (vertex, line) states, and the step at which it met a tangential
    contact (None if it met none)."""
    e, a = outer.entries, inner.adjugate_entries()
    p, l = state.point.coords, state.line.coords
    states = [(p, l)]
    for k in range(1, steps + 1):
        nxt = _other_root(e, p, l)
        if _minor_gap(nxt, p) < DEFAULT.rel:
            return states, k
        line = _other_root(a, l, nxt)
        if _minor_gap(line, l) < DEFAULT.rel:
            return states, k
        p, l = nxt, line
        states.append((p, l))
    return states, None


def fault_step(walk, steps):
    """First k in 1..steps at which walk(k) raises TangentialDegeneracy, or None."""
    for k in range(1, steps + 1):
        try:
            walk(k)
        except TangentialDegeneracy:
            return k
    return None


def complex_states(outer, inner, start, choice, steps):
    """hand_walk from start_state's state, which must meet no contact."""
    states, fault = hand_walk(outer, inner, start_state(outer, inner, start, choice), steps)
    assert fault is None
    return states


def assert_entry_points_give(outer, inner, start, n, want, same):
    """run_chain, chain_step (first tangent 0, 3n + 1 steps) and closure_test
    at period n give the states ``want`` of the complex walk: coordinates
    under ``same``, closure residuals by repr."""
    got = run_chain(outer, inner, start, 0, 3 * n + 1)
    assert same([p.coords for p in got], [p for p, _ in want])
    state, states = start_state(outer, inner, start), []
    for _ in range(3 * n + 1):
        state = chain_step(outer, inner, state)
        states.append((state.point.coords, state.line.coords))
    assert same(states, want[1:])
    report = closure_test(outer, inner, start, n)
    residuals = _minor_gap(want[n][0], want[0][0]), _minor_gap(want[n + 1][0], want[1][0])
    assert repr((report.residual_p, report.residual_q)) == repr(residuals)


@pytest.mark.parametrize("n", range(5, 13))
def test_real_scenes_walk_in_floats(n):
    """On real images of concentric_scene(n) the kernel narrows to float at
    entry, and every vertex and line it gives equals (==) the walk stepped
    by hand in complex; closure residuals match by repr."""
    rng = random.Random(700 + n)
    scene, starts = porism_starts(rng, n, random_map(rng))
    outer, inner = scene.outer, scene.inner
    for k, start in enumerate(starts):
        want = complex_states(outer, inner, start, k, 3 * n + 1)
        got = _walk(outer, inner, start_state(outer, inner, start, k), 3 * n + 1)
        assert {type(z) for state in got for v in state for z in v} == {float}
        assert got == want
        want = complex_states(outer, inner, start, 0, 3 * n + 1)
        assert_entry_points_give(outer, inner, start, n, want, lambda a, b: a == b)


@pytest.mark.parametrize("where", ["outer", "inner", "start"])
def test_one_nonzero_imaginary_part_keeps_the_complex_walk(where):
    """A real scene with one entry moved off the real axis by 1e-20 stays on
    the complex path: the entry points give the hand-stepped complex walk's
    bits.  A narrowing that dropped imaginary parts below any tolerance
    would widen them back to +0.0 and fail this."""
    rng = random.Random(31)
    n = 7
    scene, (start,) = porism_starts(rng, n, random_map(rng), count=1)
    outer, inner = scene.outer, scene.inner

    def nudged(v):
        i = min(range(len(v)), key=lambda j: abs(v[j]))  # never the lead
        return v[:i] + (v[i] + 1e-20j,) + v[i + 1:]

    if where == "outer":
        outer = Conic(nudged(outer.entries), stored=True)
    elif where == "inner":
        inner = Conic(nudged(inner.entries), stored=True)
    else:
        start = ProjPoint._of_normalized(nudged(start.coords))
    want = complex_states(outer, inner, start, 0, 3 * n + 1)
    assert all(any(z.imag for z in p) for p, _ in want[1:])
    assert_entry_points_give(outer, inner, start, n, want, lambda a, b: repr(a) == repr(b))


# real scenes whose walks meet a tangential contact; from (24, -7, 25) the
# tangent of slope -1/7 to ACROSS leads to (-1, 0, 1), whose other tangent
# y = x + 1 leads to (0, 1, 1) on ACROSS at step 2
CONTACT_WALKS = {
    "line tangent to outer": (UNIT, OFFSET, ProjPoint(0, 1, 1)),
    "vertex on inner": (UNIT, ACROSS, ProjPoint(-1, 0, 1)),
    "vertex on inner at step 2": (UNIT, ACROSS, ProjPoint(24, -7, 25)),
}


@pytest.mark.parametrize("case", sorted(CONTACT_WALKS))
def test_tangential_contact_at_the_same_step(case):
    """The narrowed walk raises TangentialDegeneracy at the step where the
    hand-stepped complex walk meets the contact, on the scene and on real
    projective images of it."""
    rng = random.Random(11)
    outer, inner, start = CONTACT_WALKS[case]
    faults = set()
    for m in (None, random_map(rng), random_map(rng), random_map(rng)):
        if m is not None:
            outer, inner, start = (apply_map(m, x) for x in CONTACT_WALKS[case])
        for choice in (0, 1):
            state = start_state(outer, inner, start, choice)
            _, want = hand_walk(outer, inner, state, 6)
            assert fault_step(lambda k: run_chain(outer, inner, start, choice, k), 6) == want
            assert fault_step(lambda k: _walk(outer, inner, state, k), 6) == want
            faults.add(want)
    assert faults - {None} == {2 if case.endswith("step 2") else 1}


def full_vieta_root(e, k, m):
    """Q(d) k - 2 B(k, d) d, normalized, with every product of A d written
    out: d = m x e_j for the first largest |k_j|, zero entry included."""
    j = max(range(3), key=lambda i: abs(k[i]))
    d = ref_cross(m, tuple(float(i == j) for i in range(3)))
    c = ref_apply(SimpleNamespace(entries=e), d)
    q, b = ref_dot(d, c), 2 * ref_dot(k, c)
    return ref_normalize3(tuple(q * ki - b * di for ki, di in zip(k, d)))


# known roots k by pivot branch (the first largest |k_j|), ties included
PIVOTS = {
    0: [(1, 0.5, 0.25), (1, -1, 0.5), (1, 0.5, -1), (-1, 1, 1)],
    1: [(0.5, 1, 0.25), (0.5, 1, -1), (0.25, -1, 1)],
    2: [(0.25, 0.5, 1), (-0.5, 0.25, -1)],
}
COMPLEX_PIVOTS = {
    0: [(1j, 1, 0.5), (1, -1j, 1j), (1j, 0.5, -1)],
    1: [(0.5, 1j, -1), (0.25, -1j, 0.5)],
    2: [(0.5j, 0.25, -1j)],
}


@pytest.mark.parametrize("branch", [0, 1, 2])
@pytest.mark.parametrize("real", [True, False])
def test_other_root_branches_equal_the_full_form(branch, real):
    """Each pivot branch of ``_other_root``, which leaves out the products
    with d_j = 0, equals the full nine-term Vieta form by value, on forms
    that vanish at k and pencils through k, also where |k_j| tie."""
    rng = random.Random(branch + 10 * real)

    def draw():
        return rng.uniform(-1, 1) if real else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    roots = list(PIVOTS[branch] + ([] if real else COMPLEX_PIVOTS[branch]))
    for _ in range(20):  # random roots led by the branch's entry: |lead| > 0.64 > 0.36
        k = [0.25 * draw() for _ in range(3)]
        k[branch] = 1 + 0.5 * draw()
        roots.append(tuple(k))
    cast = float if real else complex
    for k in roots:
        k0, k1, k2 = k = tuple(map(cast, k))
        for _ in range(5):
            a01, a02, a11, a12, a22 = (draw() for _ in range(5))
            # a00 puts k on the form: Q(k) = 0 up to rounding
            a00 = -(2 * a01 * k0 * k1 + 2 * a02 * k0 * k2 + a11 * k1 * k1
                    + 2 * a12 * k1 * k2 + a22 * k2 * k2) / (k0 * k0)
            e = tuple(map(cast, (a00, a01, a02, a11, a12, a22)))
            m = tuple(map(cast, ref_cross(k, (draw(), draw(), draw()))))
            got = _other_root(e, k, m)
            assert got == full_vieta_root(e, k, m)
            assert {type(z) for z in got} == ({float} if real else {complex})
