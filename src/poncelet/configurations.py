"""Incidence configurations: ring operators, the (21_4) built from a
Poncelet heptagon, the (3n_4) family extracted from iterated chains, and
generic (N_4) verification.

An (N_4) configuration is N points and N lines with exactly 4 points on
every line and 4 lines through every point.  Membership is decided by a
thresholded scaled incidence residual; the threshold is looser than the
core geometric tolerance because configuration coordinates compound many
construction steps.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .constructions import ChainConstruction
from .errors import (
    CoincidentElements,
    ConstructionDegeneracy,
    DegenerateInput,
    NotClosed,
)
from .projective import (
    ProjLine,
    ProjPoint,
    _dot,
    conic_contains,
    conic_fit,
    conic_fit_lines,
    join,
    meet,
    proj_distance,
    tangency_residual,
)
from .settings import DEFAULT


class PointRing:
    """Cyclically ordered points; indices are taken modulo the period."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[ProjPoint, ...]):
        if not points:
            raise ValueError("empty ring")
        self.points = points

    @property
    def n(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> ProjPoint:
        return self.points[i % self.n]


class LineRing:
    __slots__ = ("lines",)

    def __init__(self, lines: tuple[ProjLine, ...]):
        if not lines:
            raise ValueError("empty ring")
        self.lines = lines

    @property
    def n(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int) -> ProjLine:
        return self.lines[i % self.n]


def ring_join(ring: PointRing, a: int) -> LineRing:
    """Line ring with i-th line joining point i to point i+a."""
    if a % ring.n == 0:
        raise CoincidentElements("join offset is 0 mod n: every join degenerates")
    return LineRing(tuple(join(ring[i], ring[i + a]) for i in range(ring.n)))


def ring_meet(ring: LineRing, b: int) -> PointRing:
    """Point ring with i-th point the meet of line i and line i-b."""
    if b % ring.n == 0:
        raise CoincidentElements("meet offset is 0 mod n: every meet degenerates")
    return PointRing(tuple(meet(ring[i], ring[i - b]) for i in range(ring.n)))


# ---------------------------------------------------------------------------
# incidence configurations


class IncidenceConfiguration(NamedTuple):
    points: list[ProjPoint]
    lines: list[ProjLine]
    incidence: tuple[tuple[bool, ...], ...]  # one row per point, one column per line
    threshold: float
    point_labels: Sequence[str] = ()
    line_labels: Sequence[str] = ()

    def point_degrees(self) -> list[int]:
        return [sum(row) for row in self.incidence]

    def line_degrees(self) -> list[int]:
        return [sum(row[j] for row in self.incidence) for j in range(len(self.lines))]


def incidence_configuration(
    points: Sequence[ProjPoint],
    lines: Sequence[ProjLine],
    threshold: float | None = None,
    point_labels: Sequence[str] | None = None,
    line_labels: Sequence[str] | None = None,
) -> IncidenceConfiguration:
    threshold = DEFAULT.incidence if threshold is None else threshold
    incidence = tuple(
        tuple(abs(_dot(p.coords, l.coords)) < threshold for l in lines)
        for p in points
    )
    return IncidenceConfiguration(
        list(points),
        list(lines),
        incidence,
        threshold,
        list(point_labels or [f"p{i}" for i in range(len(points))]),
        list(line_labels or [f"l{j}" for j in range(len(lines))]),
    )


class N4Report(NamedTuple):
    passed: bool
    n_points: int
    n_lines: int
    point_degree_histogram: dict[int, int]
    line_degree_histogram: dict[int, int]
    violations: list[str]


def verify_n4(cfg: IncidenceConfiguration) -> N4Report:
    """Check the (N_4) conditions: equal counts, every degree exactly 4."""
    violations: list[str] = []
    if not cfg.points or not cfg.lines:
        return N4Report(False, len(cfg.points), len(cfg.lines), {}, {}, ["empty configuration"])
    pd = cfg.point_degrees()
    ld = cfg.line_degrees()
    if len(cfg.points) != len(cfg.lines):
        violations.append(f"point count {len(cfg.points)} != line count {len(cfg.lines)}")
    for i, d in enumerate(pd):
        if d != 4:
            violations.append(f"point {cfg.point_labels[i]} has degree {d}")
    for j, d in enumerate(ld):
        if d != 4:
            violations.append(f"line {cfg.line_labels[j]} has degree {d}")
    hist_p: dict[int, int] = {}
    for d in pd:
        hist_p[d] = hist_p.get(d, 0) + 1
    hist_l: dict[int, int] = {}
    for d in ld:
        hist_l[d] = hist_l.get(d, 0) + 1
    return N4Report(not violations, len(cfg.points), len(cfg.lines), hist_p, hist_l, violations)


# ---------------------------------------------------------------------------
# Gruenbaum-Rigby (21_4) from a Poncelet heptagon


def grunbaum_rigby(ring: PointRing) -> tuple[IncidenceConfiguration, float]:
    """Apply the operator word meet3 join1 meet2 join3 meet1 join2.

    For a Poncelet heptagon the final point ring reproduces the original
    one; the returned residual is the largest gap between them.  The three
    intermediate point rings and three line rings assemble into the
    (21_4) configuration.
    """
    if ring.n != 7:
        raise DegenerateInput("the (21_4) construction needs a ring of period 7")
    try:
        l1 = ring_join(ring, 2)
        p1 = ring_meet(l1, 1)
        l2 = ring_join(p1, 3)
        p2 = ring_meet(l2, 2)
        l3 = ring_join(p2, 1)
        p_final = ring_meet(l3, 3)
    except (CoincidentElements, DegenerateInput) as exc:
        raise ConstructionDegeneracy(f"operator word degenerated: {exc}") from exc
    residual = max(proj_distance(ring[i], p_final[i]) for i in range(7))
    points = list(ring.points) + list(p1.points) + list(p2.points)
    lines = list(l1.lines) + list(l2.lines) + list(l3.lines)
    labels_p = (
        [f"outer{i}" for i in range(7)]
        + [f"middle{i}" for i in range(7)]
        + [f"inner{i}" for i in range(7)]
    )
    labels_l = (
        [f"chord2_{i}" for i in range(7)]
        + [f"chord3_{i}" for i in range(7)]
        + [f"chord1_{i}" for i in range(7)]
    )
    cfg = incidence_configuration(points, lines, DEFAULT.incidence, labels_p, labels_l)
    return cfg, residual


# ---------------------------------------------------------------------------
# (3n_4) from an iterated chain


class ChainConfigColors(NamedTuple):
    """Color classes of the chain-trace configuration."""

    chain_points: tuple[ProjPoint, ...]
    green_points: tuple[ProjPoint, ...]
    blue_points: tuple[ProjPoint, ...]
    edge_lines: tuple[ProjLine, ...]
    diagonal_lines: tuple[ProjLine, ...]
    pivot_lines: tuple[ProjLine, ...]


def config_from_chain_trace(
    chain: ChainConstruction,
) -> tuple[IncidenceConfiguration, ChainConfigColors]:
    """(3n_4) configuration of a closed chain iteration.

    Uses the closed ring of chain points: edges i(i+1), skip-3 diagonals
    i(i+3), blue pivots B_i on consecutive-edge pairs, green pivots G_i on
    diagonal pairs, and the pivot lines carrying G_i, B_i, G_{i+1}, B_{i+3}.
    """
    n = chain.closed_period
    if n is None:
        raise NotClosed("chain iteration did not close; no configuration")
    if n < 7:
        raise DegenerateInput("(3n_4) extraction needs period n >= 7")
    pts = chain.points[:n]
    edges = [join(pts[i], pts[(i + 1) % n]) for i in range(n)]
    diags = [join(pts[i], pts[(i + 3) % n]) for i in range(n)]
    blues = [meet(edges[(i - 2) % n], edges[i]) for i in range(n)]
    greens = [meet(diags[(i - 2) % n], diags[i]) for i in range(n)]
    pivots = [join(greens[i], blues[i]) for i in range(n)]
    points = pts + greens + blues
    lines = edges + diags + pivots
    labels_p = (
        [f"chain{i + 1}" for i in range(n)]
        + [f"G{i + 1}" for i in range(n)]
        + [f"B{i + 1}" for i in range(n)]
    )
    labels_l = (
        [f"edge{i + 1}" for i in range(n)]
        + [f"diag{i + 1}" for i in range(n)]
        + [f"pivot{i + 1}" for i in range(n)]
    )
    cfg = incidence_configuration(points, lines, DEFAULT.incidence, labels_p, labels_l)
    colors = ChainConfigColors(
        tuple(pts), tuple(greens), tuple(blues),
        tuple(edges), tuple(diags), tuple(pivots),
    )
    return cfg, colors


def color_structure_report(colors: ChainConfigColors) -> dict[str, float]:
    """Residuals of the color-class conic structure.

    Points of each color lie on their own conic; lines of each color are
    tangent to their own conic.  Values are worst-case scaled residuals.
    """
    out: dict[str, float] = {}
    for name, pts in (
        ("chain_conconic", colors.chain_points),
        ("green_conconic", colors.green_points),
        ("blue_conconic", colors.blue_points),
    ):
        conic = conic_fit(list(pts))
        out[name] = max(conic_contains(conic, p) for p in pts)
    for name, lines in (
        ("edge_tangent", colors.edge_lines),
        ("diagonal_tangent", colors.diagonal_lines),
        ("pivot_tangent", colors.pivot_lines),
    ):
        out[name] = tangency_residual(conic_fit_lines(list(lines)), lines)
    return out


# ---------------------------------------------------------------------------
# bipartite canonical form (isomorphism certificates)


def canonical_certificate(cfg: IncidenceConfiguration) -> bytes:
    """Canonical form of the bipartite incidence structure.

    Two configurations get equal certificates iff their incidence matrices
    agree up to independent relabeling of points and lines.  The search is
    colour refinement plus individualization, as in nauty: every leaf is a
    discrete colouring, read out as the incidence matrix with points and
    lines sorted by colour, and the certificate is the least such matrix.
    Two leaves with equal matrices give an automorphism of the incidence
    graph (points to points, lines to lines).  A node skips every child in
    the orbit of an explored sibling under the automorphisms found so far
    that fix the node's individualized vertices, since the two subtrees hold
    the same matrices.  The bytes are those of the unpruned search over
    every leaf.
    """
    m, k = len(cfg.points), len(cfg.lines)
    rows = cfg.incidence
    adj = [tuple(m + j for j, on in enumerate(row) if on) for row in rows]
    adj += [tuple(i for i, row in enumerate(rows) if row[j]) for j in range(k)]
    total = m + k

    def refine(colors: list[int]) -> list[int]:
        while True:
            signatures = [
                (colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(total)
            ]
            palette = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
            new = [palette[sig] for sig in signatures]
            if new == colors:
                return new
            colors = new

    def matrix_string(order: list[int]) -> bytes:
        lns = [l - m for l in order[m:]]
        bits = bytearray()
        for i in order[:m]:
            row = 0
            for j in lns:
                row = (row << 1) | rows[i][j]
            bits.extend(row.to_bytes((k + 7) // 8, "big"))
        return bytes(bits)

    first: tuple[bytes, list[int]] | None = None
    best: tuple[bytes, list[int]] | None = None
    # vertex maps between the orders of two leaves with equal matrices
    automorphisms: list[dict[int, int]] = []

    def leaf(colors: list[int]) -> None:
        nonlocal first, best
        order = sorted(range(m), key=colors.__getitem__)
        order += sorted(range(m, total), key=colors.__getitem__)
        s = matrix_string(order)
        if first is None:
            first = best = (s, order)
            return
        if s == first[0]:
            automorphisms.append(dict(zip(first[1], order)))
        if s < best[0]:
            best = (s, order)
        elif s == best[0] and best is not first:
            automorphisms.append(dict(zip(best[1], order)))

    def pruned(v: int, explored: list[int], path: tuple[int, ...]) -> bool:
        """Whether v is in the orbit of an explored sibling under the
        automorphisms found so far that fix the path pointwise."""
        gens = [g for g in automorphisms if all(g[u] == u for u in path)]
        orbit, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for g in gens:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    stack.append(g[x])
        return not orbit.isdisjoint(explored)

    def search(colors: list[int], path: tuple[int, ...]) -> None:
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            leaf(colors)
            return
        fresh = max(colors) + 1
        explored: list[int] = []
        for v in target:
            if explored and pruned(v, explored, path):
                continue
            branch = list(colors)
            branch[v] = fresh
            search(branch, path + (v,))
            explored.append(v)

    search([0] * m + [1] * k, ())
    assert best is not None
    return m.to_bytes(2, "big") + k.to_bytes(2, "big") + best[0]
