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

from collections import Counter
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


class _Ring:
    """Cyclically ordered elements; indices are taken modulo the period."""

    __slots__ = ("_items", "n")

    def __init__(self, items: tuple):
        if not items:
            raise ValueError("empty ring")
        self._items, self.n = items, len(items)

    def __getitem__(self, i: int):
        return self._items[i % self.n]


class PointRing(_Ring):
    __slots__ = ()
    points = property(lambda self: self._items)


class LineRing(_Ring):
    __slots__ = ()
    lines = property(lambda self: self._items)


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
    return N4Report(not violations, len(cfg.points), len(cfg.lines),
                    dict(Counter(pd)), dict(Counter(ld)), violations)


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
    labels_p = [f"{name}{i}" for name in ("outer", "middle", "inner") for i in range(7)]
    labels_l = [f"{name}_{i}" for name in ("chord2", "chord3", "chord1") for i in range(7)]
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
    labels_p = [f"{color}{i + 1}" for color in ("chain", "G", "B") for i in range(n)]
    labels_l = [f"{color}{i + 1}" for color in ("edge", "diag", "pivot") for i in range(n)]
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
    splitter refinement plus individualization, as in nauty and Traces.  The
    ordered partition is ``lab`` (the vertices cell by cell), ``cell[v]``
    (the first position of v's cell) and ``size[c]``; a queued splitter
    counts its neighbours, and each cell it touches splits into fragments
    ordered by count, an order invariant under relabelling.  A leaf is a
    discrete partition, read out as the incidence matrix in ``lab`` order;
    the certificate is the least such matrix.  Two leaves with equal
    matrices give an automorphism.  A node skips every child in the orbit of
    an explored sibling under the automorphisms found so far that fix the
    node's path, and a leaf equal to the first leaf unwinds the search to
    where its path left the first path: the skipped subtrees are images of
    explored ones.  The bytes are those of the unpruned search.
    """
    m, k = len(cfg.points), len(cfg.lines)
    rows = cfg.incidence
    adj = [tuple(m + j for j, on in enumerate(row) if on) for row in rows]
    adj += [tuple(i for i, row in enumerate(rows) if row[j]) for j in range(k)]
    total = m + k
    count = [0] * total

    def refine(lab: list[int], cell: list[int], size: list[int], queue: list[int]) -> None:
        queued, cells = set(queue), len(set(cell))
        while queue and cells < total:  # a discrete partition splits no further
            w = queue.pop(0)
            queued.discard(w)
            hit = []
            for x in lab[w:w + size[w]]:
                for u in adj[x]:
                    if not count[u]:
                        hit.append(u)
                    count[u] += 1
            for c in sorted({cell[u] for u in hit}):
                end = c + size[c]
                seg = sorted(lab[c:end], key=count.__getitem__)
                if count[seg[0]] == count[seg[-1]]:
                    continue
                lab[c:end] = seg
                frags = [p for p in range(c, end) if p == c or count[lab[p]] != count[lab[p - 1]]]
                for f, g in zip(frags, frags[1:] + [end]):
                    size[f] = g - f
                    for x in lab[f:g]:
                        cell[x] = f
                cells += len(frags) - 1
                if c not in queued:  # Hopcroft: the largest is implied by the rest
                    frags.remove(max(frags, key=size.__getitem__))
                for f in frags:
                    if f not in queued:
                        queue.append(f)
                        queued.add(f)
            for u in hit:
                count[u] = 0

    def matrix(lab: list[int]) -> tuple[int, ...]:
        bit = [0] * total
        for p in range(m, total):
            bit[lab[p]] = 1 << (total - 1 - p)
        return tuple(sum(bit[j] for j in adj[i]) for i in lab[:m])

    # the first leaf and the least leaf so far, each as (matrix, lab, path)
    kept: list[tuple[tuple[int, ...], list[int], tuple[int, ...]]] = []
    # vertex maps between two leaves with equal matrices
    automorphisms: list[dict[int, int]] = []

    def leaf(lab: list[int], path: tuple[int, ...]) -> int:
        """Record the leaf; return the depth the search unwinds to."""
        mat = matrix(lab)
        if not kept:
            kept.extend([(mat, lab, path)] * 2)
        elif mat == kept[0][0]:
            automorphisms.append(dict(zip(kept[0][1], lab)))
            return next(d for d, (u, w) in enumerate(zip(path, kept[0][2])) if u != w)
        elif mat < kept[1][0]:
            kept[1] = (mat, lab, path)
        elif mat == kept[1][0]:
            automorphisms.append(dict(zip(kept[1][1], lab)))
        return len(path)

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

    def search(lab: list[int], cell: list[int], size: list[int], queue: list[int],
               path: tuple[int, ...]) -> int:
        """Explore the node; return the depth the search unwinds to."""
        refine(lab, cell, size, queue)
        c = 0
        while c < total and size[c] == 1:
            c += 1
        if c == total:
            return leaf(lab, path)
        depth, s = len(path), size[c]
        explored: list[int] = []
        for v in lab[c:c + s]:
            if explored and pruned(v, explored, path):
                continue
            # individualize v: a singleton at the front of its cell
            sub, sub_cell, sub_size = list(lab), list(cell), list(size)
            i = sub.index(v, c)
            sub[c], sub[i] = v, sub[c]
            sub_size[c], sub_size[c + 1] = 1, s - 1
            for x in sub[c + 1:c + s]:
                sub_cell[x] = c + 1
            back = search(sub, sub_cell, sub_size, [c], path + (v,))
            if back < depth:
                return back
            explored.append(v)
        return depth

    search(list(range(total)), [0] * m + [m] * k, [m] * m + [k] * k, [0, m] if m and k else [0], ())
    width = (k + 7) // 8
    return m.to_bytes(2, "big") + k.to_bytes(2, "big") + b"".join(
        row.to_bytes(width, "big") for row in kept[1][0])
