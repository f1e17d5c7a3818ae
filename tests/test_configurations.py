"""Ring operators, the (21_4), chain-trace (3n_4) and generic verification."""

import math
import random
import timeit
from collections import Counter
from functools import lru_cache
from itertools import accumulate

import pytest

from poncelet import (
    IncidenceConfiguration,
    PointRing,
    ProjLine,
    ProjPoint,
    apply_map,
    canonical_certificate,
    chain_iterate_joinmeet,
    color_structure_report,
    config_from_chain_trace,
    conic_fit,
    complete_heptagon,
    concentric_scene,
    construct_heptagon_p6,
    grunbaum_rigby,
    incidence_configuration,
    ring_join,
    ring_meet,
    verify_n4,
)
from poncelet.errors import CoincidentElements, DegenerateInput, NotClosed

from conftest import proper, random_closing_scene, random_map, ring_points


def regular_heptagon(start=0.0):
    return PointRing(tuple(
        ProjPoint(math.cos(start + 2 * math.pi * k / 7),
                  math.sin(start + 2 * math.pi * k / 7), 1)
        for k in range(7)
    ))


def constructed_heptagon(rng):
    while True:
        pts = ring_points(rng, 5)
        try:
            p6, _ = construct_heptagon_p6(pts, 0)
            p7 = complete_heptagon(pts + [p6])
        except Exception:
            continue
        seven = pts + [p6, p7]
        if proper(seven):
            return PointRing(tuple(seven))


class TestRingOperators:
    def test_join_ring_is_star_chords(self):
        ring = regular_heptagon()
        chords = ring_join(ring, 2)
        # independent trig formula for the chord of a unit circle
        for k in range(7):
            a = 2 * math.pi * k / 7
            b = 2 * math.pi * (k + 2) / 7
            mid, half = (a + b) / 2, (b - a) / 2
            expected = ProjLine(math.cos(mid), math.sin(mid), -math.cos(half))
            assert chords[k].is_same(expected, 1e-10)

    def test_join_zero_offset_rejected(self):
        ring = regular_heptagon()
        with pytest.raises(CoincidentElements):
            ring_join(ring, 7)

    def test_meet_ring_inner_heptagon(self):
        ring = regular_heptagon()
        inner = ring_meet(ring_join(ring, 2), 2)
        # rotational symmetry: equal radii, equally spaced angles
        radii = []
        angles = []
        for p in inner.points:
            x, y, z = (c.real for c in p.coords)
            radii.append(math.hypot(x / z, y / z))
            angles.append(math.atan2(y / z, x / z) % (2 * math.pi))
        assert max(radii) - min(radii) < 1e-10
        angles.sort()
        gaps = [(angles[(i + 1) % 7] - angles[i]) % (2 * math.pi) for i in range(7)]
        assert max(gaps) - min(gaps) < 1e-9

    def test_meet_zero_offset_rejected(self):
        ring = regular_heptagon()
        with pytest.raises(CoincidentElements):
            ring_meet(ring_join(ring, 2), 0)

    def test_rotation_equivariance(self):
        ring = regular_heptagon()
        rot = PointRing(ring.points[1:] + ring.points[:1])
        a = ring_join(ring, 2)
        b = ring_join(rot, 2)
        for i in range(7):
            assert b[i].is_same(a[i + 1], 1e-10)

    def test_duality_roundtrip_incidence(self, rng):
        ring = PointRing(tuple(ring_points(rng, 7)))
        lines = ring_join(ring, 2)
        back = ring_meet(lines, 2)
        for i in range(7):
            # each returned point sits on two of the original lines
            v = sum(a * b for a, b in zip(back[i].coords, lines[i].coords))
            w = sum(a * b for a, b in zip(back[i].coords, lines[i - 2].coords))
            assert abs(v) < 1e-9 and abs(w) < 1e-9


class TestGrunbaumRigby:
    def test_regular_heptagon_is_fixed(self):
        cfg, residual = grunbaum_rigby(regular_heptagon())
        assert residual < 1e-10
        rep = verify_n4(cfg)
        assert rep.passed
        assert rep.n_points == 21 and rep.n_lines == 21
        assert rep.point_degree_histogram == {4: 21}

    def test_constructed_heptagon_is_fixed(self, rng):
        ring = constructed_heptagon(rng)
        cfg, residual = grunbaum_rigby(ring)
        assert residual < 1e-8
        assert verify_n4(cfg).passed

    def test_generic_points_fail(self, rng):
        ring = PointRing(tuple(ring_points(rng, 7)))
        cfg, residual = grunbaum_rigby(ring)
        assert residual > 1e-3
        assert not verify_n4(cfg).passed

    def test_wrong_period_rejected(self, rng):
        with pytest.raises(DegenerateInput):
            grunbaum_rigby(PointRing(tuple(ring_points(rng, 6))))

    def test_verdict_invariant_under_maps(self, rng):
        ring = constructed_heptagon(rng)
        cfg, _ = grunbaum_rigby(ring)
        assert verify_n4(cfg).passed
        for _ in range(3):
            s = random_map(rng)
            mapped = PointRing(tuple(apply_map(s, p) for p in ring.points))
            cfg2, res2 = grunbaum_rigby(mapped)
            assert res2 < 1e-6
            assert verify_n4(cfg2).passed


class TestChainTraceConfig:
    def heptagon_chain(self, rng):
        ring = constructed_heptagon(rng)
        conic = conic_fit(list(ring.points))
        return chain_iterate_joinmeet(list(ring.points)[:6], conic, 8)

    def test_heptagon_gives_21_4(self, rng):
        chain = self.heptagon_chain(rng)
        assert chain.closed_period == 7
        cfg, colors = config_from_chain_trace(chain)
        rep = verify_n4(cfg)
        assert rep.passed and rep.n_points == 21

    def test_color_structure(self, rng):
        chain = self.heptagon_chain(rng)
        _, colors = config_from_chain_trace(chain)
        report = color_structure_report(colors)
        assert all(v < 1e-8 for v in report.values()), report

    def test_open_chain_rejected(self, rng):
        from poncelet import Conic
        from conftest import circle_points

        pts = circle_points(rng, 6, minsep=0.3)
        chain = chain_iterate_joinmeet(pts, Conic.unit_circle(), 10)
        assert chain.closed_period is None
        with pytest.raises(NotClosed):
            config_from_chain_trace(chain)


class TestVerifyN4:
    def test_deleting_point_leaves_4_deficient_lines(self, rng):
        cfg, _ = grunbaum_rigby(constructed_heptagon(rng))
        smaller = incidence_configuration(
            cfg.points[1:], cfg.lines, cfg.threshold,
            cfg.point_labels[1:], cfg.line_labels,
        )
        rep = verify_n4(smaller)
        assert not rep.passed
        deficient = [v for v in rep.violations if "degree 3" in v]
        assert len(deficient) == 4

    def test_empty_configuration_fails(self):
        cfg = incidence_configuration([], [])
        rep = verify_n4(cfg)
        assert not rep.passed
        assert rep.violations == ["empty configuration"]


class TestCanonicalCertificate:
    def test_gr_isomorphic_across_realizations(self, rng):
        cfg_reg, _ = grunbaum_rigby(regular_heptagon())
        cfg_con, _ = grunbaum_rigby(constructed_heptagon(rng))
        assert canonical_certificate(cfg_reg) == canonical_certificate(cfg_con)

    def test_chain_trace_isomorphic_to_gr(self, rng):
        cfg_reg, _ = grunbaum_rigby(regular_heptagon())
        ring = constructed_heptagon(rng)
        conic = conic_fit(list(ring.points))
        chain = chain_iterate_joinmeet(list(ring.points)[:6], conic, 8)
        cfg_chain, _ = config_from_chain_trace(chain)
        assert canonical_certificate(cfg_reg) == canonical_certificate(cfg_chain)

    def test_certificate_detects_difference(self, rng):
        cfg_reg, _ = grunbaum_rigby(regular_heptagon())
        smaller = incidence_configuration(
            cfg_reg.points[1:], cfg_reg.lines, cfg_reg.threshold,
        )
        assert canonical_certificate(cfg_reg) != canonical_certificate(smaller)


def exhaustive_certificate(cfg):
    """Reference: the certificate search without automorphism pruning or
    first-path abandonment, which visits one leaf per labelling the
    individualization tree reaches.

    Its refinement restates the library's splitter rule on a list of cells:
    a cell is named by its first position; the first queued splitter splits
    every cell, in order, into fragments by neighbour count (ascending);
    the fragments are all queued if the cell was queued, else all but the
    first largest.  Individualizing v makes it a singleton at the front of
    its cell, and that singleton is the only splitter queued."""
    m, k = len(cfg.points), len(cfg.lines)
    adj = [frozenset(m + j for j in range(k) if cfg.incidence[i][j]) for i in range(m)]
    adj += [frozenset(i for i in range(m) if cfg.incidence[i][j]) for j in range(k)]

    def starts(cells, first=0):
        return list(accumulate(map(len, cells), initial=first))[:-1]

    def refine(cells, queue):
        while queue and len(cells) < m + k:  # a discrete partition splits no further
            at = starts(cells)
            splitter = cells[at.index(queue.pop(0))]
            count = Counter(u for x in splitter for u in adj[x])
            split = []
            for start, cell in zip(at, cells):
                if len(cell) == 1 or count.keys().isdisjoint(cell):
                    split.append(cell)
                    continue
                keys = sorted({count[x] for x in cell})
                frags = [[x for x in cell if count[x] == c] for c in keys]
                split += frags
                if len(frags) == 1:
                    continue
                frag_starts = starts(frags, start)
                if start not in queue:
                    del frag_starts[max(range(len(frags)), key=lambda i: len(frags[i]))]
                queue += [s for s in frag_starts if s not in queue]
            cells = split
        return cells

    def matrix_string(cells):
        order = [v for cell in cells for v in cell]
        bits = bytearray()
        for i in order[:m]:
            row = 0
            for l in order[m:]:
                row = (row << 1) | (1 if l in adj[i] else 0)
            bits.extend(row.to_bytes((k + 7) // 8, "big"))
        return bytes(bits)

    leaves = []

    def search(cells, queue):
        cells = refine(cells, queue)
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            leaves.append(matrix_string(cells))
            return
        start = starts(cells)[target]
        for v in cells[target]:
            rest = [x for x in cells[target] if x != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:], [start])

    search([list(range(m)), list(range(m, m + k))], [0, m])
    return m.to_bytes(2, "big") + k.to_bytes(2, "big") + min(leaves)


def chain_configuration(scene):
    chain = chain_iterate_joinmeet(list(scene.vertices[:6]), scene.outer, scene.n - 3)
    assert chain.closed_period == scene.n
    return config_from_chain_trace(chain)[0]


@lru_cache(maxsize=None)
def reference_configurations():
    """Chain (3n_4) for n = 7..16, the (21_4) and projective images of chains."""
    cfgs = {f"chain{n}": chain_configuration(concentric_scene(n)) for n in range(7, 17)}
    cfgs["gr"] = grunbaum_rigby(regular_heptagon())[0]
    rng = random.Random(7)
    for n in (7, 9, 12):
        cfgs[f"image{n}"] = chain_configuration(random_closing_scene(rng, n))
    return cfgs


def cayley_incidence(gens):
    """Vertex-edge incidence of the Cayley graph of Z4 x Z4 with connection
    set +-gens, as an abstract configuration: certificates read only the
    incidence."""
    conn = {((s * a) % 4, (s * b) % 4) for a, b in gens for s in (1, -1)}
    edges = sorted({
        tuple(sorted((4 * x + y, 4 * ((x + a) % 4) + (y + b) % 4)))
        for x in range(4) for y in range(4) for a, b in conn
    })
    incidence = tuple(tuple(v in e for e in edges) for v in range(16))
    return IncidenceConfiguration([None] * 16, [None] * len(edges), incidence, 0.0)


def disjoint_union(a, b):
    """a and b side by side: no point of one lies on a line of the other."""
    pad_a, pad_b = (False,) * len(a.lines), (False,) * len(b.lines)
    return a._replace(
        points=a.points + b.points,
        lines=a.lines + b.lines,
        incidence=tuple(row + pad_b for row in a.incidence)
        + tuple(pad_a + row for row in b.incidence),
    )


@lru_cache(maxsize=None)
def union_configurations():
    """Disjoint unions whose target cells merge several orbits of the path
    stabiliser: two copies of one configuration, two configurations colour
    refinement cannot tell apart, and the Shrikhande graph beside the 4x4
    rook's graph (both strongly regular (16, 6, 2, 2))."""
    cfgs = reference_configurations()
    shrikhande = cayley_incidence(((1, 0), (0, 1), (1, 1)))
    rook = cayley_incidence(((1, 0), (2, 0), (0, 1), (0, 2)))
    return {
        "gr+gr": disjoint_union(cfgs["gr"], cfgs["gr"]),
        "chain7+chain7": disjoint_union(cfgs["chain7"], cfgs["chain7"]),
        "chain8+chain8": disjoint_union(cfgs["chain8"], cfgs["chain8"]),
        "gr+chain8": disjoint_union(cfgs["gr"], cfgs["chain8"]),
        "shrikhande+rook": disjoint_union(shrikhande, rook),
    }


def relabelled(cfg, rng, flip):
    """cfg with points and lines shuffled; with ``flip``, one incidence toggled."""
    rows = [list(row) for row in cfg.incidence]
    if flip:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[i][j] = not rows[i][j]
    pts = rng.sample(range(len(cfg.points)), len(cfg.points))
    lns = rng.sample(range(len(cfg.lines)), len(cfg.lines))
    return cfg._replace(
        points=[cfg.points[i] for i in pts],
        lines=[cfg.lines[j] for j in lns],
        incidence=tuple(tuple(rows[i][j] for j in lns) for i in pts),
    )


class TestPrunedSearch:
    @pytest.mark.parametrize("name", sorted(reference_configurations()))
    def test_equals_exhaustive_search(self, name):
        cfg = reference_configurations()[name]
        assert canonical_certificate(cfg) == exhaustive_certificate(cfg)

    def test_chain_images_match_their_period(self):
        cfgs = reference_configurations()
        for n in (7, 9, 12):
            assert canonical_certificate(cfgs[f"image{n}"]) == canonical_certificate(cfgs[f"chain{n}"])

    def test_periods_are_told_apart(self):
        """Chains of different periods differ, but so does a pair of equal
        size: the Shrikhande and 4x4 rook incidences (16 points, 48 lines),
        which colour refinement cannot tell apart."""
        cfgs = reference_configurations()
        certs = [canonical_certificate(cfgs[f"chain{n}"]) for n in range(7, 17)]
        assert len(set(certs)) == len(certs)
        assert canonical_certificate(cfgs["gr"]) == certs[0]
        shrikhande = canonical_certificate(cayley_incidence(((1, 0), (0, 1), (1, 1))))
        rook = canonical_certificate(cayley_incidence(((1, 0), (2, 0), (0, 1), (0, 2))))
        assert shrikhande[:4] == rook[:4] == bytes([0, 16, 0, 48])
        assert shrikhande != rook

    def test_configurations_without_points_or_lines(self):
        for m, k in ((0, 0), (3, 0), (0, 2)):
            cfg = IncidenceConfiguration([None] * m, [None] * k, ((),) * m, 0.0)
            assert canonical_certificate(cfg) == exhaustive_certificate(cfg) == bytes([0, m, 0, k])

    @pytest.mark.parametrize("seed", range(40))
    def test_relabelled_equals_exhaustive_search(self, seed):
        rng = random.Random(seed)
        bases = reference_configurations()
        base = bases[rng.choice(["gr", "chain8", "chain9", "chain10", "chain11"])]
        flip = seed % 2 == 1
        cfg = relabelled(base, rng, flip)
        cert = canonical_certificate(cfg)
        assert cert == exhaustive_certificate(cfg)
        assert (cert == canonical_certificate(base)) is not flip

    @pytest.mark.parametrize("name", sorted(union_configurations()))
    def test_union_certificate_ignores_labels(self, name):
        base = union_configurations()[name]
        certs = {canonical_certificate(relabelled(base, random.Random(seed), False)) for seed in range(6)}
        assert certs == {canonical_certificate(base)}

    @pytest.mark.parametrize("name", sorted(union_configurations()))
    def test_flipped_union_equals_exhaustive_search(self, name):
        base = union_configurations()[name]
        cfg = relabelled(base, random.Random(1), True)
        cert = canonical_certificate(cfg)
        assert cert == exhaustive_certificate(cfg)
        assert cert != canonical_certificate(base)

    def test_pruning_cuts_the_search(self):
        # a search that prunes nothing returns the same bytes: only its cost
        # shows it (the (21_4) has 336 leaves unpruned, 5 pruned)
        cfg = reference_configurations()["gr"]
        pruned = min(timeit.repeat(lambda: canonical_certificate(cfg), number=1, repeat=3))
        exhaustive = min(timeit.repeat(lambda: exhaustive_certificate(cfg), number=1, repeat=3))
        assert 3 * pruned < exhaustive

    def test_point_and_line_degrees_are_plain_ints(self):
        cfg = reference_configurations()["gr"]
        assert cfg.point_degrees() == [4] * 21 and cfg.line_degrees() == [4] * 21
        assert all(type(d) is int for d in cfg.point_degrees() + cfg.line_degrees())
