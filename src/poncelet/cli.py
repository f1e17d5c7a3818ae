"""Command-line interface.

Subcommands: construct (6, 7, 8, 9, double, chain), verify, count, render.
Exit codes are part of the contract: 0 success, 2 bad input (parse errors,
malformed documents, degenerate input), 3 construction degeneracy (also when
construct's retry budget runs out), 4 numeric failure (verification failed, or
count's retry budget ran out).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import chains
from .chains import PonceletScene, closure_test
from .configurations import config_from_chain_trace, verify_n4
from .constructions import (
    chain_iterate_joinmeet,
    complete_heptagon,
    complete_hexagon_p6,
    complete_octagon,
    construct_heptagon_p6,
    construct_ninegon_p4,
    construct_octagon_p7,
    doubling,
    moderate_chart,
    polygon_scene,
)
from .document import SceneDocument
from .errors import (
    ConstructionDegeneracy,
    DegenerateInput,
    DocumentError,
    GeometryError,
    NoValidLabeling,
)
from .projective import ProjPoint, conic_contains, conic_fit, proj_distance
from .rp1 import (
    heptagon6_residual,
    next_chain_point,
    ninegon_residual,
    octagon_point7_residual,
)
from .svg import render_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_NUMERIC = 4

RETRY_BUDGET = 64
PROPERNESS_GAP = 0.05


def sample_ring_points(rng: random.Random, k: int, minsep: float = 0.35) -> list[ProjPoint]:
    """Well-separated points near the unit circle; generic for every construction."""
    while True:
        angs = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        gaps = [(angs[(i + 1) % k] - angs[i]) % (2 * math.pi) for i in range(k)]
        if min(gaps) > minsep:
            break
    return [
        ProjPoint(
            rng.uniform(0.85, 1.2) * math.cos(a),
            rng.uniform(0.85, 1.2) * math.sin(a),
            1,
        )
        for a in angs
    ]


def _proper(points, gap: float = PROPERNESS_GAP) -> bool:
    return all(
        proj_distance(points[i], points[j]) > gap
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def _proper_scene(verts: list[ProjPoint], gap: float = PROPERNESS_GAP) -> PonceletScene | None:
    """Closed polygon scene on the vertices; None when two nearly coincide."""
    return polygon_scene(verts, len(verts)) if _proper(verts, gap) else None


def _input_scene(path: str, min_vertices: int = 1) -> PonceletScene:
    scene = _load_document(path).scene
    if scene is None or len(scene.vertices) < min_vertices:
        raise DocumentError(f"input document needs a scene with >= {min_vertices} vertices")
    return scene


def _build_hexagon(rng, args):
    pts = sample_ring_points(rng, 5)
    return _proper_scene(pts + [complete_hexagon_p6(pts)]), None


def _build_heptagon(rng, args):
    pts = sample_ring_points(rng, 5)
    p6, trace = construct_heptagon_p6(pts, args.branch)
    return _proper_scene(pts + [p6, complete_heptagon(pts + [p6])]), trace


def _build_octagon(rng, args):
    pts = sample_ring_points(rng, 5)
    p7, trace = construct_octagon_p7(pts, args.branch)
    p6, p8, center = complete_octagon(pts, p7)
    trace.add("center", center)
    return _proper_scene(pts + [p6, p7, p8]), trace


def _build_ninegon(rng, args):
    pts = sample_ring_points(rng, 5)
    cands, trace = construct_ninegon_p4(pts)
    p4 = cands[args.branch % 3]
    chart = moderate_chart(conic_fit(pts + [p4]), pts + [p4])
    xs = [chart.project(p) for p in (pts[0], pts[1], pts[2], p4, pts[3], pts[4])]
    while len(xs) < 9:
        xs.append(next_chain_point(xs[-6:]))
    return _proper_scene([chart.lift(x) for x in xs], gap=0.02), trace


def _build_doubled(rng, args):
    if args.infile:
        src = _input_scene(args.infile)
    else:
        src = polygon_scene(sample_ring_points(rng, 5), 5)
    return doubling(src)


def _build_chain(rng, args) -> SceneDocument | None:
    if args.infile:
        base = _input_scene(args.infile, min_vertices=6)
        seed_pts, conic = list(base.vertices[:6]), base.outer
    else:
        # chain seeds must be conconic: put them on the unit circle
        seed_pts = [
            ProjPoint(math.cos(a), math.sin(a), 1)
            for a in sorted(rng.uniform(0, 2 * math.pi) for _ in range(6))
        ]
        if not _proper(seed_pts):
            return None
        conic = conic_fit(seed_pts)
    chain = chain_iterate_joinmeet(seed_pts, conic, args.steps)
    doc = SceneDocument(kind="chain", n=chain.closed_period, trace=chain.trace)
    doc.residuals = {"max_on_conic": max(conic_contains(conic, p) for p in chain.points)}
    if chain.closed_period is not None and chain.closed_period >= 7:
        doc.configuration, _ = config_from_chain_trace(chain)
        doc.residuals["n4_pass"] = float(verify_n4(doc.configuration).passed)
    return doc


class ConstructKind(NamedTuple):
    """One kind of ``construct``.

    ``build(rng, args)`` makes one attempt: it returns the scene (None if the
    draw is improper and must be redrawn) and its trace, or a finished
    document for kinds without a scene.  ``bracket`` is the residual name,
    function and vertex indices of the polygon's bracket condition, which
    ``construct`` and ``verify`` both report.
    """

    doc_kind: str
    build: Callable
    bracket: tuple[str, Callable, tuple[int, ...]] | None = None
    reads_input: bool = False


CONSTRUCT_KINDS = {
    "6": ConstructKind("hexagon", _build_hexagon),
    "7": ConstructKind("heptagon", _build_heptagon,
                       ("heptagon6_gap", heptagon6_residual, (0, 1, 2, 3, 4, 5))),
    "8": ConstructKind("octagon", _build_octagon,
                       ("octagon_point7_gap", octagon_point7_residual, (0, 1, 2, 3, 4, 6))),
    "9": ConstructKind("ninegon", _build_ninegon,
                       ("ninegon_gap", ninegon_residual, (0, 1, 2, 3, 4, 6))),
    "double": ConstructKind("doubled", _build_doubled, reads_input=True),
    "chain": ConstructKind("chain", _build_chain, reads_input=True),
}
_BRACKETS = {k.doc_kind: k.bracket for k in CONSTRUCT_KINDS.values() if k.bracket}


def _bracket_residuals(doc_kind: str, scene: PonceletScene) -> dict[str, float]:
    if doc_kind not in _BRACKETS:
        return {}
    name, residual, picks = _BRACKETS[doc_kind]
    verts = list(scene.vertices)
    if len(verts) <= max(picks):
        raise DegenerateInput(f"the {doc_kind} bracket condition needs {max(picks) + 1} vertices")
    chart = moderate_chart(scene.outer, verts)
    return {name: residual([chart.project(verts[i]) for i in picks]).scaled_gap}


def _scene_document(doc_kind: str, scene: PonceletScene | None, trace) -> SceneDocument | None:
    if scene is None:
        return None
    rep = closure_test(scene.outer, scene.inner, scene.vertices[0], scene.n)
    residuals = {**scene.verify(), "closure_p": rep.residual_p, "closure_q": rep.residual_q}
    residuals.update(_bracket_residuals(doc_kind, scene))
    return SceneDocument(doc_kind, scene.n, scene=scene, trace=trace, residuals=residuals)


def _build_construct(args) -> SceneDocument:
    spec = CONSTRUCT_KINDS[args.kind]
    rng = random.Random(args.seed)
    # an input document fails the same way on every attempt: try it once
    attempts = 1 if args.infile and spec.reads_input else RETRY_BUDGET
    for _ in range(attempts):
        try:
            doc = spec.build(rng, args)
            if isinstance(doc, tuple):
                doc = _scene_document(spec.doc_kind, *doc)
        except (ConstructionDegeneracy, NoValidLabeling, DegenerateInput):
            if attempts == 1:
                raise
            continue
        if doc is not None:
            return doc
    raise ConstructionDegeneracy(f"retry budget exhausted for construct {args.kind}")


def _load_document(path: str) -> SceneDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return SceneDocument.from_json(text)


def cmd_construct(args) -> int:
    try:
        doc = _build_construct(args)
    except (DocumentError, DegenerateInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConstructionDegeneracy, NoValidLabeling) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    doc.seed = args.seed
    doc.command = f"construct {args.kind} --seed {args.seed}"
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.svg:
        Path(args.svg).write_text(render_svg(doc), encoding="utf-8")
    threshold = 1e-6
    bad = {k: v for k, v in doc.residuals.items() if k != "n4_pass" and not v <= threshold}
    if bad:
        print(f"residuals above threshold: {bad}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        doc = _load_document(args.infile)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n = args.n or doc.n
    checks: dict[str, float] = {}
    passed = True
    tol = 1e-7

    def attempt(name, fn):
        nonlocal passed
        try:
            return fn()
        except GeometryError as exc:
            checks[f"{name}_error"] = 1e300  # sentinel keeps the report strict JSON
            passed = False
            print(f"check {name} failed to run: {exc}", file=sys.stderr)
            return None

    if doc.scene is not None:
        attempt("scene", lambda: checks.update(doc.scene.verify()))
        if n:
            def closure():
                rep = closure_test(doc.scene.outer, doc.scene.inner, doc.scene.vertices[0], n)
                checks["closure_p"] = rep.residual_p
                checks["closure_q"] = rep.residual_q
            attempt("closure", closure)
        attempt("bracket", lambda: checks.update(_bracket_residuals(doc.kind, doc.scene)))
    if doc.trace is not None and doc.trace.incidences:
        attempt("trace", lambda: checks.__setitem__("trace_replay", doc.trace.replay()))
    if doc.configuration is not None:
        def config():
            rep4 = verify_n4(doc.configuration)
            checks["n4_pass"] = float(rep4.passed)
            return rep4
        rep4 = attempt("configuration", config)
        if rep4 is not None and not rep4.passed:
            passed = False
    for key, val in checks.items():
        if key == "n4_pass":
            continue
        if not val <= tol:  # a NaN residual fails too
            passed = False
    report = {"passed": passed, "n": n, "checks": checks}
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_NUMERIC


def cmd_count(args) -> int:
    if args.n < 6:
        print("error: count needs --n >= 6", file=sys.stderr)
        return EXIT_INPUT
    if args.values:
        try:
            vals = [Fraction(v.strip()) for v in args.values.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: bad --values: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if len(vals) != 5:
            print("error: --values needs exactly 5 comma-separated rationals", file=sys.stderr)
            return EXIT_INPUT
        candidates = [vals]
    else:
        rng = random.Random(args.seed)
        candidates = []
        for _ in range(RETRY_BUDGET):
            vs = []
            while len(vs) < 5:
                f = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
                if f not in vs:
                    vs.append(f)
            candidates.append(vs)
    last_error: Exception | None = None
    for vals in candidates:
        try:
            roots = chains.closure_roots(vals, args.n)
        except DegenerateInput as exc:
            last_error = exc
            continue
        accepted = [r for r in roots if r.accepted]
        report = {
            "n": args.n,
            "inputs": [str(v) for v in vals],
            "count": len(accepted),
            "roots": [
                {
                    "value": [r.value.real, r.value.imag],
                    "residual_p": r.residual_p,
                    "residual_q": r.residual_q,
                    "accepted": r.accepted,
                }
                for r in roots
            ],
        }
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return EXIT_OK
    if args.values:
        print(f"error: degenerate --values: {last_error}", file=sys.stderr)
        return EXIT_INPUT
    print(f"error: degenerate inputs exhausted retries: {last_error}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_render(args) -> int:
    try:
        doc = _load_document(args.infile)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    svg = render_svg(doc)
    if args.out:
        Path(args.out).write_text(svg, encoding="utf-8")
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _at_least_one(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poncelet",
        description="Poncelet polygons: constructions, closure solving, configurations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a Poncelet polygon scene")
    pc.add_argument("kind", choices=list(CONSTRUCT_KINDS))
    pc.add_argument("--seed", type=int, default=0, help="random seed")
    pc.add_argument("--branch", type=int, default=0, help="two-valued intersection choice")
    pc.add_argument("--steps", type=_at_least_one, default=12, help="iteration steps (chain)")
    pc.add_argument("--in", dest="infile", default=None, help="input scene document")
    pc.add_argument("--out", default=None, help="output JSON path (default stdout)")
    pc.add_argument("--svg", default=None, help="also write an SVG rendering here")
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="re-verify a scene document")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--n", type=_at_least_one, default=None)
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("count", help="closure solution count for random or given inputs")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--values", default=None, help="5 comma-separated rationals")
    pn.set_defaults(func=cmd_count)

    pr = sub.add_parser("render", help="render a scene document to SVG")
    pr.add_argument("--in", dest="infile", required=True)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_render)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
