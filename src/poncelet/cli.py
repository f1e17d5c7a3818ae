"""Command-line interface.

Subcommands: construct, verify, count, chain, render.  Exit codes are part
of the contract: 0 success, 2 bad input (parse errors, degenerate input),
3 construction degeneracy, 4 numeric failure (verification failed or the
retry budget ran out).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
from .settings import DEFAULT, check_precision
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


def _scene_residuals(scene: PonceletScene, n: int) -> dict[str, float]:
    rep = closure_test(scene.outer, scene.inner, scene.vertices[0], n)
    out = dict(scene.verify())
    out["closure_p"] = rep.residual_p
    out["closure_q"] = rep.residual_q
    return out


def _bracket_residual_for(kind: str, scene: PonceletScene) -> dict[str, float]:
    verts = list(scene.vertices)
    chart = moderate_chart(scene.outer, verts)
    xs = [chart.project(p) for p in verts]
    if kind == "heptagon":
        return {"heptagon6_gap": heptagon6_residual(xs[:6]).scaled_gap}
    if kind == "octagon":
        sel = [xs[0], xs[1], xs[2], xs[3], xs[4], xs[6]]
        return {"octagon_point7_gap": octagon_point7_residual(sel).scaled_gap}
    if kind == "ninegon":
        sel = [xs[0], xs[1], xs[2], xs[3], xs[4], xs[6]]
        return {"ninegon_gap": ninegon_residual(sel).scaled_gap}
    return {}


def _build_construct(args) -> SceneDocument:
    rng = random.Random(args.seed)
    kind = args.kind
    branch = args.branch or 0
    for _ in range(RETRY_BUDGET):
        try:
            if kind == "6":
                pts = sample_ring_points(rng, 5)
                p6 = complete_hexagon_p6(pts)
                verts = pts + [p6]
                if not _proper(verts):
                    continue
                scene = polygon_scene(verts, 6)
                doc = SceneDocument(kind="hexagon", n=6)
                doc.scene = scene
                doc.residuals = _scene_residuals(scene, 6)
                return doc
            if kind == "7":
                pts = sample_ring_points(rng, 5)
                p6, trace = construct_heptagon_p6(pts, branch)
                p7 = complete_heptagon(pts + [p6])
                verts = pts + [p6, p7]
                if not _proper(verts):
                    continue
                scene = polygon_scene(verts, 7)
                doc = SceneDocument(kind="heptagon", n=7)
                doc.scene = scene
                doc.trace = trace
                doc.residuals = _scene_residuals(scene, 7)
                doc.residuals.update(_bracket_residual_for("heptagon", scene))
                return doc
            if kind == "8":
                pts = sample_ring_points(rng, 5)
                p7, trace = construct_octagon_p7(pts, branch)
                p6, p8, center = complete_octagon(pts, p7)
                order = [pts[0], pts[1], pts[2], pts[3], pts[4], p6, p7, p8]
                if not _proper(order):
                    continue
                trace.add("center", center)
                scene = polygon_scene(order, 8)
                doc = SceneDocument(kind="octagon", n=8)
                doc.scene = scene
                doc.trace = trace
                doc.residuals = _scene_residuals(scene, 8)
                doc.residuals.update(_bracket_residual_for("octagon", scene))
                return doc
            if kind == "9":
                pts = sample_ring_points(rng, 5)
                cands, trace = construct_ninegon_p4(pts)
                p4 = cands[branch % 3]
                chart = moderate_chart(conic_fit(list(pts) + [p4]), list(pts) + [p4])
                xs = [chart.project(p) for p in (pts[0], pts[1], pts[2], p4, pts[3], pts[4])]
                while len(xs) < 9:
                    xs.append(next_chain_point(xs[-6:]))
                verts = [chart.lift(x) for x in xs]
                if not _proper(verts, gap=0.02):
                    continue
                scene = polygon_scene(verts, 9)
                doc = SceneDocument(kind="ninegon", n=9)
                doc.scene = scene
                doc.trace = trace
                doc.residuals = _scene_residuals(scene, 9)
                doc.residuals.update(_bracket_residual_for("ninegon", scene))
                return doc
            if kind == "double":
                if args.infile:
                    base = _load_document(args.infile)
                    if base.scene is None:
                        raise DocumentError("input document carries no scene")
                    src = base.scene
                else:
                    verts = sample_ring_points(rng, 5)
                    src = polygon_scene(verts, 5)
                scene, trace = doubling(src)
                doc = SceneDocument(kind="doubled", n=scene.n)
                doc.scene = scene
                doc.trace = trace
                doc.residuals = _scene_residuals(scene, scene.n)
                return doc
            if kind == "chain":
                steps = args.steps if args.steps is not None else 12
                if args.infile:
                    base = _load_document(args.infile)
                    if base.scene is None or len(base.scene.vertices) < 6:
                        raise DocumentError("input document needs >= 6 scene vertices")
                    seed_pts = list(base.scene.vertices[:6])
                    conic = base.scene.outer
                else:
                    # chain seeds must be conconic: put them on the unit circle
                    seed_pts = [
                        ProjPoint(math.cos(a), math.sin(a), 1)
                        for a in sorted(rng.uniform(0, 2 * math.pi) for _ in range(6))
                    ]
                    if not _proper(seed_pts):
                        continue
                    conic = conic_fit(seed_pts)
                chain = chain_iterate_joinmeet(seed_pts, conic, steps)
                doc = SceneDocument(kind="chain", n=chain.closed_period)
                doc.residuals = {
                    "max_on_conic": max(conic_contains(conic, p) for p in chain.points)
                }
                doc.trace = chain.trace
                if chain.closed_period is not None and chain.closed_period >= 7:
                    cfg, colors = config_from_chain_trace(chain)
                    doc.configuration = cfg
                    doc.residuals["n4_pass"] = float(verify_n4(cfg).passed)
                return doc
            raise DegenerateInput(f"unsupported construct kind {kind!r}")
        except (ConstructionDegeneracy, NoValidLabeling):
            continue
        except DegenerateInput:
            continue
    raise ConstructionDegeneracy(f"retry budget exhausted for construct {kind}")


def _load_document(path: str) -> SceneDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
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
    doc.precision = check_precision(args.precision)
    doc.tolerance = args.tolerance
    doc.command = f"construct {args.kind} --seed {args.seed}"
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.svg:
        Path(args.svg).write_text(render_svg(doc), encoding="utf-8")
    threshold = 1e-6
    bad = {k: v for k, v in doc.residuals.items() if k != "n4_pass" and v > threshold}
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
        attempt("bracket", lambda: checks.update(_bracket_residual_for(doc.kind, doc.scene)))
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
        if val > tol:
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


def cmd_chain(args) -> int:
    args.kind = "chain"
    return cmd_construct(args)


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poncelet",
        description="Poncelet polygons: constructions, closure solving, configurations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--tolerance", type=float, default=DEFAULT.rel)
        p.add_argument("--precision", default="double", choices=["double"])
        p.add_argument("--branch", type=int, default=0, help="two-valued intersection choice")
        p.add_argument("--steps", type=int, default=None, help="iteration steps (chain)")
        p.add_argument("--in", dest="infile", default=None, help="input scene document")
        p.add_argument("--out", default=None, help="output JSON path (default stdout)")
        p.add_argument("--svg", default=None, help="also write an SVG rendering here")

    pc = sub.add_parser("construct", help="build a Poncelet polygon scene")
    pc.add_argument("kind", choices=["6", "7", "8", "9", "double", "chain"])
    common(pc)
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="re-verify a scene document")
    pv.add_argument("--in", dest="infile", required=True)
    pv.add_argument("--n", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    pn = sub.add_parser("count", help="closure solution count for random or given inputs")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--values", default=None, help="5 comma-separated rationals")
    pn.set_defaults(func=cmd_count)

    ph = sub.add_parser("chain", help="iterate the join/meet chain construction")
    common(ph)
    ph.set_defaults(func=cmd_chain)

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
