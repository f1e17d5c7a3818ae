"""Command-line interface.

Subcommands: construct (6, 7, 8, 9, double, chain), verify, count, render.
Exit codes are part of the contract: 0 success, 2 bad input (parse errors,
malformed documents, degenerate input), 3 construction degeneracy (also when
construct's retry budget runs out), 4 numeric failure (verification failed,
count's retry budget ran out, or count could not separate the closure roots).
``main`` alone turns a library exception into its exit code, by ``EXIT_CODES``.
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
    InseparableRoots,
)
from .projective import Conic, ProjPoint, conic_contains, conic_fit, min_separation
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
# library exception -> exit code; the first entry that matches wins
EXIT_CODES = (
    ((DocumentError, DegenerateInput), EXIT_INPUT),
    (InseparableRoots, EXIT_NUMERIC),
    (GeometryError, EXIT_CONSTRUCTION),
)

RETRY_BUDGET = 64
PROPERNESS_GAP = 0.05
PASS_LIMIT = 1e-7  # largest residual construct and verify accept


def sample_ring_points(rng: random.Random, k: int) -> list[ProjPoint]:
    """Points near the unit circle, at angles more than 0.35 apart; generic for
    every construction."""
    while True:
        angs = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        gaps = [(angs[(i + 1) % k] - angs[i]) % (2 * math.pi) for i in range(k)]
        if min(gaps) > 0.35:
            break
    return [
        ProjPoint(
            rng.uniform(0.85, 1.2) * math.cos(a),
            rng.uniform(0.85, 1.2) * math.sin(a),
            1,
        )
        for a in angs
    ]


def _proper_scene(verts: list[ProjPoint], gap: float = PROPERNESS_GAP) -> PonceletScene | None:
    """Closed polygon scene on the vertices; None when two nearly coincide."""
    return polygon_scene(verts, len(verts)) if min_separation(verts) > gap else None


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


def _chain_on_conic(trace) -> float:
    """Worst on-conic residual of a chain trace's points 1..k on its conic A:
    ``max_on_conic``, as ``construct chain`` reports and ``verify`` rechecks it."""
    elements = trace.elements if trace is not None else {}
    conic, pts = elements.get("A"), []
    while str(len(pts) + 1) in elements:
        pts.append(elements[str(len(pts) + 1)])
    if not isinstance(conic, Conic) or not pts or not all(isinstance(p, ProjPoint) for p in pts):
        raise DocumentError("a chain trace needs the conic A and the points 1..k")
    return max(conic_contains(conic, p) for p in pts)


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
        if min_separation(seed_pts) <= PROPERNESS_GAP:
            return None
        conic = conic_fit(seed_pts)
    chain = chain_iterate_joinmeet(seed_pts, conic, args.steps)
    doc = SceneDocument(kind="chain", n=chain.closed_period, trace=chain.trace)
    if chain.closed_period is not None and chain.closed_period >= 7:
        doc.configuration, _ = config_from_chain_trace(chain)
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


CONSTRUCT_KINDS = {
    "6": ConstructKind("hexagon", _build_hexagon),
    "7": ConstructKind("heptagon", _build_heptagon,
                       ("heptagon6_gap", heptagon6_residual, (0, 1, 2, 3, 4, 5))),
    "8": ConstructKind("octagon", _build_octagon,
                       ("octagon_point7_gap", octagon_point7_residual, (0, 1, 2, 3, 4, 6))),
    "9": ConstructKind("ninegon", _build_ninegon,
                       ("ninegon_gap", ninegon_residual, (0, 1, 2, 3, 4, 6))),
    "double": ConstructKind("doubled", _build_doubled),
    "chain": ConstructKind("chain", _build_chain),
}
# construct options that only some kinds read: flag -> (argparse dest,
# value when not given, the kinds that read it); other kinds reject it
KIND_OPTIONS = {
    "--branch": ("branch", 0, {"7", "8", "9"}),
    "--in": ("infile", None, {"double", "chain"}),
    "--steps": ("steps", 12, {"chain"}),
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


def _closure_residuals(scene: PonceletScene, n: int) -> dict[str, float]:
    rep = closure_test(scene.outer, scene.inner, scene.vertices[0], n)
    return {"closure_p": rep.residual_p, "closure_q": rep.residual_q}


def _document_checks(doc: SceneDocument, n: int | None):
    """The named checks of a document, in order, each with the function that
    returns its residuals: the scene invariants, the double-wrap closure over
    n steps, the bracket condition of the kind, the chain's on-conic residual
    and the (n_4) test of the configuration.  ``construct`` stores what they
    return; ``verify`` reruns them and adds the trace replay."""
    scene = doc.scene
    if scene is not None:
        yield "scene", scene.verify
        if n:
            yield "closure", lambda: _closure_residuals(scene, n)
        yield "bracket", lambda: _bracket_residuals(doc.kind, scene)
    if doc.kind == "chain":
        yield "chain", lambda: {"max_on_conic": _chain_on_conic(doc.trace)}
    if doc.configuration is not None:
        yield "configuration", lambda: {"n4_pass": float(verify_n4(doc.configuration).passed)}


def _build_construct(args) -> SceneDocument:
    spec = CONSTRUCT_KINDS[args.kind]
    rng = random.Random(args.seed)
    # an input document fails the same way on every attempt: try it once
    attempts = 1 if args.infile else RETRY_BUDGET
    for _ in range(attempts):
        try:
            doc = spec.build(rng, args)
            if isinstance(doc, tuple):
                scene, trace = doc
                doc = None if scene is None else SceneDocument(
                    spec.doc_kind, scene.n, scene=scene, trace=trace)
            if doc is not None:
                for _, check in _document_checks(doc, doc.n):
                    doc.residuals.update(check())
                return doc
        except GeometryError:
            if attempts == 1:
                raise
    raise ConstructionDegeneracy(f"retry budget exhausted for construct {args.kind}")


def _load_document(path: str) -> SceneDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return SceneDocument.from_json(text)


def _failed(checks: dict[str, float]) -> dict[str, float]:
    """The checks that fail: n4_pass when false, any other above PASS_LIMIT (or NaN)."""
    return {k: v for k, v in checks.items() if not (v if k == "n4_pass" else v <= PASS_LIMIT)}


def cmd_construct(args) -> int:
    unread = [flag for flag, (dest, _, kinds) in KIND_OPTIONS.items()
              if args.kind not in kinds and getattr(args, dest) is not None]
    if unread:
        print(f"error: construct {args.kind} does not read {', '.join(unread)}", file=sys.stderr)
        return EXIT_INPUT
    for dest, default, _ in KIND_OPTIONS.values():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    doc = _build_construct(args)
    doc.seed = args.seed
    doc.command = f"construct {args.kind} --seed {args.seed}"
    text = doc.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.svg:
        Path(args.svg).write_text(render_svg(doc), encoding="utf-8")
    bad = _failed(doc.residuals)
    if bad:
        print(f"residuals above threshold: {bad}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = _load_document(args.infile)
    n = args.n or doc.n
    todo = list(_document_checks(doc, n))
    if doc.trace is not None and doc.trace.incidences:
        todo.append(("trace", lambda: {"trace_replay": doc.trace.replay()}))
    checks: dict[str, float] = {}
    for name, check in todo:
        try:
            checks.update(check())
        except GeometryError as exc:
            checks[f"{name}_error"] = 1e300  # sentinel keeps the report strict JSON
            print(f"check {name} failed to run: {exc}", file=sys.stderr)
    passed = not _failed(checks)
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
            if args.values:
                raise DegenerateInput(f"degenerate --values: {exc}") from exc
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
    print(f"error: degenerate inputs exhausted retries: {last_error}", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_render(args) -> int:
    svg = render_svg(_load_document(args.infile))
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
    pc.add_argument("--branch", type=int, help="intersection choice (7, 8, 9; default 0)")
    pc.add_argument("--steps", type=_at_least_one, help="iteration steps (chain; default 12)")
    pc.add_argument("--in", dest="infile", help="input scene document (double, chain)")
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
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
