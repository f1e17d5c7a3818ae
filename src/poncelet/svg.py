"""Deterministic SVG rendering of scene documents.

Only real-visible elements are drawn; complex elements are listed in a
legend instead.  Conics are sampled as 256-segment paths.  Output bytes
are a pure function of the document content, which the CLI relies on for
reproducibility.
"""

from __future__ import annotations

import math
from typing import Iterable

from .document import SceneDocument
from .projective import Conic, ProjLine, ProjPoint, line_conic_intersect, second_intersection
from .settings import DEFAULT

CONIC_SAMPLES = 256
MARGIN = 0.05
SIZE = 720  # width and height of the SVG canvas


def _fmt(v: float) -> str:
    text = f"{v:.6f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text  # a value that rounds to zero has no sign


def _affine(p: ProjPoint) -> tuple[float, float] | None:
    x, y, z = p.coords
    if abs(z) < 1e-9 * max(abs(x), abs(y), DEFAULT.floor):
        return None  # at infinity
    w = (x / z, y / z)
    if abs(w[0].imag) > 1e-7 * max(1.0, abs(w[0])) or abs(w[1].imag) > 1e-7 * max(1.0, abs(w[1])):
        return None
    return (w[0].real, w[1].real)


def _is_real_line(l: ProjLine) -> bool:
    return l.is_real(1e-7)


def _conic_samples(conic: Conic, bound: float) -> list[tuple[float, float]]:
    """Sample real points of a conic by sweeping a line pencil through one.

    Returns an angularly ordered list; points beyond ``bound`` are dropped
    (hyperbola branches get clipped by the path builder).
    """
    base = None
    for k in range(24):
        ang = 2 * math.pi * k / 24 + 0.077
        line = ProjLine(math.sin(ang), -math.cos(ang), 0.013 * k)
        try:
            p1, p2, _ = line_conic_intersect(line, conic)
        except Exception:
            continue
        for cand in (p1, p2):
            if cand.is_real() and _affine(cand) is not None:
                base = cand
                break
        if base is not None:
            break
    if base is None:
        return []
    out = []
    for k in range(CONIC_SAMPLES):
        ang = math.pi * k / CONIC_SAMPLES
        probe = ProjPoint(math.cos(ang), math.sin(ang), 0)
        try:
            q = second_intersection(conic, base, probe)
        except Exception:
            continue
        a = _affine(q)
        if a is not None and abs(a[0]) <= bound and abs(a[1]) <= bound:
            out.append(a)
    b = _affine(base)
    if b is not None and abs(b[0]) <= bound and abs(b[1]) <= bound:
        out.append(b)
    cx = sum(p[0] for p in out) / max(len(out), 1)
    cy = sum(p[1] for p in out) / max(len(out), 1)
    out.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return out


def _clip_line(l: ProjLine, box: tuple[float, float, float, float]) -> tuple[tuple[float, float], tuple[float, float]] | None:
    a, b, c = (z.real for z in l.coords)
    x0, y0, x1, y1 = box
    pts = []
    for xv in (x0, x1):
        if abs(b) > 1e-12:
            yv = -(a * xv + c) / b
            if y0 - 1e-9 <= yv <= y1 + 1e-9:
                pts.append((xv, yv))
    for yv in (y0, y1):
        if abs(a) > 1e-12:
            xv = -(b * yv + c) / a
            if x0 - 1e-9 <= xv <= x1 + 1e-9:
                pts.append((xv, yv))
    uniq: list[tuple[float, float]] = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def render_svg(doc: SceneDocument) -> str:
    """Render a document as a standalone SVG string."""
    point_groups: list[tuple[str, list[tuple[float, float]]]] = []
    legend: list[str] = []

    def collect(points: Iterable[ProjPoint], cls: str) -> list[tuple[float, float]]:
        real = []
        hidden = 0
        for p in points:
            a = _affine(p)
            if a is None:
                hidden += 1
            else:
                real.append(a)
        if hidden:
            legend.append(f"{hidden} complex/infinite {cls} element(s) not drawn")
        return real

    vertices = collect(doc.scene.vertices, "vertex") if doc.scene else []
    touches = collect(doc.scene.touch_points, "touch") if doc.scene else []
    cfg_pts = collect(doc.configuration.points, "config-point") if doc.configuration else []
    trace_pts = []
    trace_lines = []
    if doc.trace:
        for label, el in sorted(doc.trace.elements.items()):
            if isinstance(el, ProjPoint):
                a = _affine(el)
                if a is not None:
                    trace_pts.append((label, a))
            elif isinstance(el, ProjLine) and _is_real_line(el):
                trace_lines.append(el)

    anchor_pts = vertices + touches + cfg_pts + [a for _, a in trace_pts]
    if anchor_pts:
        xs = [p[0] for p in anchor_pts]
        ys = [p[1] for p in anchor_pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        w = max(x1 - x0, 1e-6)
        h = max(y1 - y0, 1e-6)
        x0 -= w * MARGIN
        x1 += w * MARGIN
        y0 -= h * MARGIN
        y1 += h * MARGIN
    else:
        x0, y0, x1, y1 = -1.1, -1.1, 1.1, 1.1
    box = (x0, y0, x1, y1)
    span = max(x1 - x0, y1 - y0)
    bound = max(abs(x0), abs(x1), abs(y0), abs(y1)) * 3 + 1

    def sx(x: float) -> str:
        return _fmt((x - x0) / span * SIZE)

    def sy(y: float) -> str:
        return _fmt((y1 - y) / span * SIZE)  # flip y for SVG

    def line(cls: str, a: tuple[float, float], b: tuple[float, float], style: str) -> None:
        parts.append(
            f'<line class="{cls}" x1="{sx(a[0])}" y1="{sy(a[1])}" '
            f'x2="{sx(b[0])}" y2="{sy(b[1])}" {style}/>'
        )

    def circle(cls: str, p: tuple[float, float], r: str, fill: str) -> None:
        parts.append(
            f'<circle class="{cls}" cx="{sx(p[0])}" cy="{sy(p[1])}" r="{r}" fill="{fill}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # conics
    if doc.scene:
        for conic, cls, color in (
            (doc.scene.outer, "conic outer", "#1f77b4"),
            (doc.scene.inner, "conic inner", "#d62728"),
        ):
            samples = _conic_samples(conic, bound)
            if len(samples) < 2:
                legend.append(f"{cls} has no real drawable branch")
                continue
            cmds = []
            prev = None
            for p in samples:
                cmd = "M" if prev is None or math.hypot(p[0] - prev[0], p[1] - prev[1]) > span else "L"
                cmds.append(f"{cmd}{sx(p[0])},{sy(p[1])}")
                prev = p
            first, last = samples[0], samples[-1]
            if math.hypot(first[0] - last[0], first[1] - last[1]) < span:
                cmds.append("Z")
            parts.append(
                f'<path class="{cls}" d="{" ".join(cmds)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )

        # polygon edges
        verts = list(doc.scene.vertices)
        count = len(verts) if doc.scene.closed else len(verts) - 1
        for i in range(count):
            a = _affine(verts[i])
            b = _affine(verts[(i + 1) % len(verts)])
            if a is None or b is None:
                legend.append(f"edge {i + 1} not drawn (complex endpoint)")
                continue
            line("edge", a, b, 'stroke="#2ca02c" stroke-width="1.2"')

    # configuration lines and points
    if doc.configuration:
        for l in doc.configuration.lines:
            if not _is_real_line(l):
                legend.append("complex configuration line not drawn")
                continue
            seg = _clip_line(l, box)
            if seg is not None:
                line("config-line", *seg, 'stroke="#888888" stroke-width="0.8"')
        for p in cfg_pts:
            circle("config-point", p, "3", "#9467bd")

    # trace elements
    for el in trace_lines:
        seg = _clip_line(el, box)
        if seg is not None:
            dashed = 'stroke="#ff7f0e" stroke-width="0.6" stroke-dasharray="4 3"'
            line("trace-line", *seg, dashed)
    for _, a in trace_pts:
        circle("trace-point", a, "2.5", "#ff7f0e")

    # scene points
    for p in vertices:
        circle("vertex", p, "4", "#1f77b4")
    for p in touches:
        circle("touch", p, "2.5", "#d62728")

    for i, note in enumerate(legend):
        parts.append(
            f'<text class="legend" x="8" y="{16 + 14 * i}" font-size="11" '
            f'fill="#444444">{note}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
