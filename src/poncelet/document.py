"""Scene documents: JSON serialization of scenes, traces and configurations.

One versioned JSON format covers every CLI artifact.  Complex numbers are
stored as [re, im] pairs; homogeneous vectors as length-3 lists of pairs;
conics as their 6 packed symmetric entries.  Floats round-trip exactly
(shortest-repr JSON), so serialize -> parse is lossless.
"""

from __future__ import annotations

import json
from typing import Any

from .chains import PonceletScene
from .configurations import IncidenceConfiguration, incidence_configuration
from .constructions import ConstructionTrace
from .errors import DocumentError, GeometryError
from .projective import Conic, ProjLine, ProjMap, ProjPoint
from .settings import DEFAULT

FORMAT = "poncelet-scene"
VERSION = 1


def _cplx(z: complex) -> list[float]:
    # +0.0 canonicalizes negative zeros, which would not survive a
    # parse -> normalize -> serialize cycle byte-identically
    return [z.real + 0.0, z.imag + 0.0]

def _to_cplx(v) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise DocumentError(f"expected [re, im] pair, got {v!r}")
    return complex(v[0], v[1])


def _cplxs(values) -> tuple[complex, ...]:
    return tuple(_to_cplx(v) for v in values)


def _vec(coords) -> list[list[float]]:
    return [_cplx(z) for z in coords]


def _element_to_json(el) -> dict[str, Any]:
    if isinstance(el, ProjPoint):
        return {"kind": "point", "coords": _vec(el.coords)}
    if isinstance(el, ProjLine):
        return {"kind": "line", "coords": _vec(el.coords)}
    if isinstance(el, Conic):
        return {"kind": "conic", "entries": _vec(el.entries)}
    if isinstance(el, ProjMap):
        return {"kind": "map", "rows": [_vec(r) for r in el.rows]}
    raise DocumentError(f"unserializable trace element {type(el).__name__}")


def _element_from_json(d) -> Any:
    kind = d.get("kind")
    if kind == "point":
        return ProjPoint(_cplxs(d["coords"]), stored=True)
    if kind == "line":
        return ProjLine(_cplxs(d["coords"]), stored=True)
    if kind == "conic":
        return Conic(_cplxs(d["entries"]), stored=True)
    if kind == "map":
        return ProjMap(tuple(_cplxs(row) for row in d["rows"]), stored=True)
    raise DocumentError(f"unknown trace element kind {kind!r}")


def _typed(d: dict, key: str, kind: type, default):
    value = d.get(key, default)
    if value is not default and (type(value) is bool or not isinstance(value, kind)):
        raise DocumentError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _period(n) -> int | None:
    if n is not None and (type(n) is not int or n < 1):
        raise DocumentError(f"period n must be a positive integer, got {n!r}")
    return n


# element types an incidence relates, in the order the trace records them
_INCIDENCE_TYPES = {"incident": (ProjPoint, ProjLine), "on_conic": (ProjPoint, Conic)}


def _trace_from_json(t: dict) -> ConstructionTrace:
    tr = ConstructionTrace()
    for k, v in t.get("elements", {}).items():
        tr.elements[k] = _element_from_json(v)
    tr.branches = [(s, int(i)) for s, i in t.get("branches", [])]
    tr.incidences = [tuple(x) for x in t.get("incidences", [])]
    tr.notes = list(t.get("notes", []))
    for inc in tr.incidences:
        types = _INCIDENCE_TYPES.get(inc[0]) if len(inc) == 3 else None
        if types is None or not all(
            isinstance(tr.elements.get(label), t) for label, t in zip(inc[1:], types)
        ):
            raise DocumentError(f"trace incidence {list(inc)!r} names a missing element")
    return tr


class SceneDocument:
    """Everything one CLI invocation produced, in serializable form."""

    def __init__(self, kind: str, n: int | None = None, seed: int | None = None,
                 command: str = "", tolerance: float = DEFAULT.rel,
                 scene: PonceletScene | None = None, trace: ConstructionTrace | None = None,
                 residuals: dict[str, float] | None = None,
                 configuration: IncidenceConfiguration | None = None) -> None:
        self.kind, self.n, self.seed, self.command = kind, n, seed, command
        self.tolerance, self.scene, self.trace = tolerance, scene, trace
        self.residuals = {} if residuals is None else residuals
        self.configuration = configuration

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "format": FORMAT,
            "version": VERSION,
            "kind": self.kind,
            "precision": "double",  # the only precision there is; from_dict checks it
            "tolerance": self.tolerance,
            "command": self.command,
        }
        if self.n is not None:
            out["n"] = self.n
        if self.seed is not None:
            out["seed"] = self.seed
        if self.scene is not None:
            out["scene"] = {
                "outer": _vec(self.scene.outer.entries),
                "inner": _vec(self.scene.inner.entries),
                "vertices": [_vec(p.coords) for p in self.scene.vertices],
                "touch_points": [_vec(p.coords) for p in self.scene.touch_points],
                "n": self.scene.n,
            }
        if self.trace is not None:
            out["trace"] = {
                "elements": {
                    k: _element_to_json(v) for k, v in sorted(self.trace.elements.items())
                },
                "branches": [[s, i] for s, i in self.trace.branches],
                "incidences": [list(t) for t in self.trace.incidences],
                "notes": list(self.trace.notes),
            }
        if self.residuals:
            out["residuals"] = dict(sorted(self.residuals.items()))
        if self.configuration is not None:
            cfg = self.configuration
            out["configuration"] = {
                "points": [_vec(p.coords) for p in cfg.points],
                "lines": [_vec(l.coords) for l in cfg.lines],
                "point_labels": cfg.point_labels,
                "line_labels": cfg.line_labels,
                "threshold": cfg.threshold,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SceneDocument":
        if not isinstance(d, dict):
            raise DocumentError("document root must be an object")
        if d.get("format") != FORMAT:
            raise DocumentError(f"not a {FORMAT} document")
        if d.get("version") != VERSION:
            raise DocumentError(f"unsupported document version {d.get('version')!r}")
        if d.get("precision", "double") != "double":
            raise DocumentError(f"unsupported precision {d['precision']!r}")
        try:
            doc = cls(
                kind=_typed(d, "kind", str, ""),
                n=_period(d.get("n")),
                seed=_typed(d, "seed", int, None),
                command=_typed(d, "command", str, ""),
                tolerance=float(d.get("tolerance", DEFAULT.rel)),
            )
            if "scene" in d:
                s = d["scene"]
                doc.scene = PonceletScene(
                    Conic(_cplxs(s["outer"]), stored=True),
                    Conic(_cplxs(s["inner"]), stored=True),
                    tuple(ProjPoint(_cplxs(p), stored=True) for p in s["vertices"]),
                    tuple(ProjPoint(_cplxs(p), stored=True) for p in s["touch_points"]),
                    _period(s.get("n")),
                )
                count = len(doc.scene.vertices)
                # the closure check walks n chain steps: n must be the scene's own period
                for name, n in (("n", doc.n), ("scene.n", doc.scene.n)):
                    if n is not None and n != count:
                        raise DocumentError(f"{name} = {n} differs from the scene's {count} vertices")
                # one touch point per edge: k of them if closed, else k - 1
                edges = count if doc.scene.closed else count - 1
                if edges < 1:
                    raise DocumentError("scene has no edge")
                if len(doc.scene.touch_points) != edges:
                    raise DocumentError(f"scene has {len(doc.scene.touch_points)} touch points for {edges} edges")
            if "trace" in d:
                doc.trace = _trace_from_json(d["trace"])
            if "residuals" in d:
                doc.residuals = {k: float(v) for k, v in d["residuals"].items()}
            if "configuration" in d:
                c = d["configuration"]
                points = [ProjPoint(_cplxs(p), stored=True) for p in c["points"]]
                lines = [ProjLine(_cplxs(l), stored=True) for l in c["lines"]]
                doc.configuration = incidence_configuration(
                    points,
                    lines,
                    float(c.get("threshold", DEFAULT.incidence)),
                    c.get("point_labels"),
                    c.get("line_labels"),
                )
        except DocumentError:
            raise
        except (GeometryError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"malformed document: {exc}") from exc
        return doc

    @classmethod
    def from_json(cls, text: str) -> "SceneDocument":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        return cls.from_dict(data)
