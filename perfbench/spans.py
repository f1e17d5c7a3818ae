"""Layer tracing from outside the library.

``Tracer.install()`` replaces the named public functions and methods of
``poncelet`` with timing wrappers wherever callers look them up: every
``poncelet.*`` module attribute bound to the function object, and the class
attribute for methods.  ``uninstall()`` puts the originals back.  Spans
(name, start, end, parent span, op id, exception class) are kept in memory
and written out after the run; the three highest-frequency primitives only
bump counters, so their time stays in their caller's self time.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute) of every traced callable; "Class.method" names a method.
SPAN_TARGETS = (
    ("projective", "line_conic_intersect"),
    ("projective", "tangents_from_point"),
    ("projective", "conic_fit"),
    ("projective", "conic_fit_lines"),
    ("projective", "conic_through_5"),
    ("projective", "conic_through_5_lines"),
    ("rp1", "make_chart"),
    ("rp1", "StereoChart.project"),
    ("constructions", "moderate_chart"),
    ("constructions", "construct_heptagon_p6"),
    ("constructions", "construct_octagon_p7"),
    ("constructions", "construct_ninegon_p4"),
    ("constructions", "complete_hexagon_p6"),
    ("constructions", "complete_heptagon"),
    ("constructions", "complete_octagon"),
    ("constructions", "doubling"),
    ("constructions", "chain_iterate_joinmeet"),
    ("constructions", "polygon_scene"),
    ("chains", "chain_step"),
    ("chains", "closure_test"),
    ("chains", "closure_system"),
    ("chains", "closure_roots"),
    ("chains", "count_solutions"),
    ("ratpoly", "chain_next_vector"),
    ("ratpoly", "poly_gcd"),
    ("ratpoly", "normalize_pair"),
    ("ratpoly", "exact_newton"),
    ("configurations", "canonical_certificate"),
    ("configurations", "incidence_configuration"),
    ("configurations", "verify_n4"),
    ("configurations", "config_from_chain_trace"),
    ("configurations", "grunbaum_rigby"),
    ("document", "SceneDocument.to_json"),
    ("document", "SceneDocument.from_json"),
    ("svg", "render_svg"),
)
COUNT_TARGETS = (
    ("projective", "proj_distance"),
    ("projective", "join"),
    ("projective", "meet"),
    ("rp1", "next_chain_point"),
    ("cli", "sample_ring_points"),
)

# Fields of one span record.
NAME, START, END, PARENT, OP, EXC = range(6)


class Tracer:
    """Wraps the targets in place; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # observations made on return values, see _observe
        self.center_charts = 0
        self.center_repeats = 0
        self._centers: dict[int, set] = defaultdict(set)
        self.system_inputs: set = set()
        self.coeff_bits_max = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "poncelet" or name.startswith("poncelet."))
        ]
        for mod_name, attr in SPAN_TARGETS + COUNT_TARGETS:
            counted = (mod_name, attr) in COUNT_TARGETS
            owner = sys.modules[f"poncelet.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._span(attr, raw.__func__))
                else:
                    new = self._span(attr, raw)
                self._patch(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = self._count(attr, orig) if counted else self._span(attr, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, new)

    def uninstall(self) -> None:
        for holder, key, old in reversed(self._restore):
            setattr(holder, key, old)
        self._restore.clear()

    def _patch(self, holder, key, new) -> None:
        self._restore.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, new)

    def _count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[EXC] = type(exc)
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            self._observe(name, args, out, parent)
            return out

        return traced

    def _observe(self, name, args, out, parent) -> None:
        if name == "make_chart" and parent >= 0 and self.spans[parent][NAME] == "moderate_chart":
            key = tuple(out.center.coords)
            seen = self._centers[parent]
            self.center_charts += 1
            self.center_repeats += key in seen
            seen.add(key)
        elif name == "closure_system":
            self.system_inputs.add(tuple(str(v) for v in args[0]))
            self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(out.genuine))

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, total time and self time of the spans."""
        calls: Counter[str] = Counter(self.counters)
        total: dict[str, float] = defaultdict(float)
        self_t: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            dur = rec[END] - rec[START]
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += dur
        nested_system = 0.0
        for idx, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            calls[rec[NAME]] += 1
            total[rec[NAME]] += dur
            self_t[rec[NAME]] += dur - child[idx]
            if (
                rec[NAME] == "closure_system"
                and rec[PARENT] >= 0
                and self.spans[rec[PARENT]][NAME] == "closure_roots"
            ):
                nested_system += dur
        return {
            "calls": calls,
            "total": total,
            "self": self_t,
            "roots_polish": total["closure_roots"] - nested_system,
        }

    def top_level_exceptions(self) -> list[tuple[int, type]]:
        """(op, exception class) of every outermost span that raised."""
        return [
            (rec[OP], rec[EXC]) for rec in self.spans
            if rec[PARENT] < 0 and rec[EXC] is not None
        ]

    def write(self, path) -> None:
        """One JSON object per span, then one with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "op": rec[OP],
                    "exc": rec[EXC].__name__ if rec[EXC] else None,
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for c in poly.c:
        parts = (c.re, c.im) if hasattr(c, "re") else (c,)
        for part in parts:
            f = Fraction(part)
            best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best
