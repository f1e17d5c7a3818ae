"""The four benchmark workloads.

Each workload draws a fixed list of ``round_ops`` ops from the seed alone
and serves them to a single caller, one at a time (a closed loop).
``run_op(i)`` runs op ``i`` of that list and returns the op's latency group
and ``None`` or a failure message from the output gates; calling it again
with the same ``i`` repeats the identical op, so a run can replay the list
and keep each op's best time.  The library is always reached through
``poncelet.<name>`` or a class attribute, so a traced pass sees every call.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import poncelet as P
from poncelet import cli as pcli
from poncelet.errors import ConstructionDegeneracy, DegenerateInput, NoValidLabeling

# Errors the construct retry loop absorbs by drawing again, in the order
# they are tried when a redraw is attributed to a class.
REDRAW_ERRORS = (ConstructionDegeneracy, NoValidLabeling, DegenerateInput)
REDRAW_REASONS = ("improper",) + tuple(e.__name__ for e in REDRAW_ERRORS)

# Gate failures the parent commit already shows.  They count as failed ops
# but leave a run ``correct``; any other gate failure makes it incorrect.
KNOWN_DEFECTS = (
    # closure_roots accepts fewer roots than count_solutions counts
    "roots-count-mismatch",
    # the construct pipeline accepts polygons whose closure gap exceeds
    # DEFAULT.closure: ill-conditioned nine-gon and doubled draws reach 1e-8
    # to 1e-5, which `poncelet verify` (1e-7) or construct (1e-6) may reject
    "closure-above-tolerance",
)


def redraw_reason(exc_type: type) -> str:
    for cls in REDRAW_ERRORS:
        if issubclass(exc_type, cls):
            return cls.__name__
    return exc_type.__name__


def proper(points, gap: float) -> bool:
    """The construct command's properness rule: vertices pairwise apart."""
    return all(
        P.proj_distance(points[i], points[j]) > gap
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def median_ms(values) -> tuple[float, str, int]:
    values = list(values)
    return statistics.median(values) * 1e3, "ms", len(values)


class Workload:
    name = ""
    # Ops in the seed's list; a run replays it while time is left.  Short
    # lists replay often, so each op's best latency escapes the machine's
    # slow spells (on a shared 2-core VM, speed drops by up to 60% for
    # seconds to minutes).
    round_ops = 1
    cycle = 1        # a run stops only after a whole cycle of op kinds
    trace_ops = 0    # ops in one traced pass
    tiny_ops = 0     # ops in the self-test's traced pass
    tail_pct = 90.0  # highest percentile that keeps ten of round_ops beyond it
    setup_reps = 5   # set-ups spread through a run; setup_s is their median

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int) -> tuple[str, str | None]:
        raise NotImplementedError

    def traced_op(self, i: int) -> tuple[str, str | None]:
        """Op ``i`` as the traced run issues it."""
        return self.run_op(i)

    def op_latency(self, i: int) -> float | None:
        """Best latency of op ``i`` if the workload times it by parts."""
        return None

    def report(self, best: dict[int, float], groups: dict[int, str]) -> dict:
        """Workload-specific figures: name -> (value, unit, samples)."""
        return {}

    def draws(self, tracer, ops: int) -> tuple[int, Counter, int]:
        """(draws, redraws by reason, ops that draw) of ops 0..ops-1."""
        return 0, Counter(), 0

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# polygons


@dataclass(frozen=True)
class PolygonGates:
    closure_tol: float = P.DEFAULT.closure
    # acceptance criteria 3, 4 and 5
    bracket_limits: dict = field(default_factory=lambda: {"7": 1e-9, "8": 1e-9, "9": 1e-8})
    verify_limit: float = 1e-6  # what cmd_construct requires of every residual


class Polygons(Workload):
    """Seeded construct pipelines: build, fit, closure-check, bracket gap."""

    name = "polygons"
    KINDS = (
        ("6", 0), ("7", 0), ("7", 1), ("8", 0), ("8", 1),
        ("9", 0), ("9", 1), ("9", 2), ("double", 0),
    )
    round_ops = 15 * len(KINDS)
    cycle = len(KINDS)
    trace_ops = 10 * len(KINDS)
    tiny_ops = len(KINDS)
    tail_pct = 90.0

    def __init__(self, seed: int, root: Path, gates: PolygonGates = PolygonGates()):
        self.seed = seed
        self.gates = gates

    def setup(self) -> None:
        self.rng = random.Random(f"warm-up {self.seed}")
        self.states: list = []
        self.op_draws: dict[int, Counter] = {}
        for i in range(len(self.KINDS)):
            self.run_op(i)
        self.rng = random.Random(self.seed)
        self.states = []
        self.op_draws = {}

    def run_op(self, i: int) -> tuple[str, str | None]:
        # op i always starts from the random state it first started from
        if i < len(self.states):
            self.rng.setstate(self.states[i])
        else:
            self.states.append(self.rng.getstate())
        kind, branch = self.KINDS[i % len(self.KINDS)]
        draws = self.op_draws[i] = Counter()
        for _ in range(pcli.RETRY_BUDGET):
            pts = pcli.sample_ring_points(self.rng, 5)
            try:
                scene = self._build(kind, branch, pts)
                if scene is None:
                    draws["improper"] += 1
                    continue
                rep = P.closure_test(scene.outer, scene.inner, scene.vertices[0], scene.n)
                residuals = scene.verify()
                gap = self._bracket_gap(kind, scene)
            except REDRAW_ERRORS as exc:
                draws[redraw_reason(type(exc))] += 1
                continue
            draws["accepted"] += 1
            return kind, self._check(kind, rep, residuals, gap)
        return kind, f"{kind}: {pcli.RETRY_BUDGET}-draw budget exhausted"

    @staticmethod
    def _build(kind: str, branch: int, pts: list):
        """The construct command's pipeline for one draw; None if improper."""
        if kind == "double":
            scene, _ = P.doubling(P.polygon_scene(pts, 5))
            return scene
        gap = pcli.PROPERNESS_GAP
        if kind == "6":
            verts = pts + [P.complete_hexagon_p6(pts)]
        elif kind == "7":
            p6, _ = P.construct_heptagon_p6(pts, branch)
            verts = pts + [p6, P.complete_heptagon(pts + [p6])]
        elif kind == "8":
            p7, _ = P.construct_octagon_p7(pts, branch)
            p6, p8, _ = P.complete_octagon(pts, p7)
            verts = pts + [p6, p7, p8]
        else:
            cands, _ = P.construct_ninegon_p4(pts)
            p4 = cands[branch]
            chart = P.moderate_chart(P.conic_fit(pts + [p4]), pts + [p4])
            xs = [chart.project(p) for p in (pts[0], pts[1], pts[2], p4, pts[3], pts[4])]
            while len(xs) < 9:
                xs.append(P.next_chain_point(xs[-6:]))
            verts = [chart.lift(x) for x in xs]
            gap = 0.02
        if not proper(verts, gap):
            return None
        return P.polygon_scene(verts, len(verts))

    @staticmethod
    def _bracket_gap(kind: str, scene) -> float | None:
        if kind not in ("7", "8", "9"):
            return None
        verts = list(scene.vertices)
        chart = P.moderate_chart(scene.outer, verts)
        xs = [chart.project(p) for p in verts]
        if kind == "7":
            return P.heptagon6_residual(xs[:6]).scaled_gap
        sel = [xs[0], xs[1], xs[2], xs[3], xs[4], xs[6]]
        residual = P.octagon_point7_residual if kind == "8" else P.ninegon_residual
        return residual(sel).scaled_gap

    def _check(self, kind, rep, residuals, gap) -> str | None:
        g = self.gates
        closure = max(rep.residual_p, rep.residual_q)
        worst = max(residuals.values())
        if not worst <= g.verify_limit:
            return f"{kind}: scene residual {worst:.2e}"
        if not closure < g.closure_tol:
            return f"closure-above-tolerance {kind}: closure gap {closure:.2e}"
        if gap is not None and not gap < g.bracket_limits[kind]:
            return f"{kind}: bracket gap {gap:.2e}"
        return None

    def draws(self, tracer, ops: int) -> tuple[int, Counter, int]:
        n_ops = min(ops, len(self.op_draws))
        draws: Counter = Counter()
        for i in range(n_ops):
            draws.update(self.op_draws[i])
        n_draws = sum(draws.values())
        del draws["accepted"]
        return n_draws, draws, n_ops


# ---------------------------------------------------------------------------
# closure

# criterion 2 up to n=12; above it, the values the parent commit gives
EXPECTED_COUNTS = {6: 1, 7: 2, 8: 2, 9: 3, 10: 4, 11: 5, 12: 5, 13: 7, 14: 8, 15: 9, 16: 10}
STRATA_FILE = Path(__file__).with_name("closure_strata.json")


def count_sampler_input(seed: int) -> list[Fraction]:
    """The five values ``poncelet count --seed <seed>`` tries first."""
    rng = random.Random(seed)
    vals: list[Fraction] = []
    while len(vals) < 5:
        f = Fraction(rng.randrange(-40, 40), rng.randrange(1, 8))
        if f not in vals:
            vals.append(f)
    return vals


class Closure(Workload):
    """Exact closure counting for every n up to 16, roots at the top two."""

    name = "closure"
    TOP = 16
    QUESTIONS = tuple(("count", n) for n in range(6, TOP + 1)) + (("roots", 15), ("roots", 16))
    round_ops = 4 * len(QUESTIONS)  # one input from each stratum of closure_strata.json
    cycle = len(QUESTIONS)
    trace_ops = 2 * len(QUESTIONS)
    tiny_ops = 4
    tail_pct = 75.0

    def __init__(self, seed: int, root: Path, expected: dict = EXPECTED_COUNTS):
        self.seed = seed
        self.expected = expected

    def setup(self) -> None:
        pool = json.loads(STRATA_FILE.read_text(encoding="utf-8"))
        cost = {int(s): c for s, c in pool["cost_s"].items()}
        rng = random.Random(self.seed)
        # one input per cost stratum, redrawn until the set costs about the
        # same as every other seed's: the seed changes the inputs, not the work
        for _ in range(100_000):
            picks = [rng.choice(stratum) for stratum in pool["strata"]]
            if abs(sum(cost[s] for s in picks) / pool["target_s"] - 1) <= pool["tolerance"]:
                break
        else:
            raise RuntimeError(f"no input set near {pool['target_s']} s in {STRATA_FILE.name}")
        self.inputs = [count_sampler_input(s) for s in picks]
        self.counts: dict[tuple[int, int], int] = {}
        P.count_solutions([-1, 0, 1, 4, 5], 6)

    def run_op(self, i: int) -> tuple[str, str | None]:
        j, q = divmod(i, len(self.QUESTIONS))
        call, n = self.QUESTIONS[q]
        vals = self.inputs[j]
        if call == "count":
            got = P.count_solutions(vals, n)
            self.counts[j, n] = got
            if got != self.expected[n]:
                return call, f"count n={n}: {got}, expected {self.expected[n]}"
            return call, None
        accepted = sum(r.accepted for r in P.closure_roots(vals, n))
        counted = self.counts[j, n]
        if accepted != counted:
            return call, f"roots-count-mismatch n={n}: {accepted} accepted, {counted} counted"
        return call, None

    def report(self, best, groups):
        roots = [best[k] for k in best if groups[k] == "roots"]
        return {"roots_ms_p50": median_ms(roots)} if roots else {}


# ---------------------------------------------------------------------------
# porism


def random_map(rng: random.Random) -> P.ProjMap:
    """Well-conditioned random projective map."""
    while True:
        rows = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        try:
            m = P.ProjMap(rows)
        except P.errors.GeometryError:
            continue
        if abs(m.det) > 0.05:
            return m


class Porism(Workload):
    """Closing scenes walked synthetically, then turned into configurations.

    An op's latency is the sum of the best times of its parts (each walk
    start, the configuration, the (21_4) check): every part is one
    deterministic computation, and short parts escape slow spells more often
    than a whole op does.
    """

    name = "porism"
    PERIODS = tuple(range(5, 13))
    STARTS = 40
    WRAPS = 3
    round_ops = 2 * len(PERIODS)
    cycle = len(PERIODS)
    trace_ops = 2 * len(PERIODS)
    tiny_ops = len(PERIODS)
    tail_pct = 100.0  # sixteen distinct ops: the tail is the slowest one

    def __init__(self, seed: int, root: Path, ref_certs: dict | None = None,
                 closure_tol: float = P.DEFAULT.closure):
        self.seed = seed
        self.closure_tol = closure_tol
        self.given_certs = ref_certs

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.scenes = []
        for i in range(self.round_ops):
            n = self.PERIODS[i % len(self.PERIODS)]
            m = random_map(rng)
            base = P.concentric_scene(n, start_angle=rng.uniform(0, 2 * math.pi))
            starts = [
                P.apply_map(m, P.ProjPoint(math.cos(a), math.sin(a), 1))
                for a in (rng.uniform(0, 2 * math.pi) for _ in range(self.STARTS))
            ]
            self.scenes.append((P.transformed_scene(base, m), starts))
        # every certificate of one n must equal the untransformed scene's
        self.ref_certs = self.given_certs or {
            n: self._configuration(P.concentric_scene(n))[2]
            for n in self.PERIODS if n >= 7
        }
        self.parts: dict[int, dict] = {}

    def _part(self, i: int, part, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        took = perf_counter() - t0
        best = self.parts.setdefault(i, {})
        best[part] = min(best.get(part, math.inf), took)
        return out

    def op_latency(self, i: int) -> float:
        return sum(self.parts[i].values())

    @staticmethod
    def _configuration(scene):
        chain = P.chain_iterate_joinmeet(list(scene.vertices[:6]), scene.outer, scene.n - 3)
        cfg, _ = P.config_from_chain_trace(chain)
        return chain, P.verify_n4(cfg).passed, P.canonical_certificate(cfg)

    @staticmethod
    def _grunbaum_rigby(scene):
        cfg, residual = P.grunbaum_rigby(P.PointRing(tuple(scene.vertices)))
        return residual, P.verify_n4(cfg).passed, P.canonical_certificate(cfg)

    def run_op(self, i: int) -> tuple[str, str | None]:
        scene, starts = self.scenes[i]
        n = scene.n
        failures = []
        for k, start in enumerate(starts):
            rep = self._part(i, k, P.closure_test, scene.outer, scene.inner, start, n * self.WRAPS)
            if not (rep.residual_p < self.closure_tol and rep.residual_q < self.closure_tol):
                failures.append(f"n={n}: walk gap {max(rep.residual_p, rep.residual_q):.2e}")
        if n >= 7:
            chain, passed, cert = self._part(i, "config", self._configuration, scene)
            if chain.closed_period != n:
                failures.append(f"n={n}: chain closed at {chain.closed_period}")
            if not passed:
                failures.append(f"n={n}: chain configuration fails verify_n4")
            if cert != self.ref_certs[n]:
                failures.append(f"n={n}: certificate differs")
            if n == 7:
                residual, passed, gcert = self._part(i, "gr", self._grunbaum_rigby, scene)
                if not (residual < 1e-8 and passed):  # criterion 10
                    failures.append(f"(21_4): residual {residual:.2e} or verify_n4 failed")
                if gcert != cert:
                    failures.append("(21_4) certificate differs from the chain one")
        return f"n{n}", (failures[0] if failures else None)

    def report(self, best, groups):
        steps = walk_s = 0
        config = []
        for i, parts in self.parts.items():
            n, starts = self.scenes[i][0].n, len(self.scenes[i][1])
            steps += starts * (n * self.WRAPS + 1)
            walk_s += sum(parts[k] for k in range(starts))
            if "config" in parts:
                config.append(parts["config"])
        return {
            "steps_per_s": (steps / walk_s, "1/s", steps),
            "config_ms_p50": median_ms(config),
        }


# ---------------------------------------------------------------------------
# cli


def child_env(root: Path, pycache: Path) -> dict[str, str]:
    """Environment of a CLI child: the checkout's source, bytecode cached
    in a directory the benchmark owns (as an installed package would)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_child(args: list[str], env: dict, cwd: Path) -> tuple[subprocess.CompletedProcess, float]:
    t0 = perf_counter()
    res = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, timeout=120
    )
    return res, perf_counter() - t0


def probe_startup(env: dict, cwd: Path, reps: int) -> dict[str, float]:
    """Median fresh-process wall time of the interpreter, numpy and the CLI import."""
    probes = {
        "interp_start_ms": "pass",
        "import_numpy_ms": "import numpy",
        "import_ms": "import poncelet.cli",
    }
    return {
        name: statistics.median(run_child(["-c", code], env, cwd)[1] * 1e3 for _ in range(reps))
        for name, code in probes.items()
    }


SAMPLED_CONSTRUCTS = {("construct", k) for k in ("6", "7", "8", "9", "double")}


@dataclass(frozen=True)
class CliGates:
    exit_code: int = 0
    verify_passed: bool = True
    counts: dict = field(default_factory=lambda: {8: 2, 12: 5})  # criterion 2


class Cli(Workload):
    """Fresh ``python -m poncelet.cli`` processes, one command at a time."""

    name = "cli"
    round_ops = 10
    cycle = 10
    trace_ops = 20  # the mix twice, replayed in-process through poncelet.cli.main
    tiny_ops = 10
    tail_pct = 100.0  # ten distinct commands: the tail is the slowest one
    setup_reps = 3    # each set-up runs the ten commands once
    instances = itertools.count()

    def __init__(self, seed: int, root: Path, gates: CliGates = CliGates()):
        self.seed = seed
        self.gates = gates
        self.work = root / ".perfbench" / f"cli-{os.getpid()}-{next(self.instances)}"
        self.env = child_env(root, self.work / "pycache")
        rng = random.Random(seed)
        s = [str(rng.randrange(10**6)) for _ in range(6)]
        out = self.work / "out"
        self.hept = self.work / "hept.json"
        # (argv, output files); construct 7 comes first: set-up copies its
        # document to the input of chain, verify and render
        self.commands = [
            (["construct", "7", "--seed", s[0], "--out", str(out / "c7.json"),
              "--svg", str(out / "c7.svg")], ["c7.json", "c7.svg"]),
            (["construct", "6", "--seed", s[1], "--out", str(out / "c6.json")], ["c6.json"]),
            (["construct", "8", "--seed", s[2], "--out", str(out / "c8.json")], ["c8.json"]),
            (["construct", "9", "--seed", s[3], "--branch", str(int(s[3]) % 3),
              "--out", str(out / "c9.json")], ["c9.json"]),
            (["construct", "double", "--seed", s[4], "--out", str(out / "cd.json")], ["cd.json"]),
            (["construct", "chain", "--in", str(self.hept), "--out", str(out / "chain.json")],
             ["chain.json"]),
            (["verify", "--in", str(self.hept)], []),
            (["render", "--in", str(self.hept), "--out", str(out / "r.svg")], ["r.svg"]),
            (["count", "--n", "8", "--values=-1,0,1,4,5"], []),
            (["count", "--n", "12", "--seed", s[5]], []),
        ]

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "out").mkdir(parents=True)
        run_child(["-c", "import poncelet.cli"], self.env, self.work)
        self.digests = {}
        for idx, (argv, files) in enumerate(self.commands):
            res, _ = run_child(["-m", "poncelet.cli", *argv], self.env, self.work)
            self.digests[idx] = self._digest(res.stdout, files)
            if idx == 0 and res.returncode == 0:
                shutil.copyfile(self.work / "out" / "c7.json", self.hept)
        self.child_s: dict[int, float] = {}

    def _digest(self, stdout: bytes, files: list[str]) -> str:
        h = hashlib.sha256(stdout)
        for name in files:
            path = self.work / "out" / name
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def run_op(self, i: int) -> tuple[str, str | None]:
        argv = self.commands[i][0]
        try:
            res, wall = run_child(["-m", "poncelet.cli", *argv], self.env, self.work)
        except subprocess.TimeoutExpired:
            return argv[0], f"{' '.join(argv[:2])}: timed out"
        self.child_s[i] = min(self.child_s.get(i, math.inf), wall)
        return argv[0], self._check(i, res.returncode, res.stdout)

    def traced_op(self, i: int) -> tuple[str, str | None]:
        """Op ``i`` of the mix replayed through ``poncelet.cli.main`` in this process."""
        idx = i % len(self.commands)
        argv = self.commands[idx][0]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = pcli.main(argv)
        return argv[0], self._check(idx, code, buf.getvalue().encode())

    def _check(self, idx: int, code: int, stdout: bytes) -> str | None:
        argv, files = self.commands[idx]
        what = " ".join(argv[:2])
        if code != self.gates.exit_code:
            return f"{what}: exit code {code}"
        if self._digest(stdout, files) != self.digests[idx]:
            return f"{what}: output bytes differ from set-up"
        if argv[0] == "verify" and json.loads(stdout)["passed"] is not self.gates.verify_passed:
            return f"{what}: verify passed={not self.gates.verify_passed}"
        if argv[0] == "count":
            n = int(argv[2])
            got = json.loads(stdout)["count"]
            if got != self.gates.counts[n]:
                return f"{what}: count {got}, expected {self.gates.counts[n]}"
        return None

    def report(self, best, groups):
        by_sub: dict[str, list[float]] = {}
        for i, wall in self.child_s.items():
            by_sub.setdefault(self.commands[i][0][0], []).append(wall)
        return {f"{sub}_ms_p50": median_ms(walls) for sub, walls in sorted(by_sub.items())}

    def draws(self, tracer, ops: int) -> tuple[int, Counter, int]:
        """Draws of the seeded construct commands, from the traced replay."""
        if tracer is None:
            return 0, Counter(), 0
        sampled = {
            i for i in range(ops)
            if tuple(self.commands[i % len(self.commands)][0][:2]) in SAMPLED_CONSTRUCTS
        }
        n_draws = tracer.counters["sample_ring_points"]
        redraws: Counter = Counter(
            redraw_reason(exc) for op, exc in tracer.top_level_exceptions()
            if op in sampled and issubclass(exc, REDRAW_ERRORS)
        )
        redraws["improper"] = n_draws - len(sampled) - sum(redraws.values())
        return n_draws, redraws, len(sampled)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Polygons, Closure, Porism, Cli)}
