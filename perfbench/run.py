"""Poncelet benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload polygons --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` of the checkout
that holds this file, and nothing is written there.

``--trace 0`` sets the workload up, then replays the seed's op list as a
closed loop, one caller, until ``--seconds`` of ops have passed, the list
has run once and a cycle of op kinds is complete, and keeps each op's best
latency.  ``setup_s`` is the median over the workload's ``setup_reps``
set-ups, each a fresh-interpreter import of the library plus the workload's
input generation and warm-up: the first prepares the run, the others set up
fresh copies of the workload at even intervals through the timed loop (their
time does not count as loop time), so the median follows the machine's speed
over the whole run rather than at one moment.
``ops_per_s`` is the number of ops over the sum of their best latencies.
``attempted`` and ``failed`` count the distinct ops of the list, not their
replays, so both depend on the seed alone; an op fails if any of its runs
fails a gate.

``--trace 1`` runs a fixed, seed-determined list of ops three times,
untraced, with every layer wrapped (see ``spans.py``) and untraced again,
and prints the per-layer metrics; its spans go to ``.perfbench/spans/``.

Lines starting with ``#`` are the human-readable report: the environment,
every figure with its unit and sample count (also ``op_ms_p50``,
``op_ms_tail`` and the workload-specific figures, which the result object
leaves out) and the failures.  The last line is the result object.
Workloads, gates and metrics are described in ``BENCHMARK.json`` and
``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("polygons", "closure", "porism", "cli")
PROBE_REPS = 3
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# groups of traced functions reported as one self time
GROUPS = {
    "conic_fit": ("conic_fit", "conic_fit_lines", "conic_through_5", "conic_through_5_lines"),
    "construct": ("construct_heptagon_p6", "construct_octagon_p7", "construct_ninegon_p4"),
    "complete": ("complete_hexagon_p6", "complete_heptagon", "complete_octagon"),
}
CALLS = (
    "proj_distance", "join", "meet", "line_conic_intersect", "make_chart",
    "StereoChart.project", "next_chain_point", "moderate_chart", "chain_step",
    "closure_system", "chain_next_vector", "poly_gcd", "exact_newton",
    "canonical_certificate",
)
SELF_TIMES = (
    "line_conic_intersect", "tangents_from_point", "conic_fit", "make_chart",
    "StereoChart.project", "construct", "complete", "doubling", "chain_step",
    "chain_next_vector", "poly_gcd", "normalize_pair", "exact_newton",
    "canonical_certificate", "incidence_configuration", "verify_n4",
)
TOTAL_TIMES = (
    "moderate_chart", "chain_iterate_joinmeet", "closure_test", "closure_system",
    "SceneDocument.to_json", "SceneDocument.from_json", "render_svg",
)


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def environment() -> dict[str, str]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "PYTHONDONTWRITEBYTECODE": "set" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "unset",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def tail(values: list[float], pct: float) -> tuple[float, float]:
    """Value at the highest ladder percentile <= pct keeping ten samples beyond it."""
    s = sorted(values)
    for p in LADDER:
        rank = math.ceil(p / 100 * len(s))
        if p <= pct and len(s) - rank >= 10:
            return s[rank - 1], p
    return s[-1], 100.0


def guarded(fn, i: int, failures: dict[int, str]) -> str:
    """One op at the loop boundary: a raised error is a failed op, not a crash.
    ``failures`` keeps the first failure of each op of the list."""
    try:
        group, failure = fn(i)
    except Exception as exc:  # noqa: BLE001 - every op error is counted
        if not failures:
            traceback.print_exc()
        group, failure = "error", f"op {i}: {type(exc).__name__}: {exc}"
    if failure:
        failures.setdefault(i, failure)
    return group


def set_up(w) -> tuple[float, float]:
    """One set-up: (fresh-interpreter import, the workload's own set-up) in seconds."""
    imp = import_seconds()
    t0 = perf_counter()
    w.setup()
    return imp, perf_counter() - t0


def timed_run(w, seconds: float, setups: list, spare: int):
    """Replay the workload's op list until ``seconds`` of ops have passed, the
    list has run once and a cycle is complete; keep each op's best latency.
    ``spare`` set-ups of fresh copies of the workload run at even intervals
    and are added to ``setups``; the loop's deadline moves past them."""
    best: dict[int, float] = {}
    groups: dict[int, str] = {}
    failures: dict[int, str] = {}
    marks = [seconds * (j + 1) / (spare + 1) for j in range(spare)]
    start = perf_counter()
    end = start
    paused = 0.0
    i = 0
    while end < start + paused + seconds or i < w.round_ops or i % w.cycle:
        if marks and end - start - paused >= marks[0]:
            del marks[0]
            copy = type(w)(w.seed, ROOT)
            try:
                setups.append(set_up(copy))
            finally:
                copy.close()
            paused += perf_counter() - end
            end = perf_counter()
        k = i % w.round_ops
        t0 = perf_counter()
        groups[k] = guarded(w.run_op, k, failures)
        end = perf_counter()
        best[k] = w.op_latency(k) or min(best.get(k, math.inf), end - t0)
        i += 1
    return best, groups, failures, i, end - start - paused


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def startup_probes(workloads, w, reps: int) -> dict[str, float]:
    """Fresh-process start-up probes with the CLI children's environment."""
    if isinstance(w, workloads.Cli):
        return workloads.probe_startup(w.env, w.work, reps)
    work = OUT / f"probe-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = workloads.child_env(ROOT, work / "pycache")
        workloads.run_child(["-c", "import poncelet.cli"], env, work)
        return workloads.probe_startup(env, work, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter, measured inside it."""
    code = ("import sys, time; t = time.perf_counter(); import poncelet; "
            "sys.stdout.write(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-B", "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout)


def end_to_end(workloads, w, args) -> tuple[dict, int, dict[int, str]]:
    setups = [set_up(w)]
    spare = 0 if args.tiny else w.setup_reps - 1
    best, groups, failures, executed, elapsed = timed_run(w, args.seconds, setups, spare)
    setup_s = statistics.median(imp + rest for imp, rest in setups)
    say("setup: median of (fresh-interpreter import + workload set-up) over "
        + ", ".join(f"({imp:.4f} + {rest:.4f}) s" for imp, rest in setups))
    lat = list(best.values())
    tail_value, pct = tail(lat, w.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s", len(setups)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "peak_rss_mb": (peak_rss_mb(isinstance(w, workloads.Cli)), "MB", 1),
    }
    # printed, not in the result object: on closure, whose op costs span three
    # orders of magnitude over four inputs, they move ~30% from seed to seed
    extra = {
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "op_ms_tail": (tail_value * 1e3, "ms", len(lat)),
    }
    say(f"closed loop, one caller: {executed} ops executed in {elapsed:.3f} s "
        f"({executed / elapsed:.6g} ops/s as run), {executed / len(lat):.2f} runs of each "
        f"of the {len(lat)} ops on average ({len(failures)} of them failed a gate); "
        f"latencies are each op's best run; "
        f"op_ms_tail is p{pct:g}")
    extra.update(w.report(best, groups))
    extra["fail_ratio"] = (len(failures) / len(lat), "ratio", len(lat))
    n_draws, _, drawing_ops = w.draws(None, len(lat))
    if drawing_ops:
        extra["draws_per_op"] = (n_draws / drawing_ops, "draws/op", drawing_ops)
    if isinstance(w, workloads.Cli):
        for name, value in startup_probes(workloads, w, PROBE_REPS).items():
            extra[name] = (value, "ms", PROBE_REPS)
    for name, (value, unit, n) in list(metrics.items()) + list(extra.items()):
        say(f"metric {name} = {value:.6g} {unit} (n={n})")
    return {k: v[:2] for k, v in metrics.items()}, len(lat), failures


def traced(workloads, spans_mod, w, args) -> tuple[dict, int, dict[int, str]]:
    ops = w.tiny_ops if args.tiny else w.trace_ops
    w.setup()
    failures: dict[int, str] = {}

    def one_pass(tracer=None) -> float:
        t0 = perf_counter()
        for i in range(ops):
            if tracer:
                tracer.op = i
            guarded(w.traced_op, i, failures)
        return perf_counter() - t0

    # untraced passes on both sides of the traced one, against drift
    untraced = [one_pass()]
    tr = spans_mod.Tracer()
    tr.install()
    try:
        wall1 = one_pass(tr)
    finally:
        tr.uninstall()
    untraced.append(one_pass())
    wall0 = statistics.mean(untraced)
    summ = tr.summary()
    n_draws, redraws, drawing_ops = w.draws(tr, ops)
    probes = startup_probes(workloads, w, 1 if args.tiny else PROBE_REPS)

    calls, total, self_t = summ["calls"], summ["total"], summ["self"]
    for group, names in GROUPS.items():
        self_t[group] = sum(self_t[n] for n in names)
    m: dict[str, tuple[float, str]] = {}
    for fn in CALLS:
        m[f"{fn}.calls"] = (calls[fn], "count")
    for fn in SELF_TIMES:
        m[f"{fn}.self_share"] = (self_t[fn] / wall1, "ratio")
    for fn in TOTAL_TIMES:
        m[f"{fn}.share"] = (total[fn] / wall1, "ratio")
    m["closure_roots.polish_share"] = (summ["roots_polish"] / wall1, "ratio")
    m["moderate_chart.repeat_center_ratio"] = (
        tr.center_repeats / tr.center_charts if tr.center_charts else 0.0, "ratio")
    m["closure_system.rebuilds_per_input"] = (
        calls["closure_system"] / len(tr.system_inputs) if tr.system_inputs else 0.0, "count")
    m["coeff_bits_max"] = (tr.coeff_bits_max, "bits")
    m["draws_per_op"] = (n_draws / drawing_ops if drawing_ops else 0.0, "draws/op")
    for reason in workloads.REDRAW_REASONS:
        m[f"redraw_share.{reason}"] = (redraws[reason] / n_draws if n_draws else 0.0, "ratio")
    for name, value in probes.items():
        m[name] = (value, "ms")
    m["trace.overhead_ratio"] = (wall1 / wall0, "ratio")
    m["trace.wall_s"] = (wall1, "s")

    # the same figures as absolute times, under their per-layer names
    say(f"traced {ops} ops: untraced {untraced[0]:.4f} s and {untraced[1]:.4f} s, "
        f"traced {wall1:.4f} s")
    for fn in SELF_TIMES:
        say(f"layer {fn}.self_s = {self_t[fn]:.6g} s")
    for fn in TOTAL_TIMES:
        say(f"layer {fn}.s = {total[fn]:.6g} s")
    say(f"layer closure_roots.polish_s = {summ['roots_polish']:.6g} s")
    if calls["chain_step"]:
        say(f"layer chain_step.us_per_call = {self_t['chain_step'] / calls['chain_step'] * 1e6:.6g} us")
    for name, (value, unit) in m.items():
        say(f"layer {name} = {value:.6g} {unit}")

    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    path = OUT / "spans" / f"{w.name}-seed{args.seed}.jsonl"
    tr.write(path)
    say(f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    return m, ops, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size: one set-up and a few traced ops")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "poncelet" / "__init__.py").is_file():
        print(f"error: no poncelet source at {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # the checkout's src/ stays untouched
    # one caller, one thread: no idle BLAS worker threads, here or in CLI children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import workloads
    import spans as spans_mod
    import poncelet

    if Path(poncelet.__file__).resolve().parent != (src / "poncelet").resolve():
        print(f"error: poncelet was imported from {poncelet.__file__}", file=sys.stderr)
        return 2

    env = environment()
    say("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    w = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.tiny:
        w.round_ops = w.cycle = w.tiny_ops
    say(f"workload {w.name} seed {args.seed}: {w.__doc__}")
    try:
        if args.trace:
            metrics, attempted, failures = traced(workloads, spans_mod, w, args)
        else:
            metrics, attempted, failures = end_to_end(workloads, w, args)
    finally:
        w.close()
    for failure in sorted(set(failures.values()))[:10]:
        say(f"failed: {failure}")
    correct = all(f.startswith(workloads.KNOWN_DEFECTS) for f in failures.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
