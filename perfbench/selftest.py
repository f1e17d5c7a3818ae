"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps to its format, and layer_map.json covers exactly
   its per-layer metrics.
2. A tiny pass of every workload, untraced and traced, prints every metric
   BENCHMARK.json names for that mode, with its unit, and no failed op.
3. Each output gate reports a failure when fed a deliberately wrong
   expected value.

Exits 1 if any check fails.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        problems.append(what)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the six keys")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [
        w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "names are unique and well formed")
    check(all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
          "units are well formed")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every workload has a one-line why")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    check(all(0 < m["bound"] <= 0.25 for m in e2e.values()), "bounds are within (0, 0.25]")
    check(e2e.get("setup_s", {}).get("bound") == max(m["bound"] for m in e2e.values()),
          "setup_s has the largest bound")
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    mapped = [n for layer in layer_map["layers"] for n in layer["metrics"]]
    check(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
          "layer_map.json maps every per-layer metric exactly once")
    return spec


def check_tiny_runs(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            what = f"tiny {w['name']} --trace {trace}"
            try:
                out = json.loads(res.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                check(False, f"{what}: no result line (exit {res.returncode}) {res.stderr[-300:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(res.returncode == 0 and got == want,
                  f"{what}: prints every {key} metric with its unit")
            check(set(out) == {"correct", "attempted", "failed", "metrics"}
                  and out["correct"] is True and out["attempted"] >= 1 and out["failed"] == 0,
                  f"{what}: correct, {out.get('attempted')} attempted, {out.get('failed')} failed")


def fails(w, ops) -> bool:
    """True if any of the ops reports a gate failure."""
    return any(w.run_op(i)[1] for i in ops)


def check_gates() -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    for gates, ops, what in (
        (W.PolygonGates(closure_tol=0.0), range(9), "closure tolerance 0"),
        (W.PolygonGates(verify_limit=0.0), range(9), "scene residual limit 0"),
        (W.PolygonGates(bracket_limits={"7": 0.0, "8": 0.0, "9": 0.0}), (1, 3, 5), "bracket limit 0"),
    ):
        w = W.Polygons(3, ROOT, gates)
        w.setup()
        check(fails(w, ops), f"polygons gate fails on {what}")

    w = W.Closure(3, ROOT, {n: c + 1 for n, c in W.EXPECTED_COUNTS.items()})
    w.setup()
    check(fails(w, [0]), "closure count gate fails on a wrong expected count")
    w = W.Closure(3, ROOT)
    w.setup()
    roots15 = W.Closure.QUESTIONS.index(("roots", 15))
    w.counts[0, 15] = W.EXPECTED_COUNTS[15] + 1
    failure = w.run_op(roots15)[1]
    check(bool(failure) and failure.startswith("roots-count-mismatch"),
          "closure roots gate fails when the count it must match is wrong")

    w = W.Porism(3, ROOT, closure_tol=0.0)
    w.setup()
    check(fails(w, [0]), "porism walk gate fails on closure tolerance 0")
    w = W.Porism(3, ROOT, ref_certs={n: b"wrong" for n in range(7, 13)})
    w.setup()
    check(fails(w, [2]), "porism certificate gate fails on a wrong reference certificate")

    w = W.Cli(3, ROOT)
    try:
        w.setup()
        check(not fails(w, range(len(w.commands))), "cli mix passes every gate as set up")
        for gates, op, what in (
            (replace(w.gates, exit_code=1), 1, "exit code 1 expected"),
            (replace(w.gates, verify_passed=False), 6, "verify expected to fail"),
            (replace(w.gates, counts={8: 3, 12: 5}), 8, "wrong expected count"),
        ):
            w.gates = gates
            check(fails(w, [op]), f"cli gate fails on {what}")
        w.gates = W.CliGates()
        w.digests = {i: "0" * 64 for i in w.digests}
        check(fails(w, [2]), "cli gate fails on a wrong reference digest")
    finally:
        w.close()


def main() -> int:
    spec = check_spec()
    check_tiny_runs(spec)
    check_gates()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
