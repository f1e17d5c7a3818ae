"""Regenerate ``closure_strata.json``: the closure workload's input pool.

    python3 perfbench/make_strata.py

The closure workload's inputs are the five values ``poncelet count --seed s``
tries first.  Their exact-arithmetic cost varies threefold from one count
seed to the next, and a run has time for only about four of them, so a
plain random draw would make a run's throughput depend mostly on its seed.
This script times the workload's whole question list (``count_solutions``
for n=6..16, ``closure_roots`` at n=15 and 16) on each count seed
0..POOL-1, best of two passes, and splits the seeds into four equal cost
strata.  A run draws one input from each stratum, so the dearest quartile,
where ``closure_roots`` loses roots, is always in it, and redraws until the
set's measured cost is within ``tolerance`` of the sum of the strata's
median costs.  The file is generated once and committed: the costs only
steer the draw, and a later change to the library does not change the
inputs.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
POOL = 100
STRATA = 4
PASSES = 2
TOLERANCE = 0.02


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import poncelet as P
    from poncelet.errors import DegenerateInput
    from workloads import Closure, count_sampler_input

    cost: dict[int, float] = {}
    for _ in range(PASSES):
        for seed in range(POOL):
            vals = count_sampler_input(seed)
            t0 = perf_counter()
            try:
                for call, n in Closure.QUESTIONS:
                    (P.count_solutions if call == "count" else P.closure_roots)(vals, n)
            except DegenerateInput:
                continue
            cost[seed] = min(cost.get(seed, math.inf), perf_counter() - t0)
            print(f"count seed {seed}: {cost[seed]:.3f} s", flush=True)
    ranked = sorted(cost, key=cost.get)
    size = len(ranked) // STRATA
    strata = [ranked[k * size:(k + 1) * size] for k in range(STRATA)]
    target = sum(statistics.median(cost[s] for s in stratum) for stratum in strata)
    doc = {
        "about": "count --seed values 0..%d in %d strata by the closure workload's cost, "
                 "best of %d passes on %s, Python %s; see make_strata.py"
                 % (POOL - 1, STRATA, PASSES, platform.machine(), platform.python_version()),
        "target_s": round(target, 4),
        "tolerance": TOLERANCE,
        "cost_s": {str(s): round(cost[s], 4) for s in ranked},
        "strata": strata,
    }
    Path(__file__).with_name("closure_strata.json").write_text(json.dumps(doc) + "\n")
    print(f"{len(ranked)} inputs, target {target:.3f} s, strata costs "
          + ", ".join(f"{cost[st[0]]:.2f}..{cost[st[-1]]:.2f} s" for st in strata))
    return 0


if __name__ == "__main__":
    sys.exit(main())
