"""Print the ROADMAP baseline rows from traced benchmark records.

    python3 perfbench/run.py --workload W --seed 0 --seconds 15 --trace 1   # each workload
    python3 perfbench/baseline_table.py [--seed 0]

Reads .perfbench_out/<workload>-seed<seed>-trace1.json (and the spans file
of branch-solve) and prints one markdown row per baseline item. All times
come from the traced run, so they include the wrapper cost that
trace.overhead_frac reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".perfbench_out")


def load(workload: str, seed: int, suffix: str = "") -> dict:
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace1{suffix}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def branch_breakdown(seed: int, n: int) -> tuple[float, dict[str, float]]:
    """Median wall of branch_Z(n, ...) and the share of it each layer covers."""
    spans = load("branch-solve", seed, "-spans")["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    walls, shares = [], defaultdict(list)
    for root in (s for s in spans if s[1] == "bethe.branch_Z" and s[6]["n"] == n):
        wall = root[3] - root[2]
        walls.append(wall / 1e6)
        busy = defaultdict(float)
        stack = list(children[root[0]])
        while stack:  # outermost span of each name, so nested calls are not counted twice
            s = stack.pop()
            busy[s[1]] += s[3] - s[2]
            stack += [c for c in children[s[0]] if c[1] != s[1]]
        for name, t in busy.items():
            shares[name].append(t / wall)
    return statistics.median(walls), {k: statistics.median(v) for k, v in shares.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    cr = load("crossing-refine", seed)
    ex = load("exceptional-search", seed)
    sg = load("spectrum-grid", seed)
    st = cr["span_stats"]
    rows = [
        ("`_eps_levels`, n_max 200, k 12 (dense build + `eigh`), crossing-refine",
         f"{st['fock.levels']['p50_ms']:.2f} ms per point (build {st['fock.build']['p50_ms']:.2f} ms, "
         f"eigh {st['fock.eigensolve']['p50_ms']:.2f} ms); {st['fock.eigensolve']['calls']:.0f} "
         f"eigensolves per pass, {cr['per_layer']['fock.refine.eigensolves']:.0f} inside "
         f"`_golden_min` ({cr['per_layer']['fock.refine.events']:.0f} refinements)"),
        ("F = `exceptional_condition`, exceptional-search",
         " / ".join(f"{ex['per_layer'][f'bethe.F.p50_us.n{n}']:.0f} µs (n={n})" for n in (2, 8, 12))),
    ]
    wall3, share3 = branch_breakdown(seed, 3)
    top = sorted(share3.items(), key=lambda kv: -kv[1])[:4]
    rows.append(("`branch_Z` n=3, 120 starts, branch-solve",
                 f"{wall3:.2f} s; " + ", ".join(f"{k} {100 * v:.0f}%" for k, v in top)))
    modes = {**sg["span_stats"], **ex["span_stats"]}
    rows.append(("CLI `spectrum-scan` (240) / `weak-compare` (120) / `strong-compare` (40) / "
                 "`crossing-count` (60) / `exceptional` n=0 (50) / `rabi-markers` (n<=7)",
                 " / ".join(f"{modes[f'cli.mode.{m}']['busy_s']:.2f}" for m in (
                     "spectrum-scan", "weak-compare", "strong-compare", "crossing-count",
                     "exceptional", "rabi-markers")) + " s"))
    print("| what | cost |\n|---|---|")
    for what, cost in rows:
        print(f"| {what} | {cost} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
