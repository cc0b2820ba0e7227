"""Write perfbench/reference.json: oracle references for the seed-0 inputs.

    python3 perfbench/make_reference.py [workload ...]

Only the dense-Fock oracle in oracle.py makes the spectral references; the
library under test is not called for them. Each reference is also checked
for adequacy: exceptional-point scans must give the same crossing counts at
three times the resolution and at the library's cutoff n_max = 200, on the
seed-0 inputs and on jittered seeds, so that the per-run references that
run.py computes for other seeds are trustworthy.

Branch counts are the union, over many multistart seeds with many starts,
of branch_Z root sets that pass the oracle's Richardson check. They are
taken at the nominal (kappa, nu) and at the corners of the seed jitter box,
and must agree there, since run.py cannot afford to recompute them.
"""

from __future__ import annotations

import json
import os
import sys
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from rabi_spectra import bethe  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
CHECK_SEEDS = (1, 2)
UNION_SEEDS = (1, 2, 3, 4)
UNION_STARTS = 600


def _counts(ref: dict) -> dict:
    return {k: len(v) for k, v in sorted(ref.items())}


def _check_resolution(make, label: str) -> None:
    base = make()
    fine = make(points=3 * oracle.SCAN_POINTS)
    deep = make(n_max=200)
    if not (_counts(base) == _counts(fine) == _counts(deep)):
        raise SystemExit(f"{label}: reference counts depend on the scan resolution or cutoff:\n"
                         f"{_counts(base)}\n{_counts(fine)}\n{_counts(deep)}")
    print(f"  {label}: {sum(len(v) for k, v in base.items() if k != '-1')} crossings, "
          f"stable at 3x resolution and n_max 200")


def exceptional_checks(inputs: dict, done: set) -> None:
    """Resolution checks of every scan reference not checked yet."""
    rb = inputs["rabi"]
    scans = [(ln, partial(oracle.reference_line, ln), f"line g2={ln['g2']!r}")
             for ln in inputs["lines"]]
    scans.append((rb, partial(oracle.reference_rabi, rb["omega"], rb["omega0"], rb["g_lo"],
                              rb["g_hi"], max(rb["n_levels"]) + 1), "rabi line"))
    for cfg in inputs["cli"]:
        if cfg["mode"] == "rabi-markers":
            lo, hi, _ = (float(x) for x in cfg["g-range"].split(":"))
            scans.append((cfg, partial(oracle.reference_rabi, cfg["omega"], cfg["omega0"], lo, hi,
                                       cfg["n"] + 1),
                          f"rabi-markers line omega0={cfg['omega0']!r}"))
    for sub, make, label in scans:
        if oracle.ref_key(sub) not in done:
            done.add(oracle.ref_key(sub))
            _check_resolution(make, label)


def branch_union(n: int, kappa: float, nu: float) -> int:
    keys = set()
    for seed in UNION_SEEDS:
        for s in bethe.branch_Z(n, kappa, nu, extra_starts=UNION_STARTS, seed=seed):
            b = (s.branch_id, s.Z1, s.Z2, s.residual_max, [(z.real, z.imag) for z in s.roots])
            if oracle.branch_ok(n, kappa, nu, b):
                keys.add(oracle.branch_key(b))
    return len(keys)


def main(argv: list[str]) -> int:
    names = argv or ["crossing-refine", "exceptional-search", "branch-solve"]
    store = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            store = json.load(fh)
    for workload in names:
        print(workload)
        inputs = workloads.make_inputs(workload, 0)
        if workload == "branch-solve":
            refs = {}
            for n, kappa, nu, _, fixed in workloads.BRANCH_CASES:
                box = [(kappa, nu)] if fixed else [
                    (kappa * (1 + a * workloads.BRANCH_JITTER), nu * (1 + b * workloads.BRANCH_JITTER))
                    for a, b in ((0, 0), (-1, -1), (1, 1), (-1, 1), (1, -1))]
                counts = [branch_union(n, k, v) for k, v in box]
                print(f"  branch_Z({n}, {kappa}, {nu}): union counts over the jitter box {counts}")
                if len(set(counts)) != 1:
                    raise SystemExit("branch count changes inside the jitter box")
                refs[oracle.ref_key({"nominal": [n, kappa, nu]})] = counts[0]
        else:
            if workload == "exceptional-search":
                done: set = set()
                for seed in (0,) + CHECK_SEEDS:
                    exceptional_checks(workloads.make_inputs(workload, seed), done)
            refs = {key: make() for key, make in oracle.reference_items(workload, inputs)}
        store[workload] = refs
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
