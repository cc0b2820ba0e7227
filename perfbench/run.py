"""Benchmark of the rabi-spectra library: one workload, one seed, one run.

    python3 perfbench/run.py --workload exceptional-search --seed 3 --seconds 15 --trace 0

Run from the repository root (the library is imported from ./src). A run

1. starts fresh worker processes one after another, at least MIN_WORKERS
   and more while their passes fit in --seconds. Each times its set-up
   (importing rabi_spectra with numpy, scipy and BLAS, plus one warm-up
   call), makes the workload's inputs from --seed and runs one timed pass.
   Per-process effects (memory layout, thread placement) move a pass by up
   to 20 % on the 2-CPU reference box, so wall_s is the median over
   processes rather than over passes in one process;
2. times set-up alone in more fresh processes until there are
   SETUP_SAMPLES set-up samples (setup_s is their median);
3. has every process time a fixed calibration kernel that does not touch
   the library (``calibrate``) after set-up and after its pass. The shared
   host's speed drifts by 20-60 % over minutes, and set-up, passes and the
   kernel drift together, so wall_s and setup_s are reported at the
   reference speed: measured seconds times CAL_REF_S / calibration seconds
   of the same process. Measured seconds are printed and recorded as well;
4. with --trace 1, runs one worker that spends half the time on untraced
   passes and half on traced ones, and reports per-layer metrics instead
   (measured, not scaled);
5. checks that every pass of every worker returned byte-identical outputs,
   then checks those outputs against the dense Fock oracle (oracle.py);
6. prints a readable summary, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``, and writes the full record
   (environment, samples, oracle notes, spans) under .perfbench_out/.

``attempted`` counts expected outputs (grid rows, crossing events,
exceptional points, Bethe branches); ``failed`` counts wrong, missing and
unverified ones, so fail_frac = failed / attempted. ``correct`` is false
when passes disagree, the traced outputs differ from the untraced ones, or
an output the library reports as good fails the oracle. A pass that raises
ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("spectrum-grid", "crossing-refine", "exceptional-search", "branch-solve")
MIN_WORKERS = 3
SETUP_SAMPLES = 5
CAL_REF_S = 0.045    # calibration kernel time on the reference box at its usual speed

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "results_ok": "count", "ok_frac": "ratio"}


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Worker side (a fresh process per call)
# ---------------------------------------------------------------------------

def set_up(workload: str) -> float:
    """Import the library and make one warm-up call; return the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import rabi_spectra
    import workloads
    workloads.warmup(workload)
    elapsed = time.perf_counter() - t0
    lib = os.path.realpath(rabi_spectra.__file__)
    if not lib.startswith(os.path.realpath(SRC) + os.sep):
        fail(f"rabi_spectra imported from {lib}, not from {SRC}")
    return elapsed


def calibrate() -> float:
    """Median seconds of a fixed kernel (three scipy eigh calls on a 402 x 402
    matrix, as the library's scans make, and a pure-Python loop of similar
    length); it measures the speed the host gives this process right now."""
    import numpy as np
    from scipy.linalg import eigh
    a = np.random.default_rng(0).standard_normal((402, 402))
    a = a + a.T
    reps = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(3):
            eigh(a, eigvals_only=True, subset_by_index=(0, 11))
        acc = 0.0
        for i in range(300_000):
            acc += i * 0.5
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def timed_passes(workload: str, inputs: dict, budget: float, expect_text: str | None = None):
    """Repeat whole passes: one, then more while the next is expected to end
    within budget seconds. Returns (walls, first outputs, their text,
    number of passes whose text differs)."""
    import workloads
    walls: list[float] = []
    first = text0 = None
    mismatches = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = workloads.run_pass(workload, inputs)
        walls.append(time.perf_counter() - t0)
        text = workloads.canonical(out)
        if first is None:
            first, text0 = out, text
        mismatches += text != (expect_text if expect_text is not None else text0)
        if time.perf_counter() - start + walls[-1] > budget:
            return walls, first, text0, mismatches


def worker(args: argparse.Namespace) -> dict:
    setup = set_up(args.workload)
    cal = calibrate()
    import tracing
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    budget = args.seconds / 2 if args.trace else 0.0  # untraced: exactly one pass
    walls, outputs, text, mism = timed_passes(args.workload, inputs, budget)
    cal = (cal + calibrate()) / 2
    res = {"setup_s": setup, "cal_s": cal, "walls": walls, "mismatches": mism,
           "digest": hashlib.sha256(text.encode()).hexdigest()}
    if args.trace:
        with tracing.Tracer() as tracer:
            t_walls, _, _, t_mism = timed_passes(args.workload, inputs, budget, text)
        spans, passes = tracer.spans, len(t_walls)
        res.update(traced_walls=t_walls, traced_mismatches=t_mism,
                   leftover_wrappers=tracing.installed_wrappers(),
                   per_layer=tracing.layer_metrics(spans, passes),
                   self_s_per_pass={k: v / passes
                                    for k, v in sorted(tracing.self_times(spans).items())},
                   span_stats=tracing.span_stats(spans, passes))
        write_spans(args, spans)
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.emit_outputs:
        res["outputs"] = outputs
    return res


def write_spans(args: argparse.Namespace, spans: list[tuple]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    t_base = min((s[2] for s in spans), default=0.0)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace1-spans.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start_us", "end_us", "parent", "thread", "info"],
                   "spans": [[s[0], s[1], round((s[2] - t_base) * 1e6, 1),
                              round((s[3] - t_base) * 1e6, 1), s[4], s[5], s[6]]
                             for s in spans]},
                  fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def spawn(args: argparse.Namespace, *extra: str) -> str:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker {' '.join(extra)} exited with code {proc.returncode}; no result", 1)
    return proc.stdout.strip().splitlines()[-1]


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy
    from rabi_spectra import cli
    env = {
        "cpu_model": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fock_pool_workers": min(8, os.cpu_count() or 1),
        "cli_threads": cli._thread_count(cli.ScanConfig(mode="spectrum-scan")),
        "hardware_counters": "none: the reference VM exposes no performance counters, so no roofline",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                    if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    for lib in glob.glob(os.path.join(os.path.dirname(scipy.__file__), "..", "scipy.libs",
                                      "*openblas*")):
        so = ctypes.CDLL(lib)
        for prefix in ("scipy_", ""):
            fn = getattr(so, f"{prefix}openblas_get_num_threads", None)
            if fn is not None:
                env["blas_threads"] = fn()
                cfg = getattr(so, f"{prefix}openblas_get_config")
                cfg.restype = ctypes.c_char_p
                env["blas_config"] = cfg().decode()
                break
    return env


def load_references(workload: str, inputs: dict) -> tuple[dict, float]:
    """Stored references where the inputs match, oracle-computed ones otherwise."""
    import oracle
    with open(REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh).get(workload, {})
    t0 = time.perf_counter()
    refs = dict(stored)
    for key, make in oracle.reference_items(workload, inputs):
        if key not in refs:
            refs[key] = make()
    return refs, time.perf_counter() - t0


def summarize(samples: list[float]) -> str:
    return (f"{len(samples)} samples; min {min(samples):.4f}, max {max(samples):.4f} "
            f"(max is the highest percentile {len(samples)} samples support)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--emit-outputs", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rabi_spectra", "__init__.py")):
        fail(f"library source not found under {SRC}; run from a full checkout")
    if args.setup_probe:
        setup = set_up(args.workload)
        print(json.dumps({"setup_s": setup, "cal_s": calibrate()}))
        return 0
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    runs: list[dict] = []
    spent = 0.0
    while not runs or (not args.trace and (
            len(runs) < MIN_WORKERS or spent + runs[-1]["walls"][-1] <= args.seconds)):
        runs.append(json.loads(spawn(args, "--worker", *([] if runs else ["--emit-outputs"]))))
        spent += sum(runs[-1]["walls"])
    probes = [] if args.trace else [json.loads(spawn(args, "--setup-probe"))
                                    for _ in range(SETUP_SAMPLES - len(runs))]

    sys.path.insert(0, SRC)
    import oracle
    import tracing
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    outputs = runs[0]["outputs"]
    correct = True
    notes: list[str] = []
    mism = sum(r["mismatches"] for r in runs) + sum(r["digest"] != runs[0]["digest"] for r in runs)
    if mism:
        correct = False
        notes.append(f"{mism} pass(es) or worker(s) returned different outputs")
    if args.trace:
        r = runs[0]
        if r["traced_mismatches"]:
            correct = False
            notes.append(f"{r['traced_mismatches']} traced pass(es) differ from the untraced output")
        if r["leftover_wrappers"]:
            correct = False
            notes.append(f"wrappers left installed: {r['leftover_wrappers']}")

    refs, ref_s = load_references(args.workload, inputs)
    tally = oracle.CHECKS[args.workload](inputs, outputs, refs)
    if tally.wrong:
        correct = False
    notes += tally.notes
    attempted, failed = tally.attempted, tally.failed

    raw_walls = [statistics.median(r["walls"]) for r in runs]
    wall = statistics.median(raw_walls)
    norm_wall = statistics.median(w * CAL_REF_S / r["cal_s"] for w, r in zip(raw_walls, runs))
    setups = [r["setup_s"] for r in runs + probes]
    norm_setup = statistics.median(r["setup_s"] * CAL_REF_S / r["cal_s"] for r in runs + probes)
    cals = [r["cal_s"] for r in runs + probes]
    rss = [r["peak_rss_mb"] for r in runs]
    end_to_end = {
        "wall_s": norm_wall,
        "setup_s": norm_setup,
        "peak_rss_mb": statistics.median(rss),
        "results_ok": float(tally.ok),
        "ok_frac": tally.ok / attempted if attempted else 0.0,
    }
    record: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "inputs": inputs,
        "measured_wall_s_samples": [r["walls"] for r in runs],
        "measured_setup_s_samples": setups, "calibration_s_samples": cals,
        "peak_rss_mb_samples": rss, "reference_s": ref_s,
        "oracle": {"ok": tally.ok, "wrong": tally.wrong, "missing": tally.missing,
                   "unverified": tally.unverified, "unchecked": tally.unchecked},
        "notes": notes, "environment": environment(),
    }

    n_passes = sum(len(r["walls"]) for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, val in record["environment"].items():
        print(f"  env {key}: {val}")
    print(f"  wall_s       {norm_wall:.4f} s   at reference speed; measured {wall:.4f} s "
          f"(median over {len(runs)} processes, {n_passes} passes; "
          f"{summarize([w for r in runs for w in r['walls']])})")
    print(f"  setup_s      {norm_setup:.4f} s   at reference speed; measured "
          f"{statistics.median(setups):.4f} s ({summarize(setups)})")
    print(f"  calibration  {statistics.median(cals):.4f} s   (reference {CAL_REF_S} s; "
          f"{summarize(cals)})")
    print(f"  peak_rss_mb  {end_to_end['peak_rss_mb']:.1f} MB   (median of {len(rss)} processes)")
    print(f"  results_ok   {tally.ok} count")
    print(f"  fail_frac    {failed / attempted if attempted else 0.0:.6f} ratio   "
          f"({failed} of {attempted}: {tally.wrong} wrong, {tally.missing} missing, "
          f"{tally.unverified} unverified; {tally.unchecked} outputs have no oracle)")
    for note in notes[:20]:
        print(f"  note: {note}")

    if args.trace:
        r = runs[0]
        layers = dict(r["per_layer"])
        t_wall = statistics.median(r["traced_walls"])
        layers["trace.overhead_frac"] = (t_wall - wall) / wall
        record.update(traced_wall_s_samples=r["traced_walls"], per_layer=layers,
                      self_s_per_pass=r["self_s_per_pass"], span_stats=r["span_stats"])
        print(f"  traced wall  {t_wall:.4f} s   ({summarize(r['traced_walls'])}); "
              f"untraced {wall:.4f} s")
        for name, val in sorted(r["self_s_per_pass"].items(), key=lambda kv: -kv[1]):
            print(f"  self {name:28s} {val:.4f} s/pass")
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    record["metrics"] = metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
