"""The four benchmark workloads: seeded inputs and one timed pass each.

A workload is a dict of plain inputs made from the seed by ``make_inputs``
and a pass function that feeds them to the library's public entry points
and returns structured outputs. ``canonical`` turns those outputs into text
that must repeat byte for byte across passes and between the traced and
untraced runs.

Seed 0 gives the nominal configurations (the README and acceptance-test
values); any other seed jitters grid ends, g2, omega0 and (kappa, nu) by a
fraction of a percent. The cases where the library drops or fails to verify
outputs stay fixed for every seed, because which outputs it drops changes
with such jitter and would make the correctness counts depend on the seed:
the three find_exceptional lines (at g2 = 0.1, n = 8 drops the point at
g1 ~ 1.223668), the rabi_exceptional line, and branch_Z at (3, 0.4, 0.35),
(4, 0.3, 0.2) and (5, 0.1, 0.3) (5 of 6, 7 of 8 and 7 of 10 branches).
"""

from __future__ import annotations

import contextlib
import io
import random

import numpy as np

from rabi_spectra import bethe, cli, fock
from rabi_spectra.core import ModelParams

class _Jitter:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, x: float, rel: float) -> float:
        u = self.rng.uniform(-1.0, 1.0)  # drawn for every seed, so draws stay aligned
        return x if self.seed == 0 else x * (1.0 + rel * u)


def _cli_args(cfg: dict) -> list[str]:
    out = []
    for key, val in cfg.items():
        out += [f"--{key}", repr(val) if isinstance(val, float) else str(val)]
    return out


def make_inputs(workload: str, seed: int) -> dict:
    j = _Jitter(seed)
    if workload == "spectrum-grid":
        g2w, g1w = j(0.056, 0.01), j(1.2, 0.005)
        g2s, lo_s, hi_s = j(0.015, 0.01), j(0.2, 0.005), j(0.4, 0.005)
        g2c, w0_hi = j(0.01, 0.01), j(3.0, 0.005)
        return {"cli": [
            {"mode": "spectrum-scan", "omega": 1.0, "omega0": 1.0, "g2": g2w,
             "g1-range": f"0:{g1w!r}:240", "n-keep": 8},
            {"mode": "weak-compare", "omega": 1.0, "omega0": 1.0, "g2": g2w,
             "g1-range": f"0:{g1w!r}:120", "n-keep": 6},
            {"mode": "strong-compare", "approx": "squeezed", "omega": 1.0, "omega0": 5.0,
             "g2": g2s, "g1-range": f"{lo_s!r}:{hi_s!r}:40", "n-keep": 6},
            {"mode": "crossing-count", "omega": 1.0, "g2": g2c,
             "omega0-range": f"0.05:{w0_hi!r}:60", "n": 7},
        ]}
    if workload == "crossing-refine":
        return {"scans": [
            {"omega": 1.0, "omega0": 1.0, "g2": j(0.056, 0.005),
             "g1_lo": 0.0, "g1_hi": j(1.0, 0.002), "points": 120,
             "n_levels": 12, "n_max": 200}
        ]}
    if workload == "exceptional-search":
        return {
            "lines": [{"omega": 1.0, "omega0": 0.7, "g2": g2, "g1_lo": 0.2, "g1_hi": 4.0,
                       "n_levels": list(range(13))} for g2 in (0.05, 0.1, 0.2)],
            "rabi": {"omega": 1.0, "omega0": 0.7, "g_lo": 0.05, "g_hi": 1.0,
                     "n_levels": list(range(8))},
            "cli": [
                {"mode": "exceptional", "n": 0, "omega": 1.0, "omega0": j(1.0, 0.005),
                 "g2-range": "0:1:50", "free": "g1", "free-range": "0.9:2.5:2"},
                {"mode": "rabi-markers", "omega": 1.0, "omega0": j(1.0, 0.005), "n": 7,
                 "g-range": "0.05:1.0:2"},
            ],
        }
    if workload == "branch-solve":
        cases = []
        for n, kappa, nu, starts, fixed in BRANCH_CASES:
            jk, jn = j(kappa, BRANCH_JITTER), j(nu, BRANCH_JITTER)
            cases.append({"n": n, "kappa": kappa if fixed else jk, "nu": nu if fixed else jn,
                          "extra_starts": starts, "nominal": [n, kappa, nu]})
        return {"cases": cases}
    raise ValueError(f"unknown workload {workload!r}")


# branch-solve: (n, kappa, nu, start count as in the tests, fixed for every seed)
BRANCH_CASES = [
    (3, 0.4, 0.35, 120, True),
    (4, 0.3, 0.2, 120, True),
    (5, 0.1, 0.3, 150, True),
    (2, 0.5, 0.3, 120, False),
]
BRANCH_JITTER = 0.003


def run_cli(cfg: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(_cli_args(cfg))
    return code, buf.getvalue()


def _grid(lo: float, hi: float, points: int) -> np.ndarray:
    return np.linspace(lo, hi, points)


def run_pass(workload: str, inputs: dict) -> dict:
    """One pass of the workload; returns its outputs."""
    if workload == "spectrum-grid":
        return {"cli": [run_cli(cfg) for cfg in inputs["cli"]]}
    if workload == "crossing-refine":
        out = []
        for s in inputs["scans"]:
            p = ModelParams(s["omega"], s["omega0"], 0.0, s["g2"])
            events = fock.scan_crossings(p, _grid(s["g1_lo"], s["g1_hi"], s["points"]),
                                         s["n_levels"], s["n_max"])
            out.append([(ev.kind, ev.g1_location, ev.epsilon_at_event, ev.gap,
                         list(ev.level_pair), bool(ev.caveat)) for ev in events])
        return {"scans": out}
    if workload == "exceptional-search":
        lines = []
        for ln in inputs["lines"]:
            fixed = {"omega": ln["omega"], "omega0": ln["omega0"], "g2": ln["g2"]}
            per_n = []
            for n in ln["n_levels"]:
                pts = bethe.find_exceptional(n, fixed, "g1", (ln["g1_lo"], ln["g1_hi"]))
                per_n.append([_point(pt) for pt in pts])
            lines.append(per_n)
        rb = inputs["rabi"]
        rabi = [[_point(pt) for pt in bethe.rabi_exceptional(
                    n, rb["omega"], rb["omega0"], (rb["g_lo"], rb["g_hi"]))]
                for n in rb["n_levels"]]
        return {"lines": lines, "rabi": rabi, "cli": [run_cli(cfg) for cfg in inputs["cli"]]}
    if workload == "branch-solve":
        out = []
        for c in inputs["cases"]:
            sols = bethe.branch_Z(c["n"], c["kappa"], c["nu"], extra_starts=c["extra_starts"])
            out.append([(s.branch_id, s.Z1, s.Z2, s.residual_max,
                         [(z.real, z.imag) for z in s.roots]) for s in sols])
        return {"cases": out}
    raise ValueError(f"unknown workload {workload!r}")


def _point(pt) -> tuple:
    return (pt.n, pt.params.g1, pt.params.g2, pt.epsilon_at_crossing, pt.verified_gap,
            bool(pt.verified))


def canonical(outputs: dict) -> str:
    """Exact text of the outputs (floats by repr, so every bit counts)."""
    return repr(outputs)


def warmup(workload: str) -> None:
    """One small call through the workload's entry point, as a user's first call."""
    if workload in ("spectrum-grid", "exceptional-search"):
        run_cli({"mode": "spectrum-scan", "omega": 1.0, "omega0": 1.0, "g2": 0.056,
                 "g1-range": "0.5:0.6:2", "n-keep": 4})
    elif workload == "crossing-refine":
        fock.scan_crossings(ModelParams(1.0, 1.0, 0.0, 0.056), _grid(0.0, 0.1, 3), 2, 200)
    else:
        bethe.branch_Z(2, 0.5, 0.3, extra_starts=1)
