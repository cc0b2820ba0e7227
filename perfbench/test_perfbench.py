"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rabi_spectra import bethe, fock  # noqa: E402
from rabi_spectra.core import ModelParams  # noqa: E402

SMALL_SCAN = {"mode": "spectrum-scan", "omega": 1.0, "omega0": 1.0, "g2": 0.056,
              "g1-range": "0:1.2:12", "n-keep": 4, "n-max": 60}


def _spectrum_check(text: str) -> oracle.Tally:
    return oracle.check_spectrum_grid({}, {"cli": [(0, text)]}, {})


def test_cli_output_repeats_byte_identically():
    first = workloads.run_cli(SMALL_SCAN)
    again = workloads.run_cli(SMALL_SCAN)
    assert first[0] == 0
    assert first == again


def test_oracle_accepts_then_rejects_a_perturbed_row():
    _, text = workloads.run_cli(SMALL_SCAN)
    good = _spectrum_check(text)
    assert (good.ok, good.wrong, good.missing) == (12, 0, 0)
    lines = text.splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[5] = ",".join(fields)
    bad = _spectrum_check("\n".join(lines[:-1]) + "\n")  # also drop the last row
    assert (bad.ok, bad.wrong, bad.missing) == (10, 1, 1)


def test_oracle_rejects_a_moved_exceptional_point():
    pts = bethe.find_exceptional(2, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (0.2, 2.0))
    p = pts[0].params
    assert oracle.crossing_at(p, 2)
    assert not oracle.crossing_at(ModelParams(p.omega, p.omega0, p.g1 + 1e-5, p.g2), 2)


def test_oracle_rejects_a_perturbed_branch():
    sol = bethe.branch_Z(2, 0.5, 0.3, extra_starts=20)[0]
    roots = [(z.real, z.imag) for z in sol.roots]
    branch = (sol.branch_id, sol.Z1, sol.Z2, sol.residual_max, roots)
    assert oracle.branch_ok(2, 0.5, 0.3, branch)
    roots[0] = (roots[0][0] + 1e-6, roots[0][1])
    moved = (sol.branch_id, sol.Z1 + 1e-6, sol.Z2, sol.residual_max, roots)
    assert not oracle.branch_ok(2, 0.5, 0.3, moved)


def test_reference_scan_classifies_crossings_by_parity():
    scan = {"omega": 1.0, "omega0": 1.0, "g2": 0.056, "g1_lo": 0.0, "g1_hi": 1.0,
            "points": 40, "n_levels": 4, "n_max": 60}
    expected = oracle.reference_crossing_scan(scan)
    assert {kind for *_, kind in expected} <= {"crossing", "avoided"}
    events = fock.scan_crossings(ModelParams(1.0, 1.0, 0.0, 0.056),
                                 workloads._grid(0.0, 1.0, 40), 4, 60)
    out = {"scans": [[(ev.kind, ev.g1_location, ev.epsilon_at_event, ev.gap,
                       list(ev.level_pair), ev.caveat) for ev in events]]}
    tally = oracle.check_crossing_refine({"scans": [scan]}, out,
                                         {oracle.ref_key(scan): expected})
    assert tally.wrong == 0 and tally.ok == len(events)


def test_tracer_restores_wrappers_and_keeps_outputs():
    plain = workloads.run_cli(SMALL_SCAN)
    with tracing.Tracer() as tracer:
        assert tracing.installed_wrappers()
        traced = workloads.run_cli(SMALL_SCAN)
    assert tracing.installed_wrappers() == []
    assert traced == plain
    names = {s[1] for s in tracer.spans}
    assert {"cli.mode.spectrum-scan", "cli.pool", "fock.levels", "fock.eigensolve",
            "cli.emit"} <= names
    # Pool-thread spans take the submitting span as parent.
    ids = {s[0]: s for s in tracer.spans}
    main = threading.main_thread().ident
    mode = next(s for s in tracer.spans if s[1] == "cli.mode.spectrum-scan")
    levels = [s for s in tracer.spans if s[1] == "fock.levels"]
    assert len(levels) == 12
    assert all(s[4] == mode[0] for s in levels)
    assert any(s[5] != main for s in levels) or os.cpu_count() == 1
    assert all(ids[s[4]][1] == "fock.levels" for s in tracer.spans if s[1] == "fock.eigensolve")
    m = tracing.layer_metrics(tracer.spans, 1)
    assert m["fock.eigensolve.calls"] == 12 and m["fock.eigensolve.dim"] == 122
    assert set(m) | {"trace.overhead_frac"} == set(tracing.UNITS)

