"""Correctness oracle for the benchmark outputs.

Spectra come from the dense truncated-Fock matrix (``fock.build``) split by
``fock.parity_blocks`` and solved with ``scipy.linalg.eigh``; the parity label
of every level is what tells an exact crossing (opposite parities) from an
avoided one (same parity). Bethe branches have no Fock counterpart at fixed
(kappa, nu), so each returned root set is checked algebraically against the
Richardson equations instead, and the expected branch count is a stored
union over many multistart seeds (see make_reference.py).

Every check returns a ``Tally``: outputs that pass (``ok``), outputs the
library reports as good but the oracle rejects (``wrong``), reference
outputs the library did not return (``missing``), outputs the library
itself flags as unverified (``unverified``), and outputs with no oracle
(``unchecked``, not counted as attempted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from rabi_spectra import fock
from rabi_spectra.core import ModelParams, reduce

LEVEL_TOL = 1e-9       # shifted-energy agreement of a reported level
GAP_TOL = 1e-7         # an exact crossing: opposite-parity levels this close
INT_TOL = 1e-6         # ... at this distance from the integer
BAE_TOL = 1e-8         # Richardson residual of a returned root set
SCAN_POINTS = 400      # resolution of the parity-resolved reference scans
SCAN_N_MAX = 120       # cutoff of the reference scans (checked against 200)


@dataclass
class Tally:
    ok: int = 0
    wrong: int = 0
    missing: int = 0
    unverified: int = 0
    unchecked: int = 0
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.missing + self.unverified

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


# ---------------------------------------------------------------------------
# Dense parity-resolved spectra
# ---------------------------------------------------------------------------

def parity_levels(p: ModelParams, n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k shifted levels eps = E/omega + lambda+ of each parity block."""
    even, odd = fock.parity_blocks(fock.build(p, n_max))
    lam = reduce(p).lambda_plus
    k = min(k, even.shape[0], odd.shape[0])
    e = eigh(even, eigvals_only=True, subset_by_index=(0, k - 1))
    o = eigh(odd, eigvals_only=True, subset_by_index=(0, k - 1))
    return e / p.omega + lam, o / p.omega + lam


def merged_levels(p: ModelParams, n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k levels of both parities merged: (levels, parity 0/1)."""
    e, o = parity_levels(p, n_max, k)
    lv = np.concatenate([e, o])
    par = np.concatenate([np.zeros(len(e), int), np.ones(len(o), int)])
    order = np.argsort(lv, kind="stable")[:k]
    return lv[order], par[order]


def crossing_at(p: ModelParams, n: int, n_max: int = fock.DEFAULT_N_MAX) -> bool:
    """True when an even and an odd level meet at eps = n (gap < GAP_TOL)."""
    k = n + 2 * math.ceil(reduce(p).lambda_plus) + 12
    e, o = parity_levels(p, n_max, k)
    ie, io = np.argmin(np.abs(e - n)), np.argmin(np.abs(o - n))
    return (abs(e[ie] - n) < INT_TOL and abs(o[io] - n) < INT_TOL
            and abs(e[ie] - o[io]) < GAP_TOL)


def integer_crossings(params_at, ts: np.ndarray, n_top: int,
                      n_max: int = SCAN_N_MAX) -> dict[int, list[float]]:
    """Parity-resolved scan along a line: locations of exact crossings at eps = N.

    An even and an odd level cross where their difference changes sign
    between grid points; the location is linearly interpolated and the
    crossing is assigned to the nearest integer N <= n_top. Crossings below
    n_top + 1/2 that sit away from an integer go under key -1 (none are
    expected: exact crossings of the model lie at integer eps).
    """
    k = n_top + 12
    ev = np.empty((len(ts), k))
    od = np.empty((len(ts), k))
    for i, t in enumerate(ts):
        ev[i], od[i] = parity_levels(params_at(float(t)), n_max, k)
    if np.min(ev[:, -1]) < n_top + 1 or np.min(od[:, -1]) < n_top + 1:
        raise RuntimeError("reference scan: too few levels to cover eps = n_top")
    d = ev[:, :, None] - od[:, None, :]
    cells, ii, jj = np.nonzero(d[:-1] * d[1:] < 0)
    out: dict[int, list[float]] = {}
    for c, i, j in zip(cells, ii, jj):
        w = d[c, i, j] / (d[c, i, j] - d[c + 1, i, j])
        t_c = ts[c] + w * (ts[c + 1] - ts[c])
        eps_c = ev[c, i] + w * (ev[c + 1, i] - ev[c, i])
        n = int(round(eps_c))
        if eps_c > n_top + 0.5:
            continue
        key = n if abs(eps_c - n) < 0.05 and n >= 0 else -1
        out.setdefault(key, []).append(float(t_c))
    return {key: sorted(v) for key, v in out.items()}


def _match(expected: list[float], found: list[float], tol: float) -> tuple[int, list[int]]:
    """Greedy nearest matching; returns (#unmatched expected, unmatched found idx)."""
    free = list(range(len(expected)))
    extra = []
    for fi, x in enumerate(found):
        best = min(free, key=lambda e: abs(expected[e] - x), default=None)
        if best is not None and abs(expected[best] - x) <= tol:
            free.remove(best)
        else:
            extra.append(fi)
    return len(free), extra


# ---------------------------------------------------------------------------
# CLI output parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[dict, list[list[float]]]:
    """(resolved config from the '#' header line, numeric rows)."""
    lines = text.splitlines()
    return json.loads(lines[0][2:]), [[float(x) for x in ln.split(",")] for ln in lines[2:]]


def _params(cfg: dict, axis_value: float) -> ModelParams:
    kw = {k: cfg[k] for k in ("omega", "omega0", "g1", "g2")}
    kw[cfg["axis"]] = axis_value
    return ModelParams(**kw)


# ---------------------------------------------------------------------------
# spectrum-grid
# ---------------------------------------------------------------------------

def check_spectrum_grid(inputs: dict, outputs: dict, reference: dict) -> Tally:
    t = Tally()
    for code, text in outputs["cli"]:
        cfg, rows = parse_csv(text)
        mode = cfg["mode"]
        if code != 0:
            t.notes.append(f"{mode}: exit code {code}")
        if mode == "crossing-count":
            # Analytic bookkeeping with no Fock counterpart at this cost.
            t.unchecked += len(rows)
            expected = cfg["count"] * (cfg["n"] + 1)
            t.missing += max(0, expected - len(rows))
            continue
        n_keep, n_max = cfg["n_keep"], cfg["n_max"]
        per_point = 1 if mode == "spectrum-scan" else n_keep
        expected = cfg["count"] * per_point
        t.missing += max(0, expected - len(rows))
        cache: dict[float, np.ndarray] = {}
        for row in rows:
            x = row[0]
            if x not in cache:
                cache[x] = merged_levels(_params(cfg, x), n_max, n_keep)[0]
            eps = cache[x]
            if mode == "spectrum-scan":
                good = len(row) == n_keep + 1 and np.max(np.abs(np.array(row[1:]) - eps)) < LEVEL_TOL
            else:
                _, level, numeric, analytic, dev = row
                good = abs(numeric - eps[int(level)]) < LEVEL_TOL
                if math.isnan(analytic):
                    good = good and math.isnan(dev)
                else:
                    good = good and abs(dev - abs(analytic - numeric)) <= 1e-12 * max(1.0, abs(dev))
            if good:
                t.ok += 1
            else:
                t.wrong += 1
                t.notes.append(f"{mode}: row at {cfg['axis']}={x!r} disagrees with the oracle")
    return t


# ---------------------------------------------------------------------------
# crossing-refine
# ---------------------------------------------------------------------------

def reference_crossing_scan(s: dict) -> list[list]:
    """Expected events of one scan: [pair, lo, hi, kind] per interior gap minimum.

    Same candidate rule as a grid scan (interior local minima of each
    adjacent-level gap), but each minimum is classified by the parities of
    the two levels there: opposite parities cross exactly, equal parities
    repel (avoided crossing).
    """
    g1 = np.linspace(s["g1_lo"], s["g1_hi"], s["points"])
    lv = np.empty((len(g1), s["n_levels"]))
    par = np.empty((len(g1), s["n_levels"]), dtype=int)
    for i, x in enumerate(g1):
        lv[i], par[i] = merged_levels(ModelParams(s["omega"], s["omega0"], float(x), s["g2"]),
                                      s["n_max"], s["n_levels"])
    gaps = np.diff(lv, axis=1)
    out = []
    for pair in range(s["n_levels"] - 1):
        g = gaps[:, pair]
        for idx in np.where((g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1:
            kind = "crossing" if par[idx, pair] != par[idx, pair + 1] else "avoided"
            out.append([pair, float(g1[idx - 1]), float(g1[idx + 1]), kind])
    return out


def _event_ok(s: dict, ev) -> bool:
    kind, g1, eps_at, gap, pair, _ = ev
    lv, par = merged_levels(ModelParams(s["omega"], s["omega0"], g1, s["g2"]),
                            s["n_max"], s["n_levels"])
    i, j = pair
    if kind == "crossing":
        return (par[i] != par[j] and lv[j] - lv[i] < GAP_TOL
                and abs(eps_at - 0.5 * (lv[i] + lv[j])) < GAP_TOL)
    return (par[i] == par[j] and gap >= GAP_TOL
            and abs(gap - (lv[j] - lv[i])) < LEVEL_TOL)


def check_crossing_refine(inputs: dict, outputs: dict, reference: dict) -> Tally:
    t = Tally()
    for s, events in zip(inputs["scans"], outputs["scans"]):
        expected = reference[ref_key(s)]
        used = set()
        for pair, lo, hi, kind in expected:
            hit = [k for k, ev in enumerate(events)
                   if k not in used and ev[4][0] == pair and lo <= ev[1] <= hi]
            if not hit:
                t.missing += 1
                t.notes.append(f"omega0={s['omega0']!r}: missing {kind} of pair {pair} in [{lo}, {hi}]")
                continue
            used.add(hit[0])
            ev = events[hit[0]]
            if ev[0] == kind and _event_ok(s, ev):
                t.ok += 1
            else:
                t.wrong += 1
                t.notes.append(f"omega0={s['omega0']!r}: event {ev[:2]} fails the parity check")
        for k, ev in enumerate(events):
            if k not in used:
                if _event_ok(s, ev):
                    t.ok += 1
                else:
                    t.wrong += 1
                    t.notes.append(f"omega0={s['omega0']!r}: unexpected event {ev[:2]}")
    return t


# ---------------------------------------------------------------------------
# exceptional-search
# ---------------------------------------------------------------------------

def reference_line(ln: dict, points: int = SCAN_POINTS, n_max: int = SCAN_N_MAX) -> dict:
    ts = np.linspace(ln["g1_lo"], ln["g1_hi"], points)
    found = integer_crossings(lambda g1: ModelParams(ln["omega"], ln["omega0"], g1, ln["g2"]),
                              ts, max(ln["n_levels"]), n_max)
    return {str(k): v for k, v in found.items()}


def reference_rabi(omega: float, omega0: float, g_lo: float, g_hi: float, n_top: int,
                   points: int = SCAN_POINTS, n_max: int = SCAN_N_MAX) -> dict:
    ts = np.linspace(max(g_lo, 1e-6), g_hi, points)
    found = integer_crossings(lambda g: ModelParams(omega, omega0, g, g), ts, n_top, n_max)
    return {str(k): v for k, v in found.items()}


def reference_n0_curve(cfg: dict) -> list[list[float]]:
    """CLI exceptional n = 0: the crossing at eps = 0 lies on g1^2 - g2^2 =
    2 omega omega0; each point of the README curve is confirmed by the dense
    oracle. The JC line g2 = 0 (nu = 0) is outside the Bethe path's domain."""
    lo, hi, count = (float(x) for x in cfg["g2-range"].split(":"))
    f_lo, f_hi, _ = (float(x) for x in cfg["free-range"].split(":"))
    out = []
    for g2 in np.linspace(lo, hi, int(count)):
        g1 = math.sqrt(2 * cfg["omega"] * cfg["omega0"] + g2 * g2)
        p = ModelParams(cfg["omega"], cfg["omega0"], g1, float(g2))
        if g2 > 0 and f_lo < g1 < f_hi and crossing_at(p, 0):
            out.append([float(g2), g1])
    return out


def _tally_points(t: Tally, label: str, expected: list[float], pts: list[tuple],
                  values: list[float], n: int, tol: float, params_of) -> None:
    """Match returned points to reference locations and check each one."""
    n_missing, extra = _match(expected, values, tol)
    t.missing += n_missing
    if n_missing:
        t.notes.append(f"{label} N={n}: {n_missing} reference crossing(s) not returned")
    for k, pt in enumerate(pts):
        good = crossing_at(params_of(pt), n)
        _tally_point(t, f"{label} N={n}: point at {values[k]!r}", pt[-1], good)
        if k in extra and good:
            t.notes.append(f"{label} N={n}: point at {values[k]!r} verified but off the reference grid")


def check_exceptional_search(inputs: dict, outputs: dict, reference: dict) -> Tally:
    t = Tally()
    for ln, per_n in zip(inputs["lines"], outputs["lines"]):
        ref = reference[ref_key(ln)]
        tol = 1.5 * (ln["g1_hi"] - ln["g1_lo"]) / (SCAN_POINTS - 1)
        for n, pts in zip(ln["n_levels"], per_n):
            _tally_points(t, f"g2={ln['g2']!r}", ref.get(str(n), []), pts,
                          [pt[1] for pt in pts], n, tol,
                          lambda pt: ModelParams(ln["omega"], ln["omega0"], pt[1], pt[2]))
    rb = inputs["rabi"]
    ref = reference[ref_key(rb)]
    tol = 1.5 * (rb["g_hi"] - rb["g_lo"]) / (SCAN_POINTS - 1)
    for n, pts in zip(rb["n_levels"], outputs["rabi"]):
        _tally_points(t, "rabi", ref.get(str(n + 1), []), pts, [pt[1] for pt in pts], n + 1,
                      tol, lambda pt: ModelParams(rb["omega"], rb["omega0"], pt[1], pt[2]))
    for cfg_in, (code, text) in zip(inputs["cli"], outputs["cli"]):
        cfg, rows = parse_csv(text)
        ref = reference[ref_key(cfg_in)]
        if cfg["mode"] == "exceptional":
            # rows: g2, g1, epsilon, gap, verified, Z1, Z2
            g2_ref = [g2 for g2, _ in ref]
            n_missing, _ = _match(g2_ref, [r[0] for r in rows], 1e-12)
            t.missing += n_missing
            for r in rows:
                p = ModelParams(cfg["omega"], cfg["omega0"], r[1], r[0])
                _tally_point(t, f"cli exceptional: row at g2={r[0]!r}", r[4], crossing_at(p, 0))
        else:
            # rows: n_eps, g, gap, verified
            tol = 1.5 * (cfg["stop"] - cfg["start"]) / (SCAN_POINTS - 1)
            for n in range(1, cfg["n"] + 2):
                sel = [r for r in rows if int(r[0]) == n]
                n_missing, _ = _match(ref.get(str(n), []), [r[1] for r in sel], tol)
                t.missing += n_missing
                for r in sel:
                    p = ModelParams(cfg["omega"], cfg["omega0"], r[1], r[1])
                    _tally_point(t, f"cli rabi-markers N={n}: row at g={r[1]!r}", r[3],
                                 crossing_at(p, n))
    return t


def _tally_point(t: Tally, label: str, verified, good: bool) -> None:
    """Library-flagged points count as unverified; the rest as ok or wrong."""
    if not verified:
        t.unverified += 1
        t.notes.append(f"{label} flagged unverified")
    elif good:
        t.ok += 1
    else:
        t.wrong += 1
        t.notes.append(f"{label} fails the oracle")


# ---------------------------------------------------------------------------
# branch-solve
# ---------------------------------------------------------------------------

def bae_residual(z: np.ndarray, n: int, kappa: float, nu: float) -> float:
    """max |sum_j 2/(z_j - z_i) + sum_s d_s/(z_i - e_s) + 2 nu| over the roots."""
    levels = np.array([nu, -nu, kappa])
    strengths = np.array([n - 1.0, float(n), 1.0])
    dz = z[None, :] - z[:, None]
    np.fill_diagonal(dz, np.inf)
    res = np.sum(2.0 / dz, axis=1) + np.sum(strengths / (z[:, None] - levels), axis=1) + 2 * nu
    return float(np.max(np.abs(res)))


def branch_ok(n: int, kappa: float, nu: float, branch) -> bool:
    """Richardson residual, no pole or root collision, conjugate-closed set,
    and reported (Z1, Z2) equal to the root power sums."""
    _, Z1, Z2, _, roots = branch
    z = np.array([complex(a, b) for a, b in roots])
    if len(z) != n:
        return False
    levels = np.array([nu, -nu, kappa])
    scale = max(1.0, float(np.max(np.abs(z))))
    if np.min(np.abs(z[:, None] - levels)) < 1e-8:
        return False
    if n > 1 and np.min(np.abs(z[:, None] - z[None, :]) + np.eye(n) * 1e9) < 1e-8:
        return False
    if not all(np.min(np.abs(np.conj(zi) - z)) < 1e-7 * scale for zi in z):
        return False
    if abs(np.sum(z).real - Z1) > 1e-9 * max(1.0, abs(Z1)):
        return False
    if abs(np.sum(z * z).real - Z2) > 1e-9 * max(1.0, abs(Z2)):
        return False
    return bae_residual(z, n, kappa, nu) < BAE_TOL


def branch_key(branch) -> tuple:
    z = sorted((round(a, 6), round(abs(b), 6)) for a, b in branch[4])
    return tuple(z)


def check_branch_solve(inputs: dict, outputs: dict, reference: dict) -> Tally:
    t = Tally()
    for c, sols in zip(inputs["cases"], outputs["cases"]):
        expected = reference[ref_key({"nominal": c["nominal"]})]
        keys = set()
        good = 0
        for b in sols:
            key = branch_key(b)
            if branch_ok(c["n"], c["kappa"], c["nu"], b) and key not in keys:
                good += 1
            else:
                t.wrong += 1
                t.notes.append(f"branch_Z{tuple(c['nominal'])}: branch {b[0]} fails the "
                               "Richardson check or repeats another")
            keys.add(key)
        t.ok += good
        if good < expected:
            t.missing += expected - good
            t.notes.append(f"branch_Z{tuple(c['nominal'])}: {good} of {expected} reference branches")
    return t


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def ref_key(sub_input: dict) -> str:
    return json.dumps(sub_input, sort_keys=True)


def reference_items(workload: str, inputs: dict) -> list[tuple[str, object]]:
    """(key, thunk) for every reference the workload's check needs.

    Branch counts cannot be recomputed per run (a union over many multistart
    seeds takes minutes); they are stored per nominal case and were checked
    to hold over the whole jitter box by make_reference.py.
    """
    if workload == "crossing-refine":
        return [(ref_key(s), lambda s=s: reference_crossing_scan(s)) for s in inputs["scans"]]
    if workload == "exceptional-search":
        items = [(ref_key(ln), lambda ln=ln: reference_line(ln)) for ln in inputs["lines"]]
        rb = inputs["rabi"]
        items.append((ref_key(rb), lambda: reference_rabi(
            rb["omega"], rb["omega0"], rb["g_lo"], rb["g_hi"], max(rb["n_levels"]) + 1)))
        for cfg in inputs["cli"]:
            if cfg["mode"] == "exceptional":
                items.append((ref_key(cfg), lambda cfg=cfg: reference_n0_curve(cfg)))
            else:
                lo, hi, _ = (float(x) for x in cfg["g-range"].split(":"))
                items.append((ref_key(cfg), lambda cfg=cfg, lo=lo, hi=hi: reference_rabi(
                    cfg["omega"], cfg["omega0"], lo, hi, cfg["n"] + 1)))
        return items
    return []


CHECKS = {
    "spectrum-grid": check_spectrum_grid,
    "crossing-refine": check_crossing_refine,
    "exceptional-search": check_exceptional_search,
    "branch-solve": check_branch_solve,
}
