"""Command-line driver: parameter scans, exceptional-point searches,
approximation comparisons, and figure-table reproduction.

Outputs are machine-readable and deterministic: CSV with a '#'-prefixed
JSON header carrying the fully resolved configuration, or a single JSON
document with config/rows/meta. Shifted energies eps = E/omega + lambda+
are the default scale (crossings at integers); --raw-energy switches to E.

Exit codes: 0 success, 2 config error, 3 compute error, 4 verification
failure (an exceptional point failed the brute-force gap check).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
# Unused; only perfbench/tracing.py POOL_MODULES reads it (ROADMAP item 1).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import MISSING, dataclass, fields
from typing import Callable

import numpy as np

from . import __version__, bethe, fock, strongpert, weakpert
from .core import ModelParams, reduce

MODES = ("spectrum-scan", "exceptional", "crossing-count", "weak-compare",
         "strong-compare", "rabi-markers")
AXES = ("g1", "g2", "omega0")
FREE_PARAMS = ("omega", "omega0", "g1", "g2")  # exceptional mode: the searched parameter
# modes that solve for the lowest n_keep levels at each grid point
LEVEL_MODES = ("spectrum-scan", "weak-compare", "strong-compare")


class ConfigError(ValueError):
    pass


class ComputeError(RuntimeError):
    pass


@dataclass
class ScanConfig:
    mode: str
    omega: float = 1.0
    omega0: float = 1.0
    g1: float = 0.0
    g2: float = 0.0
    axis: str = "g1"
    start: float = 0.0
    stop: float = 1.0
    count: int = 2
    n_max: int = fock.DEFAULT_N_MAX
    n_keep: int = 8
    n: int = 0                      # exceptional level / max level index
    free: str = "g1"                # searched parameter in exceptional mode
    free_start: float = 1e-3
    free_stop: float = 4.0
    approx: str = "adiabatic"       # strong-compare flavor
    raw_energy: bool = False
    output: str = "-"
    format: str = "csv"

    def validate(self) -> None:
        for f in fields(self):
            want = str if f.default is MISSING else type(f.default)
            v = getattr(self, f.name)
            kind = {float: numbers.Real, int: numbers.Integral}.get(want, want)
            if not isinstance(v, kind) or (want is not bool and isinstance(v, bool)):
                raise ConfigError(f"{f.name} must be of type {want.__name__}, got {v!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.axis not in AXES:
            raise ConfigError(f"grid axis must be one of {AXES}, got {self.axis!r}")
        if self.count < 2:
            raise ConfigError("grid point count must be >= 2")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.omega <= 0:
            raise ConfigError("omega must be positive")
        if self.n_max < 1:
            raise ConfigError("n_max must be >= 1")
        if self.g1 < 0 or self.g2 < 0:
            raise ConfigError("couplings g1, g2 must be >= 0")
        if self.axis != "omega0" and min(self.start, self.stop) < 0:
            raise ConfigError(f"the {self.axis} grid must lie in {self.axis} >= 0")
        if self.n < 0:
            raise ConfigError("n must be >= 0")
        if self.mode in LEVEL_MODES and not 1 <= self.n_keep <= 2 * (self.n_max + 1):
            raise ConfigError(f"n_keep must be in [1, {2 * (self.n_max + 1)}] (two per Fock level)")
        if self.approx not in ("adiabatic", "squeezed"):
            raise ConfigError("approx must be adiabatic or squeezed")
        if self.mode == "exceptional":
            if self.free not in FREE_PARAMS:
                raise ConfigError(f"free must be one of {FREE_PARAMS}, got {self.free!r}")
            if self.free == self.axis:
                raise ConfigError("the searched parameter must differ from the grid axis")
            lo = min(self.free_start, self.free_stop)
            if self.free == "omega" and lo <= 0:
                raise ConfigError("the omega search range must lie in omega > 0")
            if self.free in ("g1", "g2") and lo < 0:
                raise ConfigError(f"the {self.free} search range must lie in {self.free} >= 0")

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["version"] = __version__
        return d


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _grid(cfg: ScanConfig) -> np.ndarray:
    return np.linspace(cfg.start, cfg.stop, cfg.count)


def _params_at(cfg: ScanConfig, value: float) -> ModelParams:
    kw = {"omega": cfg.omega, "omega0": cfg.omega0, "g1": cfg.g1, "g2": cfg.g2}
    kw[cfg.axis] = float(value)
    return ModelParams(**kw)


def _thread_count(cfg: ScanConfig) -> int:
    """Always 1; only perfbench/run.py environment() calls it (ROADMAP item 1)."""
    return 1


def _grid_levels(cfg: ScanConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """The grid and its lowest n_keep shifted levels, serially (eigh_tridiagonal holds the GIL)."""
    grid = _grid(cfg)
    return grid, [fock._eps_levels(_params_at(cfg, v), cfg.n_max, cfg.n_keep) for v in grid]


def _on_scale(cfg: ScanConfig, p: ModelParams, eps) -> list[float]:
    """Shifted energies as emitted: eps, or E = (eps - lambda+) omega with --raw-energy."""
    if cfg.raw_energy:
        lam_p = reduce(p).lambda_plus
        return [float(e - lam_p) * p.omega for e in eps]
    return [float(e) for e in eps]


def run_spectrum_scan(cfg: ScanConfig) -> tuple[list[str], list[list]]:
    grid, levels = _grid_levels(cfg)
    name = "E" if cfg.raw_energy else "eps"
    header = [cfg.axis] + [f"{name}_{i}" for i in range(cfg.n_keep)]
    return header, [[float(v)] + _on_scale(cfg, _params_at(cfg, v), eps)
                    for v, eps in zip(grid, levels)]


def run_exceptional(cfg: ScanConfig) -> tuple[list[str], list[list], bool]:
    header = [cfg.axis, cfg.free, "epsilon", "gap", "verified", "Z1", "Z2"]
    rows: list[list] = []
    all_ok = True
    fixed_names = [a for a in FREE_PARAMS if a != cfg.free]
    for v in _grid(cfg):
        base = {"omega": cfg.omega, "omega0": cfg.omega0, "g1": cfg.g1, "g2": cfg.g2}
        base[cfg.axis] = float(v)
        fixed = {k: base[k] for k in fixed_names}
        try:
            pts = bethe.find_exceptional(cfg.n, fixed, cfg.free,
                                         (cfg.free_start, cfg.free_stop),
                                         n_max=cfg.n_max)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            raise ComputeError(f"exceptional search failed at {cfg.axis}={v}: {exc}") from exc
        for pt in pts:
            all_ok = all_ok and pt.verified
            sol = pt.solution
            rows.append([float(v), getattr(pt.params, cfg.free),
                         pt.epsilon_at_crossing, pt.verified_gap,
                         int(pt.verified),
                         sol.Z1 if sol else math.nan,
                         sol.Z2 if sol else math.nan])
    return header, rows, all_ok


def run_crossing_count(cfg: ScanConfig) -> tuple[list[str], list[list]]:
    header = ["omega0", "n", "N_cr", "N_avoided"]
    rows = []
    for w0 in _grid(cfg):
        p = ModelParams(cfg.omega, float(w0), cfg.g1, cfg.g2)
        for n in range(cfg.n + 1):
            n_cr, n_av = weakpert.count_events(n, p)
            rows.append([float(w0), n, n_cr, n_av])
    return header, rows


def _weak_curves(p: ModelParams, n_pairs: int) -> list[float]:
    out = []
    for (n, k) in [(-1, 1)] + [(m, kk) for m in range(n_pairs) for kk in (0, 1)]:
        try:
            e_hi, e_lo = weakpert.avoided_energies(n, k, p)
        except weakpert.InvalidIndex:
            continue
        out.extend([e_hi, e_lo])
    return out


def _compare(
    cfg: ScanConfig, energies: Callable[[ModelParams], list[float] | None]
) -> tuple[list[str], list[list]]:
    """Each numeric level against the nearest analytic energy of energies(p).

    energies(p) gives raw energies E, or None where the approximation is
    undefined (NaN columns). Both values are emitted on the output scale and
    the deviation is taken there.
    """
    grid, levels = _grid_levels(cfg)
    rows = []
    for v, eps in zip(grid, levels):
        p = _params_at(cfg, v)
        analytic = energies(p)
        if analytic is None:
            rows += [[float(v), i, num, math.nan, math.nan]
                     for i, num in enumerate(_on_scale(cfg, p, eps))]
            continue
        lam_p = reduce(p).lambda_plus
        analytic_eps = sorted(a / p.omega + lam_p for a in analytic)
        for i, e in enumerate(eps):
            nearest = min(analytic_eps, key=lambda c: abs(c - e))
            num, ana = _on_scale(cfg, p, [e, nearest])
            rows.append([float(v), i, num, ana, abs(ana - num)])
    return [cfg.axis, "level", "numeric", "analytic", "deviation"], rows


def run_weak_compare(cfg: ScanConfig) -> tuple[list[str], list[list]]:
    return _compare(cfg, lambda p: _weak_curves(p, n_pairs=cfg.n_keep + 4))


def run_strong_compare(cfg: ScanConfig) -> tuple[list[str], list[list]]:
    def energies(p: ModelParams) -> list[float] | None:
        try:
            if cfg.approx == "adiabatic":
                return [e for bn in range(cfg.n_keep)
                        for e in strongpert.adiabatic_energies(bn, p)]
            return strongpert.squeezed_levels(p, cfg.n_keep + 2)
        except strongpert.UndefinedRegime:
            return None

    return _compare(cfg, energies)


def run_rabi_markers(cfg: ScanConfig) -> tuple[list[str], list[list], bool]:
    header = ["n_eps", "g", "gap", "verified"]
    rows = []
    all_ok = True
    for n in range(cfg.n + 1):
        pts = bethe.rabi_exceptional(n, cfg.omega, cfg.omega0,
                                     (cfg.start, cfg.stop), n_max=cfg.n_max)
        for pt in pts:
            all_ok = all_ok and pt.verified
            rows.append([pt.n, pt.params.g1, pt.verified_gap, int(pt.verified)])
    rows.sort(key=lambda r: (r[0], r[1]))
    return header, rows, all_ok


def _emit(cfg: ScanConfig, header: list[str], rows: list[list]) -> None:
    cfg_json = json.dumps(cfg.as_dict(), sort_keys=True)
    if cfg.format == "csv":
        lines = [f"# {cfg_json}", ",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "config": cfg.as_dict(),
            "rows": [dict(zip(header, row)) for row in rows],
            "meta": {"version": __version__},
        }
        text = json.dumps(doc, sort_keys=True, default=_fmt) + "\n"
    if cfg.output == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(cfg: ScanConfig) -> int:
    """Dispatch one scan; returns the process exit code."""
    cfg.validate()
    verified_ok = True
    if cfg.mode == "spectrum-scan":
        header, rows = run_spectrum_scan(cfg)
    elif cfg.mode == "exceptional":
        header, rows, verified_ok = run_exceptional(cfg)
    elif cfg.mode == "crossing-count":
        header, rows = run_crossing_count(cfg)
    elif cfg.mode == "weak-compare":
        header, rows = run_weak_compare(cfg)
    elif cfg.mode == "strong-compare":
        header, rows = run_strong_compare(cfg)
    else:
        header, rows, verified_ok = run_rabi_markers(cfg)
    _emit(cfg, header, rows)
    return 0 if verified_ok else 4


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range must be start:stop:count, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rabi-spectra",
        description="Generalized Rabi model: spectra, exceptional points, and "
                    "analytic approximations.",
    )
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("--config", help="JSON file with a full ScanConfig")
    ap.add_argument("--omega", type=float, default=1.0)
    ap.add_argument("--omega0", type=float, default=1.0)
    ap.add_argument("--g1", type=float, default=0.0)
    ap.add_argument("--g2", type=float, default=0.0)
    for axis in AXES:
        ap.add_argument(f"--{axis}-range", dest=f"{axis}_range",
                        help="grid start:stop:count on this axis")
    ap.add_argument("--g-range", dest="g_range",
                    help="rabi-markers: coupling range start:stop:count (count unused)")
    ap.add_argument("--n", type=int, default=0,
                    help="exceptional level index, or max level for counts/markers")
    ap.add_argument("--free", choices=FREE_PARAMS, default="g1",
                    help="exceptional mode: parameter solved for")
    ap.add_argument("--free-range", default="0.001:4:2",
                    help="exceptional mode: search interval start:stop:ignored")
    ap.add_argument("--approx", choices=("adiabatic", "squeezed"), default="adiabatic")
    ap.add_argument("--n-max", type=int, default=fock.DEFAULT_N_MAX)
    ap.add_argument("--n-keep", type=int, default=8)
    ap.add_argument("--raw-energy", action="store_true")
    ap.add_argument("--output", "-o", default="-")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def config_from_args(args: argparse.Namespace) -> ScanConfig:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = set(ScanConfig.__dataclass_fields__)
        bad = set(raw) - known
        if bad:
            raise ConfigError(f"unknown config fields: {sorted(bad)}")
        try:
            return ScanConfig(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    if not args.mode:
        raise ConfigError("--mode (or --config) is required")
    axis, rng = None, None
    for cand in AXES:
        text = getattr(args, f"{cand}_range")
        if text:
            if axis is not None:
                raise ConfigError("exactly one axis range may be given")
            axis, rng = cand, _parse_range(text)
    if args.g_range:
        if axis is not None:
            raise ConfigError("--g-range conflicts with other axis ranges")
        axis, rng = "g1", _parse_range(args.g_range)
    if axis is None:
        raise ConfigError("an axis range is required (e.g. --g1-range 0:1.5:200)")
    free_lo, free_hi, _ = _parse_range(args.free_range)
    return ScanConfig(
        mode=args.mode, omega=args.omega, omega0=args.omega0, g1=args.g1,
        g2=args.g2, axis=axis, start=rng[0], stop=rng[1], count=rng[2],
        n_max=args.n_max, n_keep=args.n_keep, n=args.n, free=args.free,
        free_start=free_lo, free_stop=free_hi, approx=args.approx,
        raw_energy=args.raw_energy, output=args.output, format=args.format,
    )


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
