"""In-memory span recorder that wraps the library's layer boundaries.

Every internal call in ``rabi_spectra`` resolves its callee through a module
global (``fock._eps_levels``, ``bethe.brentq``, ``cli._emit``, ...), so
replacing those attributes with timing wrappers records each layer crossing
without editing the library. ``Tracer`` is a context manager: entering it
installs the wrappers, leaving it restores every original attribute.

A span is ``(id, name, start, end, parent, thread, info)``. Thread pools
created by ``fock`` and ``cli`` are replaced by a subclass that records the
pool's lifetime as a span and hands the submitting span to each worker, so
spans from pool threads take the submitting span as parent.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from rabi_spectra import bethe, cli, fock, strongpert, weakpert


def _is_not_none(args, kwargs, result):
    return {"ok": result is not None}


# (module, attribute, span name, info(args, kwargs, result) -> dict or None)
LAYERS = [
    (fock, "build", "fock.build", None),
    (fock, "eigh", "fock.eigensolve",
     lambda a, k, r: {"dim": int(a[0].shape[0]),
                      "vectors": not k.get("eigvals_only", False)}),
    (fock, "_eps_levels", "fock.levels", None),
    (fock, "_scan_levels", "fock.grid", None),
    (fock, "_golden_min", "fock.refine", None),
    (fock, "scan_crossings", "fock.scan_crossings",
     lambda a, k, r: {"kinds": [(ev.kind, bool(ev.caveat)) for ev in r]}),
    (bethe, "exceptional_condition", "bethe.F", lambda a, k, r: {"n": a[0]}),
    (bethe, "exceptional_condition_n0", "bethe.F", lambda a, k, r: {"n": 0}),
    (bethe, "exceptional_condition_n1", "bethe.F", lambda a, k, r: {"n": 1}),
    (bethe, "_hierarchy_closure", "bethe.hierarchy", None),
    (bethe, "brentq", "bethe.bracket", None),
    (bethe, "_recover_solution", "bethe.recover", _is_not_none),
    (bethe, "_recover_rabi_solution", "bethe.recover", _is_not_none),
    (bethe, "_newton_bae", "bethe.newton_bae", _is_not_none),
    (bethe, "_fock_gap_at", "bethe.verify", None),
    (bethe, "find_exceptional", "bethe.find_exceptional",
     lambda a, k, r: {"verified": sum(pt.verified for pt in r)}),
    (bethe, "rabi_exceptional", "bethe.rabi_exceptional",
     lambda a, k, r: {"verified": sum(pt.verified for pt in r)}),
    (bethe, "branch_Z", "bethe.branch_Z", lambda a, k, r: {"n": a[0], "found": len(r)}),
    (bethe, "_z_start_candidates", "bethe.starts", lambda a, k, r: {"starts": len(r)}),
    (bethe, "_newton_2d", "bethe.newton2d", _is_not_none),
    (bethe, "closed_system_terminals", "bethe.terminals", None),
    (weakpert, "count_events", "weakpert", None),
    (weakpert, "avoided_energies", "weakpert", None),
    (strongpert, "adiabatic_energies", "strongpert", None),
    (strongpert, "squeezed_levels", "strongpert", None),
    (cli, "run_spectrum_scan", "cli.mode.spectrum-scan", None),
    (cli, "run_exceptional", "cli.mode.exceptional", None),
    (cli, "run_crossing_count", "cli.mode.crossing-count", None),
    (cli, "run_weak_compare", "cli.mode.weak-compare", None),
    (cli, "run_strong_compare", "cli.mode.strong-compare", None),
    (cli, "run_rabi_markers", "cli.mode.rabi-markers", None),
    (cli, "_emit", "cli.emit", None),
]
POOL_MODULES = [(fock, "fock.pool"), (cli, "cli.pool")]
# Snapshot taken at import, so restoration can be checked by identity.
_ORIGINALS = {(m.__name__, a): getattr(m, a) for m, a, _, _ in LAYERS}
CLI_MODES = ("spectrum-scan", "exceptional", "crossing-count", "weak-compare",
             "strong-compare", "rabi-markers")


class Tracer:
    """Records spans at the layer boundaries listed in LAYERS while active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "base", 0)

    def _wrap(self, orig, name, info):
        tracer = self

        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else getattr(local, "base", 0)
            sid = next(tracer._ids)
            stack.append(sid)
            extra = None
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), extra))

        return wrapper

    def _pool_class(self, name):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span = (next(tracer._ids), tracer.current(), perf_counter())

            def submit(self, fn, *args, **kwargs):
                parent = tracer.current()

                def run():
                    tracer._local.base = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.base = 0

                return super().submit(run)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                sid, parent, t0 = self._span
                tracer.spans.append((sid, name, t0, perf_counter(), parent,
                                     threading.get_ident(), {"workers": self._max_workers}))

        return TracedPool

    def __enter__(self) -> "Tracer":
        for module, attr, name, info in LAYERS:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name, info))
        for module, name in POOL_MODULES:
            self._saved.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
            module.ThreadPoolExecutor = self._pool_class(name)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


def installed_wrappers() -> list[str]:
    """Names of layer attributes that are currently wrapped (empty when clean)."""
    out = [f"{m.__name__}.{a}" for m, a, _, _ in LAYERS
           if getattr(m, a) is not _ORIGINALS[(m.__name__, a)]]
    out += [f"{m.__name__}.ThreadPoolExecutor" for m, _ in POOL_MODULES
            if m.ThreadPoolExecutor is not ThreadPoolExecutor]
    return out


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per-name self time: span duration minus the time its children cover.

    Children on other threads (pool workers) overlap their parent rather
    than block it, so only same-thread children are subtracted.
    """
    child_time: dict[int, float] = defaultdict(float)
    thread_of = {s[0]: s[5] for s in spans}
    for sid, _, t0, t1, parent, thread, _ in spans:
        if parent and thread_of.get(parent) == thread:
            child_time[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, *_ in spans:
        out[name] += (t1 - t0) - child_time[sid]
    return dict(out)


def span_stats(spans: list[tuple], passes: int) -> dict[str, dict]:
    """Per span name: calls and busy seconds per pass, median call time."""
    durs: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        durs[s[1]].append(s[3] - s[2])
    return {name: {"calls": len(d) / passes, "busy_s": sum(d) / passes,
                   "p50_ms": statistics.median(d) * 1e3}
            for name, d in sorted(durs.items())}


def _eigh_mflop(dim: int, vectors: bool) -> float:
    # Dense symmetric eigensolve: tridiagonal reduction costs 4/3 n^3 flops;
    # with eigenvectors the back-transformation and QR sweeps bring it to
    # about 9 n^3 (Golub and Van Loan, Sec. 8.3). Computed, not counted.
    return (9.0 if vectors else 4.0 / 3.0) * dim ** 3 / 1e6


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".n2") or name.endswith(".n8") or name.endswith(".n12"):
        return "us"
    if name.endswith("mflop"):
        return "Mflop"
    if name.endswith((".ratio", "_ratio", ".overlap", "_frac", "_per_event")):
        return "ratio"
    if name.endswith(".dim"):
        return "rows"
    return "count"


def layer_metrics(spans: list[tuple], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (counts are exact per-pass values)."""
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    ids = {s[0]: s for s in spans}

    def dur(s):
        return s[3] - s[2]

    def busy(name):
        return sum(dur(s) for s in by_name[name]) / passes

    def calls(name):
        return len(by_name[name]) / passes

    def has_ancestor(s, name):
        p = s[4]
        while p:
            anc = ids.get(p)
            if anc is None:
                return False
            if anc[1] == name:
                return True
            p = anc[4]
        return False

    def median_ms(items, scale=1e3):
        return statistics.median(dur(s) for s in items) * scale if items else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["fock.build.calls"] = calls("fock.build")
    m["fock.build.busy_s"] = busy("fock.build")
    eig = by_name["fock.eigensolve"]
    m["fock.eigensolve.calls"] = calls("fock.eigensolve")
    m["fock.eigensolve.busy_s"] = busy("fock.eigensolve")
    m["fock.eigensolve.p50_ms"] = median_ms(eig)
    m["fock.eigensolve.dim"] = float(max((s[6]["dim"] for s in eig), default=0))
    m["fock.eigensolve.computed_mflop"] = sum(
        _eigh_mflop(s[6]["dim"], s[6]["vectors"]) for s in eig) / passes

    pools = by_name["fock.pool"] + by_name["cli.pool"]
    main = threading.main_thread().ident
    grid_s = sum(dur(s) for s in pools) / passes
    pooled_eig = sum(dur(s) for s in eig if s[5] != main) / passes
    m["fock.scan.grid_s"] = grid_s
    m["fock.scan.overlap"] = ratio(pooled_eig, grid_s)

    refine_eig = [s for s in eig if has_ancestor(s, "fock.refine")]
    m["fock.refine.events"] = calls("fock.refine")
    m["fock.refine.eigensolves"] = len(refine_eig) / passes
    m["fock.refine.eigensolves_per_event"] = ratio(len(refine_eig), len(by_name["fock.refine"]))
    m["fock.refine.busy_s"] = busy("fock.refine")
    kinds = [k for s in by_name["fock.scan_crossings"] for k in s[6]["kinds"]]
    m["fock.events.crossing"] = sum(k == "crossing" for k, _ in kinds) / passes
    m["fock.events.avoided"] = sum(k == "avoided" for k, _ in kinds) / passes
    m["fock.events.caveat"] = sum(c for _, c in kinds) / passes

    f_spans = by_name["bethe.F"]
    m["bethe.F.calls"] = calls("bethe.F")
    m["bethe.F.busy_s"] = busy("bethe.F")
    for n in (2, 8, 12):
        m[f"bethe.F.p50_us.n{n}"] = median_ms([s for s in f_spans if s[6] and s[6]["n"] == n], 1e6)
    m["bethe.hierarchy.calls"] = calls("bethe.hierarchy")
    m["bethe.bracket.count"] = calls("bethe.bracket")
    rec = by_name["bethe.recover"]
    rec_ok = sum(1 for s in rec if s[6] and s[6]["ok"])
    m["bethe.recover.attempts"] = len(rec) / passes
    m["bethe.recover.ok"] = rec_ok / passes
    m["bethe.recover.ratio"] = ratio(rec_ok, len(rec))
    nb = by_name["bethe.newton_bae"]
    m["bethe.newton_bae.calls"] = len(nb) / passes
    m["bethe.newton_bae.failed"] = sum(1 for s in nb if s[6] and not s[6]["ok"]) / passes
    m["bethe.newton_bae.busy_s"] = busy("bethe.newton_bae")
    m["bethe.verify.calls"] = calls("bethe.verify")
    m["bethe.verify.busy_s"] = busy("bethe.verify")
    m["bethe.verify.pass"] = sum(
        s[6]["verified"] for s in by_name["bethe.find_exceptional"] + by_name["bethe.rabi_exceptional"]
        if s[6]) / passes
    starts = sum(s[6]["starts"] for s in by_name["bethe.starts"] if s[6])
    found = sum(s[6]["found"] for s in by_name["bethe.branch_Z"] if s[6])
    m["bethe.branch.starts"] = starts / passes
    m["bethe.branch.converged"] = sum(1 for s in by_name["bethe.newton2d"]
                                      if s[6] and s[6]["ok"]) / passes
    m["bethe.branch.found"] = found / passes
    m["bethe.branch.useful_ratio"] = ratio(found, starts)
    m["bethe.newton2d.busy_s"] = busy("bethe.newton2d")
    m["bethe.terminals.calls"] = calls("bethe.terminals")

    m["weakpert.calls"] = calls("weakpert")
    m["weakpert.busy_s"] = busy("weakpert")
    m["strongpert.calls"] = calls("strongpert")
    m["strongpert.busy_s"] = busy("strongpert")
    for mode in CLI_MODES:
        m[f"cli.mode.{mode}.s"] = busy(f"cli.mode.{mode}")
    m["cli.emit.busy_s"] = busy("cli.emit")
    return m


METRIC_NAMES = list(layer_metrics([], 1)) + ["trace.overhead_frac"]
UNITS = {name: _unit(name) for name in METRIC_NAMES}
