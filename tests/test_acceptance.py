"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines and timings. Tolerances are frozen here, not configurable.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import brentq

from oracles import hierarchy_terms, lambda_from_roots, lambda_scaled_derivative
from rabi_spectra import bethe, fock, strongpert, weakpert
from rabi_spectra.core import ModelParams, invert, mirror, reduce
from rabi_spectra.special import genlaguerre

warnings.filterwarnings("ignore", category=RuntimeWarning)

# Frozen at first calibration: observed 0.0042 on the criterion-5 grid
# (target <= 0.05); bound set with headroom.
WEAK_TRACKING_BOUND = 0.01


def _report(num: int, text: str, t0: float) -> None:
    print(f"\n[criterion {num:2d}] PASS: {text} ({time.monotonic() - t0:.1f}s)")


def test_criterion_01_n0_exceptional_curve_and_cat_states():
    t0 = time.monotonic()
    for g2 in (0.2, 0.5, 0.8):
        g1 = math.sqrt(2.0 + g2 * g2)
        p = ModelParams(1.0, 1.0, g1, g2)
        r = reduce(p)
        h = fock.build(p, 200)
        res = fock.diagonalize(h, 4)
        gap = res.epsilons[1] - res.epsilons[0]
        assert gap < 1e-7
        assert abs(res.epsilons[0]) < 1e-6
        sol = bethe.BetheSolution(0, np.zeros(0, dtype=complex), 0.0, 0.0, 0.0)
        pt = bethe.ExceptionalPoint(0, p, r, sol, gap, float(res.epsilons[:2].mean()), True)
        for state in bethe.eigenstate_at_exceptional(pt, n_max=200):
            assert fock.eigvec_overlap(h, 0, state) > 1 - 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _report(1, "n=0 curve g1^2-g2^2=2: degenerate at eps=0, cat doublet "
               "projection > 1-1e-4", t0)


def test_criterion_02_n1_closed_form_roots_and_p1_points():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    samples = [tuple(rng.uniform(0.1, 1.0, 2)) for _ in range(50)]
    for kappa, nu in samples:
        r = reduce(invert(kappa, nu, 1.0, 1.0))
        for z1 in bethe.closed_form_roots_n1(kappa, nu):
            res = bethe.residual_bae([z1], r, 1.0)
            assert np.max(np.abs(res)) < 1e-12
    n_pts = 0
    for kappa, nu in samples:
        for branch in (0, 1):
            deltas = np.linspace(0.05, 2.5, 250)
            vals = np.array([bethe.exceptional_condition_n1(kappa, nu, d, branch)
                             for d in deltas])
            for i in range(len(deltas) - 1):
                a, b = vals[i], vals[i + 1]
                if not (np.isfinite(a) and np.isfinite(b)) or a * b > 0:
                    continue
                d0 = brentq(lambda d: bethe.exceptional_condition_n1(kappa, nu, d, branch),
                            deltas[i], deltas[i + 1], xtol=1e-12)
                p = invert(kappa, nu, d0, 1.0)
                if not bethe._has_null_vector(1, reduce(p)):
                    continue
                gap, eps_at = bethe._fock_gap_at(p, 1, 200)
                assert gap < 1e-7, (kappa, nu, d0)
                assert abs(eps_at - 1) < 1e-6
                n_pts += 1
    assert n_pts >= 20
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(2, f"50 random (kappa,nu): z1 residuals < 1e-12; {n_pts} p1 points "
               "all fock-confirmed at eps=1", t0)


def _measure_crossing_counts(omega0: float, n_top: int) -> dict[int, int]:
    p = ModelParams(1.0, omega0, 1.0, 0.01)
    grid = np.unique(np.concatenate([np.linspace(0.02, 0.5, 120),
                                     np.linspace(0.5, 4.95, 380)]))
    events = fock.scan_crossings(p, grid, n_levels=16, n_max=120, refine_tol=1e-8)
    counts = {n: 0 for n in range(n_top + 1)}
    seen = set()
    for ev in events:
        if ev.kind != "crossing":
            continue
        n_eps = round(ev.epsilon_at_event)
        if abs(ev.epsilon_at_event - n_eps) > 1e-4 or not (0 <= n_eps <= n_top):
            continue
        key = (n_eps, round(ev.g1_location, 4))
        if key not in seen:
            seen.add(key)
            counts[n_eps] += 1
    return counts


def test_criterion_03_crossing_count_bounds_and_equality():
    t0 = time.monotonic()
    for omega0 in (0.13, 0.5, 0.77, 1.42, 2.23, 2.9):
        measured = _measure_crossing_counts(omega0, n_top=5)
        p = ModelParams(1.0, omega0, 1.0, 0.01)
        for n in range(6):
            n_cr, _ = weakpert.count_events(n, p)
            assert n + 1 <= measured[n] <= 2 * n + 1, (omega0, n, measured[n])
            assert measured[n] == n_cr, (omega0, n, measured[n], n_cr)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report(3, "measured N_cr within [n+1, 2n+1] and equal to the enumeration "
               "at 6 omega0 samples, n <= 5", t0)


def test_criterion_04_integer_half_integer_placement():
    t0 = time.monotonic()
    for g2 in (0.01, 0.056, 0.1):
        p = ModelParams(1.0, 1.0, 0.0, g2)
        grid = np.linspace(0.0, 1.5, 180)
        events = fock.scan_crossings(p, grid, n_levels=12, n_max=200)
        assert any(ev.kind == "crossing" for ev in events)
        assert any(ev.kind == "avoided" for ev in events)
        for ev in events:
            if ev.kind == "crossing":
                assert abs(ev.epsilon_at_event - round(ev.epsilon_at_event)) < 1e-4
            else:
                near_half = round(ev.epsilon_at_event - 0.5) + 0.5
                assert abs(ev.epsilon_at_event - near_half) < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(4, "all crossings at integer eps (1e-4), avoided minima at "
               "half-integers (0.05) for g2 in {0.01, 0.056, 0.1}", t0)


def test_criterion_05_weak_coupling_tracking_and_gap_scaling():
    t0 = time.monotonic()
    # 5a: the two-level curves track the lowest 6 levels
    max_dev = 0.0
    for g1 in np.linspace(0.0, 1.2, 61):
        p = ModelParams(1.0, 1.0, float(g1), 0.056)
        eps = fock._eps_levels(p, 200, 6)
        lam_p = reduce(p).lambda_plus
        curves = []
        for (n, k) in [(-1, 1)] + [(m, kk) for m in range(12) for kk in (0, 1)]:
            hi, lo = weakpert.avoided_energies(n, k, p)
            curves += [hi + lam_p, lo + lam_p]
        curves = np.array(sorted(curves))
        for e in eps:
            max_dev = max(max_dev, float(np.min(np.abs(curves - e))))
    assert max_dev < WEAK_TRACKING_BOUND
    # 5b: minimal gaps at the case-0/1a/1b loci scale linearly in g2
    for case, n in (("0", -1), ("1a", 0), ("1b", 0)):
        locus = weakpert.degeneracy_loci(case, 1.0, 1.0, n=max(n, 0))
        gaps = []
        for g2 in (0.01, 0.02):
            p = ModelParams(1.0, 1.0, 0.0, g2)
            eps_locus = locus.epsilon_at(g2, 1.0)
            grid = np.linspace(locus.g1 - 0.05, locus.g1 + 0.05, 15)
            events = fock.scan_crossings(p, grid, n_levels=14, n_max=140)
            # other (higher-order) avoided crossings can sit nearby in g1;
            # the locus event is identified by its shifted energy too
            avoided = [ev for ev in events if ev.kind == "avoided"
                       and abs(ev.epsilon_at_event - eps_locus) < 0.2]
            ev = min(avoided, key=lambda e: abs(e.g1_location - locus.g1))
            gaps.append(ev.gap)
        assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.05), case
    _report(5, f"two-level curves track lowest 6 levels (max dev {max_dev:.4f} "
               f"< {WEAK_TRACKING_BOUND}); case-0/1a/1b gaps linear in g2 "
               "within 5%", t0)


def test_criterion_06_adiabatic_ladder():
    t0 = time.monotonic()
    p = ModelParams(1.0, 0.1, 2.0, 2.0)
    E = eigh(fock.build(p, 260).matrix, eigvals_only=True, subset_by_index=(0, 9))
    for N in range(4):
        lo, hi = strongpert.adiabatic_energies(N, p)
        assert abs(E[2 * N] - lo) < 0.05
        assert abs(E[2 * N + 1] - hi) < 0.05
    # splitting decay: log-splitting difference between beta and 1.25 beta
    g = 2.0
    p2 = ModelParams(1.0, 0.1, 1.25 * g, 1.25 * g)
    for N in (0, 1):
        lo1, hi1 = strongpert.adiabatic_energies(N, p)
        lo2, hi2 = strongpert.adiabatic_energies(N, p2)
        slope = math.log(hi2 - lo2) - math.log(hi1 - lo1)
        want = -2 * (1.25 ** 2 - 1) * g * g
        assert slope == pytest.approx(want, rel=0.15)
    _report(6, "adiabatic pair energies within 0.05 of numerics for N <= 3; "
               "splitting decays like exp(-2 beta^2/omega^2) (15%)", t0)


def test_criterion_07_large_omega0_squeezed_spectrum():
    t0 = time.monotonic()
    p = ModelParams(1.0, 5.0, 0.3, 0.1)
    E = eigh(fock.build(p, 200).matrix, eigvals_only=True, subset_by_index=(0, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        approx = strongpert.squeezed_levels(p, 6)
    dev = np.max(np.abs(E - np.array(approx)))
    # the g1 -> g2 divergence is flagged, not computed
    with pytest.raises(strongpert.UndefinedRegime):
        strongpert.squeezed_spectrum(1, -1, ModelParams(1.0, 5.0, 0.1, 0.3))
    with pytest.warns(UserWarning):
        strongpert.squeezed_spectrum(1, -1, ModelParams(1.0, 5.0, 0.11, 0.1))
    assert dev < 0.05, (
        f"squeezed-basis spectrum misses numerics by {dev:.3f} at "
        "(omega0=5, g1=0.3, g2=0.1): the neglected squeeze term "
        "omega g1 g2/g-^2 = 0.375 is not small at these parameters"
    )
    _report(7, f"lowest 6 squeezed-basis levels within 0.05 (max dev {dev:.4f}); "
               "divergence flagged", t0)


def test_criterion_07_squeezed_spectrum_in_regime():
    # companion check: the same formula is accurate once the squeeze term is
    # actually small (g2/g1 small), confirming the implementation
    t0 = time.monotonic()
    p = ModelParams(1.0, 5.0, 0.3, 0.015)
    E = eigh(fock.build(p, 200).matrix, eigvals_only=True, subset_by_index=(0, 5))
    approx = strongpert.squeezed_levels(p, 6)
    dev = np.max(np.abs(E - np.array(approx)))
    assert dev < 0.05
    _report(7, f"(companion) in-regime squeezed spectrum max dev {dev:.4f} < 0.05", t0)


def test_criterion_08_nu_to_zero_asymptotics():
    t0 = time.monotonic()
    rel = {}
    for nu in (0.05, 0.025):
        sols = bethe.branch_Z(5, 0.1, nu)
        ground = sols[0]
        a1, a2 = bethe.asymptotic_Z(5, 0.1, nu)
        rel[nu] = max(abs(ground.Z1 - a1) / abs(ground.Z1),
                      abs(ground.Z2 - a2) / abs(ground.Z2))
    assert rel[0.05] < 1e-2
    assert rel[0.025] / rel[0.05] <= 0.35
    _report(8, f"ground-branch (Z1,Z2) match asymptotics: rel err {rel[0.05]:.2e} "
               f"at nu=0.05, ratio {rel[0.025]/rel[0.05]:.2f} <= 0.35 when halving", t0)


def _rabi_eps_levels(g: float, k: int, n_max: int) -> np.ndarray:
    return fock._eps_levels(ModelParams(1.0, 1.0, g, g), n_max, k)


def test_criterion_09_rabi_markers():
    t0 = time.monotonic()
    n_top = 8  # compare crossings with eps <= 8
    markers = []
    for n in range(0, n_top):
        for pt in bethe.rabi_exceptional(n, 1.0, 1.0, (0.05, 1.02), n_max=200):
            assert pt.verified
            assert pt.verified_gap < 1e-7
            assert abs(pt.epsilon_at_crossing - pt.n) < 1e-6
            if pt.params.g1 <= 1.0:
                markers.append((pt.n, pt.params.g1))
    # independent numeric crossings on the Rabi line (scan with end margins)
    grid = np.linspace(0.04, 1.02, 260)
    eps = np.array([_rabi_eps_levels(g, 20, 200) for g in grid])
    numeric = []
    for pair in range(eps.shape[1] - 1):
        g = eps[:, pair + 1] - eps[:, pair]
        idx = np.where((g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
        for i in idx:
            gm, gapm = fock._golden_min(
                lambda x: float(np.diff(_rabi_eps_levels(x, 20, 200)[pair:pair + 2])[0]),
                grid[i - 1], grid[i + 1], 1e-9)
            if gapm < 1e-7 and gm <= 1.0:
                em = float(_rabi_eps_levels(gm, 20, 200)[pair:pair + 2].mean())
                if abs(em - round(em)) < 1e-4 and round(em) <= n_top:
                    numeric.append((int(round(em)), gm))
    numeric = sorted(set((n, round(g, 6)) for n, g in numeric))
    # every marker coincides with a numeric crossing, and vice versa
    for n, g in markers:
        assert any(nn == n and abs(gg - g) < 1e-5 for nn, gg in numeric), (n, g)
    for nn, gg in numeric:
        assert any(n == nn and abs(g - gg) < 1e-5 for n, g in markers), (nn, gg)
    _report(9, f"{len(markers)} Juddian markers <-> {len(numeric)} numeric "
               "integer-eps crossings, both directions matched", t0)


def test_criterion_10_structural_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    # Hermiticity (exact) on 100 random instances
    for _ in range(100):
        p = ModelParams(rng.uniform(0.5, 2), rng.uniform(-2, 2),
                        rng.uniform(0, 2), rng.uniform(0, 2))
        h = fock.build(p, 12)
        assert np.array_equal(h.matrix, h.matrix.T)
    # parity-block oracle to 1e-12 on 100 instances
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(-1.5, 1.5),
                        rng.uniform(0, 1.5), rng.uniform(0, 1.5))
        h = fock.build(p, 20)
        be, bo = fock.parity_blocks(h)
        merged = np.sort(np.concatenate([eigh(be, eigvals_only=True),
                                         eigh(bo, eigvals_only=True)]))
        assert np.max(np.abs(merged - eigh(h.matrix, eigvals_only=True))) < 1e-12
    # mirror symmetry of spectra to 1e-10 on 100 instances
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(-1.2, 1.2),
                        rng.uniform(0, 1.2), rng.uniform(0, 1.2))
        e = eigh(fock.build(p, 40).matrix, eigvals_only=True)[:30]
        em = eigh(fock.build(mirror(p), 40).matrix, eigvals_only=True)[:30]
        assert np.max(np.abs(e - em)) < 1e-10
    # lambda+^2 - lambda-^2 = nu^4 on 100 instances
    for _ in range(100):
        r = reduce(ModelParams(rng.uniform(0.5, 2), rng.uniform(-2, 2),
                               rng.uniform(0, 3), rng.uniform(0, 3)))
        assert r.lambda_plus ** 2 - r.lambda_minus ** 2 == pytest.approx(
            r.nu ** 4, rel=1e-13, abs=1e-15)
    # Lambda consistency and hierarchy residuals on >= 100 Bethe solutions
    solutions = []
    while len(solutions) < 100:
        n = int(rng.integers(2, 4))
        kappa, nu = rng.uniform(0.15, 0.9, 2)
        if abs(kappa - nu) < 0.05:
            continue
        for s in bethe.branch_Z(n, kappa, nu):
            solutions.append((n, kappa, nu, s))
    for n, kappa, nu, s in solutions:
        lam_roots = lambda_from_roots(s.roots, reduce(invert(kappa, nu, 1.0, 1.0)), n)
        lam_lin = bethe.lambda_linear_solve(s.Z1, s.Z2, n, kappa, nu)
        for a, b in zip(lam_lin, lam_roots.lam):
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10)
        for j, d_j in enumerate(lam_roots.degeneracies):
            for l in range(d_j):
                derivs = [lambda_scaled_derivative(s.roots, lam_roots.levels[j], o, nu)
                          for o in range(1, l + 1)]
                nxt = lambda_scaled_derivative(s.roots, lam_roots.levels[j], l + 1, nu)
                terms = hierarchy_terms(j, l, lam_roots.lam, derivs, nxt,
                                        lam_roots.levels, lam_roots.degeneracies, nu)
                assert abs(math.fsum(terms)) < 1e-9 * max(1.0, max(abs(x) for x in terms))
    # JC-limit exactness at g2 = 0 to 1e-12 on 100 instances
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(0.1, 1.5), rng.uniform(0.05, 1.0), 0.0)
        E = eigh(fock.build(p, 130).matrix, eigvals_only=True, subset_by_index=(0, 9))
        vals = [weakpert.jc_level(-1, 1, p).E0]
        for n in range(8):
            vals.append(weakpert.jc_level(n, 0, p).E0)
            vals.append(weakpert.jc_level(n, 1, p).E0)
        assert np.max(np.abs(E - np.sort(vals)[:10])) < 1e-12
    # Laguerre recurrence vs direct summation to 1e-11 relative
    from oracles import laguerre_direct_sum
    checks = 0
    for alpha in range(-1, 4):
        for n in range(0, 31, 2):
            for x in (0.0, 0.7, 3.3, 9.1, 16.0):
                want = laguerre_direct_sum(n, alpha, x)
                assert genlaguerre(n, alpha, x) == pytest.approx(
                    want, rel=1e-11, abs=1e-11)
                checks += 1
    assert checks >= 100
    _report(10, "hermiticity, parity oracle (1e-12), mirror (1e-10), "
                "lambda identity, Lambda consistency (1e-10), hierarchy "
                "(1e-9), JC exactness (1e-12), Laguerre oracle (1e-11) "
                "on >= 100 instances each", t0)
