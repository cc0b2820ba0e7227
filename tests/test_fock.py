import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

from rabi_spectra import fock
from rabi_spectra.core import ModelParams, reduce
from rabi_spectra.weakpert import jc_level


def jc_levels_sorted(p: ModelParams, count: int) -> np.ndarray:
    """Closed-form JC spectrum (g2 = 0), ascending."""
    vals = [jc_level(-1, 1, p).E0]
    for n in range(count + 6):
        vals.append(jc_level(n, 0, p).E0)
        vals.append(jc_level(n, 1, p).E0)
    return np.sort(vals)[:count]


def test_build_decoupled_diagonal():
    p = ModelParams(1.0, 0.4, 0.0, 0.0)
    h = fock.build(p, 5)
    want = []
    for n in range(6):
        want += [n - 0.4, n + 0.4]
    assert np.allclose(np.diag(h.matrix), want)
    assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) == 0


def test_build_nonzero_pattern_small():
    p = ModelParams(1.0, 0.3, 0.7, 0.2)
    h = fock.build(p, 2)
    m = h.matrix
    # |n,+> <-> |n+1,->: g1 sqrt(n+1)
    assert m[1, 2] == pytest.approx(0.7 * 1.0)
    assert m[3, 4] == pytest.approx(0.7 * math.sqrt(2))
    # |n,-> <-> |n+1,+>: g2 sqrt(n+1)
    assert m[0, 3] == pytest.approx(0.2 * 1.0)
    assert m[2, 5] == pytest.approx(0.2 * math.sqrt(2))
    # nothing else off-diagonal
    mm = m.copy()
    for (i, j) in [(1, 2), (3, 4), (0, 3), (2, 5)]:
        mm[i, j] = mm[j, i] = 0.0
    assert np.count_nonzero(mm - np.diag(np.diag(mm))) == 0


def test_build_exactly_symmetric_randomized():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = ModelParams(rng.uniform(0.5, 2), rng.uniform(-2, 2),
                        rng.uniform(0, 2), rng.uniform(0, 2))
        h = fock.build(p, 12)
        assert np.array_equal(h.matrix, h.matrix.T)


def test_cutoff_too_small():
    with pytest.raises(fock.CutoffTooSmall):
        fock.build(ModelParams(1, 1, 1, 1), 0)


def test_jc_closed_form_oracle():
    p = ModelParams(1.0, 0.8, 0.45, 0.0)
    h = fock.build(p, 120)
    evals = eigh(h.matrix, eigvals_only=True)
    want = jc_levels_sorted(p, 20)
    assert np.max(np.abs(evals[:20] - want)) < 1e-12


def test_crossing_plane_fig3_point():
    # g1^2 - g2^2 = 2 omega omega0 puts the two lowest shifted levels at eps=0
    p = ModelParams(1.0, 1.0, 1.5, 0.5)
    h = fock.build(p, 200)
    res = fock.diagonalize(h, 4)
    assert res.epsilons[1] - res.epsilons[0] < 1e-10
    assert abs(res.epsilons[0]) < 1e-8


def test_diagonalize_identity_example():
    p = ModelParams(1.0, 0.3, 0.0, 0.0)
    res = fock.diagonalize(fock.build(p, 60), 4)
    assert np.allclose(res.epsilons, [-0.3, 0.3, 0.7, 1.3], atol=1e-12)
    assert res.convergence_estimate <= fock.CONV_TOL


def test_diagonalize_not_converged():
    # huge coupling at a tiny cutoff: top of spectrum is garbage
    p = ModelParams(1.0, 0.5, 3.0, 2.0)
    h = fock.build(p, 6)
    with pytest.raises(fock.NotConverged):
        fock.diagonalize(h, 14)


def test_variational_monotonicity():
    p = ModelParams(1.0, 0.7, 1.1, 0.6)
    e1 = eigh(fock.build(p, 60).matrix, eigvals_only=True)[:20]
    e2 = eigh(fock.build(p, 120).matrix, eigvals_only=True)[:20]
    assert np.all(e2 <= e1 + 1e-12)


def test_parity_block_oracle_randomized():
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = ModelParams(1.0, rng.uniform(-1.5, 1.5),
                        rng.uniform(0, 1.5), rng.uniform(0, 1.5))
        h = fock.build(p, 24)
        be, bo = fock.parity_blocks(h)
        merged = np.sort(np.concatenate([
            eigh(be, eigvals_only=True), eigh(bo, eigvals_only=True)]))
        full = eigh(h.matrix, eigvals_only=True)
        assert np.max(np.abs(merged - full)) < 1e-12


def dense_parity_eps(p: ModelParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All shifted levels from the dense matrix, merged over its parity
    blocks, and the parity (0 even, 1 odd) of each."""
    be, bo = fock.parity_blocks(fock.build(p, n_max))
    levels = [eigh(be, eigvals_only=True), eigh(bo, eigvals_only=True)]
    merged = np.concatenate(levels)
    order = np.argsort(merged, kind="stable")
    parity = np.repeat([0, 1], [len(lv) for lv in levels])
    return merged[order] / p.omega + reduce(p).lambda_plus, parity[order]


def dense_eps(p: ModelParams, n_max: int) -> np.ndarray:
    """All shifted levels from the dense matrix, merged over its parity blocks."""
    return dense_parity_eps(p, n_max)[0]


@pytest.mark.parametrize("couplings", ["random", "g1=0", "g2=0", "g1=g2"])
def test_eps_levels_match_dense_oracle(couplings):
    rng = np.random.default_rng(7)
    n_max = 24
    for _ in range(25):
        omega = rng.uniform(0.5, 2.0)
        omega0 = rng.choice([-1, 1]) * rng.uniform(0.05, 2.0)
        g1, g2 = rng.uniform(0, 2.5, 2)
        if couplings == "g1=0":
            g1 = 0.0
        elif couplings == "g2=0":
            g2 = 0.0
        elif couplings == "g1=g2":
            g2 = g1
        p = ModelParams(omega, omega0, g1, g2)
        want, want_parity = dense_parity_eps(p, n_max)
        # a parity label is fixed by the order only where neighbours differ
        apart = np.diff(want, prepend=-np.inf, append=np.inf) > 1e-9
        apart = apart[:-1] & apart[1:]
        for k in (1, fock._BISECT_MAX, fock._BISECT_MAX + 1,
                  n_max + 1, n_max + 2, 2 * (n_max + 1)):
            got = fock._eps_levels(p, n_max, k)
            assert got.shape == (k,)
            assert np.max(np.abs(got - want[:k])) < 1e-12
            levels, slots = fock._merged_levels(p, n_max, k)
            parity = slots // min(k, n_max + 1)
            assert np.array_equal(levels, got)
            assert np.array_equal(parity[apart[:k]], want_parity[:k][apart[:k]])


def test_eps_levels_rejects_bad_sizes():
    p = ModelParams(1.0, 0.5, 0.3, 0.2)
    with pytest.raises(ValueError):
        fock._eps_levels(p, 5, 0)
    with pytest.raises(ValueError):
        fock._eps_levels(p, 5, 13)
    with pytest.raises(fock.CutoffTooSmall):
        fock._eps_levels(p, 0, 1)


def test_parity_oracle_rabi_point():
    p = ModelParams(1.0, 1.0, 0.75, 0.75)
    h = fock.build(p, 150)
    be, bo = fock.parity_blocks(h)
    merged = np.sort(np.concatenate([
        eigh(be, eigvals_only=True), eigh(bo, eigvals_only=True)]))
    full = eigh(h.matrix, eigvals_only=True)
    assert np.max(np.abs(merged[:80] - full[:80])) < 1e-10


def test_eigvec_overlap_self_and_bounds():
    p = ModelParams(1.0, 0.6, 0.8, 0.3)
    h = fock.build(p, 40)
    _, vecs = eigh(h.matrix)
    assert fock.eigvec_overlap(h, 3, vecs[:, 3]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(fock.IndexOutOfRange):
        fock.eigvec_overlap(h, 10_000, vecs[:, 0])


def test_coherent_state_displacement():
    alpha = 0.8
    v = fock.coherent_state(alpha, 120)
    n = np.arange(121)
    # <a> = alpha for a coherent state
    a_exp = np.sum(np.sqrt(n[1:]) * v[1:] * v[:-1])
    assert a_exp == pytest.approx(alpha, rel=1e-12)


def test_apply_creation_polynomial():
    v0 = np.zeros(6)
    v0[0] = 1.0
    out = fock.apply_creation_polynomial([0.0, 1.0], v0)  # a'|0> = |1>
    assert out[1] == pytest.approx(1.0)
    out2 = fock.apply_creation_polynomial([2.0, 0.0, 1.0], v0)  # (2 + a'^2)|0>
    assert out2[0] == pytest.approx(2.0)
    assert out2[2] == pytest.approx(math.sqrt(2))


def test_scan_crossings_n0_curve():
    p = ModelParams(1.0, 1.0, 0.0, 0.2)
    grid = np.linspace(1.2, 1.6, 41)
    events = fock.scan_crossings(p, grid, n_levels=4, n_max=140)
    crossings = [ev for ev in events if ev.kind == "crossing"]
    assert len(crossings) == 1
    ev = crossings[0]
    assert ev.g1_location == pytest.approx(math.sqrt(2.04), abs=1e-7)
    assert abs(ev.epsilon_at_event) < 1e-6
    assert ev.gap < 1e-8
    assert ev.level_pair == (0, 1)


def test_scan_crossings_jc_all_exact():
    # g2 = 0: conserved N_ex means no repulsion between sectors, so levels
    # of one parity cross too
    p = ModelParams(1.0, 1.0, 0.0, 0.0)
    events = fock.scan_crossings(p, np.linspace(1.2, 1.6, 41), n_levels=4, n_max=120)
    assert events
    assert all(ev.kind == "crossing" for ev in events)
    events = fock.scan_crossings(p, np.linspace(0.0, 3.0, 301), n_levels=12, n_max=120)
    assert len(events) == 29
    assert all(ev.kind == "crossing" for ev in events)
    same = 0
    for ev in events:
        _, parity = dense_parity_eps(ModelParams(1.0, 1.0, ev.g1_location, 0.0), 120)
        same += parity[ev.level_pair[0]] == parity[ev.level_pair[1]]
    assert same == 14


def test_scan_crossings_classified_by_parity_at_strong_coupling():
    # exponentially small avoided gaps at half-integer eps (1e-10 .. 1e-8)
    # pair levels of one parity: they repel, however small the gap
    p = ModelParams(1.0, 0.77, 1.0, 0.01)
    events = fock.scan_crossings(p, np.linspace(1.95, 2.05, 21), 16, 120)
    for g1, eps in ((1.99391, 4.5), (2.04624, 6.5)):
        ev, = [ev for ev in events if abs(ev.g1_location - g1) < 1e-5]
        assert ev.kind == "avoided"
        assert ev.epsilon_at_event == pytest.approx(eps, abs=1e-6)
        assert ev.gap < 1e-7
    for ev in events:
        _, parity = dense_parity_eps(ModelParams(1.0, 0.77, ev.g1_location, 0.01), 120)
        i, j = ev.level_pair
        assert (ev.kind == "crossing") == (parity[i] != parity[j]), ev
        assert not ev.caveat


def test_scan_crossings_avoided_near_half_integer():
    p = ModelParams(1.0, 1.0, 0.0, 0.056)
    grid = np.linspace(0.35, 0.75, 51)
    events = fock.scan_crossings(p, grid, n_levels=8, n_max=140)
    avoided = [ev for ev in events if ev.kind == "avoided"]
    assert avoided
    for ev in avoided:
        frac = abs(ev.epsilon_at_event - round(ev.epsilon_at_event - 0.5) - 0.5)
        assert frac < 0.05


def test_crossings_are_refined_as_roots_of_the_chain_level_difference(monkeypatch):
    # the crossing-refine benchmark line: 4 exact crossings, 5 avoided ones
    p = ModelParams(1.0, 1.0, 0.0, 0.056)
    grid = np.linspace(0.0, 1.0, 120)
    solves = []  # one entry per two-chain level solve
    golden = []  # level solves inside each golden-section refinement
    chain_levels, golden_min = fock._chain_levels, fock._golden_min

    def counted_chain_levels(*args):
        solves.append(1)
        return chain_levels(*args)

    def counted_golden_min(*args):
        before = len(solves)
        result = golden_min(*args)
        golden.append(len(solves) - before)
        return result

    monkeypatch.setattr(fock, "_chain_levels", counted_chain_levels)
    monkeypatch.setattr(fock, "_golden_min", counted_golden_min)
    events = fock.scan_crossings(p, grid, 12, 200)
    monkeypatch.undo()
    crossings = [ev for ev in events if ev.kind == "crossing"]
    n_avoided = len(events) - len(crossings)
    assert (len(crossings), n_avoided) == (4, 5)
    # avoided minima keep golden section on the gap: on a bracket 2/119 wide
    # down to 1e-10 that is 2 + 40 + 1 solves, then one solve at the minimum
    assert golden == [43] * n_avoided
    root_solves = len(solves) - len(grid) - 44 * n_avoided
    assert root_solves <= 15 * len(crossings), root_solves
    tol = 1e-10  # scan_crossings' default refine_tol
    for ev in crossings:
        splits = []
        for g1 in (ev.g1_location - 2 * tol, ev.g1_location + 2 * tol):
            p_at = replace(p, g1=g1)
            be, bo = fock.parity_blocks(fock.build(p_at, 200))
            even, odd = eigh(be, eigvals_only=True), eigh(bo, eigvals_only=True)
            energy = ev.epsilon_at_event - reduce(p_at).lambda_plus
            i, j = np.argmin(np.abs(even - energy)), np.argmin(np.abs(odd - energy))
            splits.append(even[i] - odd[j])
        assert splits[0] * splits[1] < 0, (ev, splits)


UNREACHABLE_TOL_SCRIPT = """
import json
import numpy as np
from rabi_spectra import fock
from rabi_spectra.core import ModelParams

p, grid = ModelParams(1.0, 1.0, 0.0, 0.056), np.linspace(0.0, 2.0, 41)
errors = []
for tol in (0.0, -1.0, float("nan"), float("inf")):
    try:
        fock.scan_crossings(p, grid, 6, 60, refine_tol=tol)
        errors.append(None)
    except ValueError as exc:
        errors.append(str(exc))
events = {str(tol): [(ev.kind, ev.level_pair, ev.g1_location)
                     for ev in fock.scan_crossings(p, grid, 6, 60, refine_tol=tol)]
          for tol in (1e-300, 1e-10)}
x_min, _ = fock._golden_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 0.0)
x_edge, _ = fock._golden_min(lambda x: x, 0.0, 1.0, 0.0)
print(json.dumps({"errors": errors, "events": events, "golden": [x_min, x_edge]}))
"""


def test_unreachable_refine_tol_raises_or_stops_at_rounding():
    # a bracket of adjacent floats never got narrower than refine_tol = 0,
    # so these calls used to loop forever; a subprocess keeps a regression
    # from hanging the suite
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", UNREACHABLE_TOL_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert all(err and "refine_tol" in err for err in out["errors"]), out["errors"]
    tiny, default = out["events"]["1e-300"], out["events"]["1e-10"]
    assert default and len(tiny) == len(default)
    for (kind, pair, g1), (kind_d, pair_d, g1_d) in zip(tiny, default):
        assert (kind, pair) == (kind_d, pair_d)
        assert abs(g1 - g1_d) < 1e-9
    assert out["golden"][0] == pytest.approx(0.3, abs=1e-8)
    assert 0.0 <= out["golden"][1] < 1e-300
