import math

import numpy as np
import pytest
from scipy.linalg import eigh

from rabi_spectra import fock
from rabi_spectra.core import (
    DegenerateInversion,
    ModelParams,
    ShiftedEnergy,
    invert,
    mirror,
    reduce,
    reduce_grid,
)


def test_reduce_direct_arithmetic():
    r = reduce(ModelParams(1.0, 1.0, 2.0, 1.0))
    assert r.delta == 1.0
    assert r.lambda_plus == pytest.approx(2.5, rel=1e-15)
    assert r.lambda_minus == pytest.approx(1.5, rel=1e-15)
    assert r.nu == pytest.approx(math.sqrt(2), rel=1e-15)
    assert r.kappa == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-14)
    assert not r.rabi_limit


def test_reduce_jc_limit():
    g = 0.7
    r = reduce(ModelParams(1.0, 0.0, g, 0.0))
    assert r.delta == 0.0
    assert r.lambda_plus == pytest.approx(g * g / 2)
    assert r.lambda_minus == pytest.approx(g * g / 2)
    assert r.nu == 0.0
    assert r.kappa == 0.0


def test_reduce_rabi_flag():
    r = reduce(ModelParams(1.0, 1.0, 1.0, 1.0))
    assert r.rabi_limit
    assert r.kappa is None
    assert r.nu == pytest.approx(1.0)
    assert r.lambda_minus == 0.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, -0.1, 0.5)


def test_reduce_grid_equals_reduce_bit_for_bit():
    # crosses g1 < 0 (ModelParams raises), g1 = 0, the Rabi line g1 = g2 and
    # g1 = g2 = 0; every valid point must equal reduce() exactly
    rng = np.random.default_rng(5)
    for g2 in (0.0, 0.3, 0.7):
        g1 = np.concatenate([np.linspace(-0.5, 2.0, 101), [g2], rng.uniform(0, 2, 50)])
        omega0 = float(rng.uniform(-1, 1))
        r = reduce_grid(1.3, omega0, g1, g2)
        for i, g in enumerate(g1):
            fields = (r.delta[i], r.lambda_plus[i], r.lambda_minus[i], r.nu[i], r.kappa[i])
            if g < 0:
                assert np.isnan(fields).all()
                continue
            want = reduce(ModelParams(1.3, omega0, float(g), g2))
            assert bool(r.rabi_limit[i]) == want.rabi_limit
            kappa = math.nan if want.kappa is None else want.kappa
            assert np.array_equal(fields, (want.delta, want.lambda_plus, want.lambda_minus,
                                           want.nu, kappa), equal_nan=True), (g2, g)
    r = reduce_grid(np.array([-1.0, 0.0, 1.0]), 1.0, 0.5, 0.2)
    assert np.isnan(r.nu[:2]).all() and r.nu[2] == reduce(ModelParams(1.0, 1.0, 0.5, 0.2)).nu


def test_shifted_energy_roundtrip():
    s = ShiftedEnergy.from_e(-0.75, 2.0)
    assert s.epsilon == pytest.approx(1.25)
    s2 = ShiftedEnergy.from_epsilon(s.epsilon, 2.0)
    assert s2.e == pytest.approx(s.e)


def test_invert_round_trip():
    p = invert(0.5, 0.3, 1.0, 1.0)
    r = reduce(p)
    assert r.delta == pytest.approx(1.0, rel=1e-12)
    assert r.nu == pytest.approx(0.3, rel=1e-12)
    assert r.kappa == pytest.approx(0.5, rel=1e-12)


def test_invert_kappa_equals_nu_is_crossing_plane():
    # kappa = nu means lambda- = delta, i.e. g1^2 - g2^2 = 2 omega omega0.
    p = invert(0.4, 0.4, 0.8, 1.3)
    assert p.g1 ** 2 - p.g2 ** 2 == pytest.approx(2 * p.omega * p.omega0, rel=1e-12)


def test_invert_negative_kappa_swaps_couplings():
    p = invert(-0.2, 0.3, 1.0, 1.0)
    assert p.omega0 == pytest.approx(1.0)
    assert p.g1 < p.g2
    r = reduce(p)
    assert r.kappa == pytest.approx(-0.2, rel=1e-12)
    assert r.nu == pytest.approx(0.3, rel=1e-12)


def test_invert_degenerate_raises():
    with pytest.raises(DegenerateInversion):
        invert(0.0, 0.3, 1.0, 1.0)
    with pytest.raises(DegenerateInversion):
        invert(0.5, 0.0, 1.0, 1.0)


def test_invert_round_trip_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        kappa = rng.uniform(-1.5, 1.5)
        if abs(kappa) < 1e-3:
            continue
        nu = rng.uniform(0.05, 1.2)
        delta = rng.uniform(-2.0, 2.0)
        omega = rng.uniform(0.5, 2.0)
        r = reduce(invert(kappa, nu, delta, omega))
        assert r.delta == pytest.approx(delta, rel=1e-11, abs=1e-12)
        assert r.nu == pytest.approx(nu, rel=1e-11)
        assert r.kappa == pytest.approx(kappa, rel=1e-10)


def test_identity_lambda_plus_minus_nu4_randomized():
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = ModelParams(rng.uniform(0.5, 2), rng.uniform(-2, 2),
                        rng.uniform(0, 3), rng.uniform(0, 3))
        r = reduce(p)
        lhs = r.lambda_plus ** 2 - r.lambda_minus ** 2
        assert lhs == pytest.approx(r.nu ** 4, rel=1e-13, abs=1e-15)


def test_mirror_example_and_involution():
    p = ModelParams(1.0, 1.0, 0.1, 0.5)
    m = mirror(p)
    assert (m.omega, m.omega0, m.g1, m.g2) == (1.0, -1.0, 0.5, 0.1)
    mm = mirror(m)
    assert (mm.omega, mm.omega0, mm.g1, mm.g2) == (p.omega, p.omega0, p.g1, p.g2)


def test_mirror_spectrum_invariance():
    p = ModelParams(1.0, 1.0, 0.1, 0.5)
    h = fock.build(p, 100)
    hm = fock.build(mirror(p), 100)
    e = eigh(h.matrix, eigvals_only=True)
    em = eigh(hm.matrix, eigvals_only=True)
    assert np.max(np.abs(e[:100] - em[:100])) < 1e-10
