import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh

from rabi_spectra import fock, strongpert, weakpert
from rabi_spectra.core import ModelParams, reduce


def numeric_levels(p: ModelParams, count: int, n_max: int = 240) -> np.ndarray:
    h = fock.build(p, n_max)
    return eigh(h.matrix, eigvals_only=True, subset_by_index=(0, count - 1))


class TestDisplacedOverlap:
    def test_diagonal_zero_displacement_free(self):
        assert strongpert.displaced_overlap(0, 0, 0.7) == pytest.approx(math.exp(-2 * 0.49))
        for m in range(4):
            for n in range(4):
                want = 1.0 if m == n else 0.0
                assert strongpert.displaced_overlap(m, n, 0.0) == pytest.approx(want)

    def test_explicit_value(self):
        # M=0, N=2, beta/omega = 0.5: e^{-1/2} (2*0.5)^2 sqrt(1/2) L_0^2(1)
        assert strongpert.displaced_overlap(0, 2, 0.5) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2))

    def test_reflection_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            m, n = int(rng.integers(0, 8)), int(rng.integers(0, 8))
            a = float(rng.uniform(0.1, 1.5))
            lhs = strongpert.displaced_overlap(m, n, a)
            rhs = (-1) ** (n - m) * strongpert.displaced_overlap(n, m, a)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_ladder_identity_against_brute_force(self):
        # <M_-| a |N_+> computed two ways: the recurrence identity vs
        # direct vector algebra in a truncated basis
        a = 0.8
        n_max = 120
        for m in range(3):
            for n in range(3):
                # |M_-> = D(+a)|M>, |N_+> = D(-a)|N>
                dm = _displaced_fock(m, +a, n_max)
                dn = _displaced_fock(n, -a, n_max)
                lower = np.zeros_like(dn)
                lower[:-1] = np.sqrt(np.arange(1, n_max + 1)) * dn[1:]
                got = np.real(np.vdot(dm, lower))
                want = strongpert.displaced_a_element(m, n, a)
                assert got == pytest.approx(want, abs=1e-10)

    def test_overlap_against_brute_force(self):
        a = 0.9
        for m in range(4):
            for n in range(4):
                got = strongpert.displaced_overlap(m, n, a)
                want = float(np.real(np.vdot(_displaced_fock(m, +a, 160),
                                             _displaced_fock(n, -a, 160))))
                assert got == pytest.approx(want, abs=1e-9)


def _displaced_fock(m: int, alpha: float, n_max: int) -> np.ndarray:
    """D(alpha)|m> in the number basis.

    The displaced creation operator is a' - alpha, so
    D(alpha)|m> = (a' - alpha)^m D(alpha)|0> / sqrt(m!).
    """
    coeffs = [math.comb(m, j) * (-alpha) ** (m - j) for j in range(m + 1)]
    vec = fock.apply_creation_polynomial(coeffs, fock.coherent_state(alpha, n_max))
    return vec / np.linalg.norm(vec)


class TestAdiabatic:
    def test_rabi_limit_form(self):
        # g1 = g2: lambda = 0 and the splitting reduces to omega0 L_N^0
        p = ModelParams(1.0, 0.2, 1.6, 1.6)
        ap = strongpert.AdiabaticParams.from_params(p)
        assert ap.lambda_asym == 0.0
        for N in range(4):
            lo, hi = strongpert.adiabatic_energies(N, p)
            x = ap.laguerre_arg
            from rabi_spectra.special import genlaguerre
            want = math.exp(-x / 2) * abs(0.2 * genlaguerre(N, 0, x))
            assert hi - lo == pytest.approx(2 * want, rel=1e-12)

    def test_exact_displaced_ladder(self):
        # omega0 = 0, g1 = g2: exactly solvable two-fold degenerate ladder
        p = ModelParams(1.0, 0.0, 1.8, 1.8)
        E = numeric_levels(p, 8, n_max=260)
        for N in range(4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lo, hi = strongpert.adiabatic_energies(N, p)
            want = 1.0 * (N - 1.8 ** 2)
            assert lo == pytest.approx(want, rel=1e-12)
            assert abs(E[2 * N] - want) < 1e-8
            assert abs(E[2 * N + 1] - want) < 1e-8

    def test_asymmetric_couplings_track_numerics(self):
        p = ModelParams(1.0, 0.1, 2.0, 1.9)
        E = numeric_levels(p, 8, n_max=280)
        for N in range(4):
            lo, hi = strongpert.adiabatic_energies(N, p)
            assert abs(E[2 * N] - lo) < 0.05
            assert abs(E[2 * N + 1] - hi) < 0.05

    def test_asymmetry_error_is_second_order_in_lambda(self):
        # at fixed small omega0 the worst deviation of the lowest 8 levels
        # grows about 4x per doubling of lambda = (g1 - g2)/2; with the lambda
        # term's sign wrong it was O(lambda) plus an O(omega0 lambda^0) offset
        beta, omega0 = 2.0, 0.02
        devs = []
        for lam in (0.025, 0.05, 0.1):
            p = ModelParams(1.0, omega0, beta + lam, beta - lam)
            E = (fock._eps_levels(p, 300, 8) - reduce(p).lambda_plus) * p.omega
            approx = np.sort([e for N in range(4) for e in strongpert.adiabatic_energies(N, p)])
            devs.append(float(np.max(np.abs(E - approx))))
        for small, large in zip(devs, devs[1:]):
            assert 3.0 < large / small < 5.0, devs

    def test_rabi_line_error_is_second_order_in_omega0(self):
        # on g1 = g2 the worst deviation of the lowest 8 levels is O(omega0^2):
        # 9.0e-5, 3.6e-4, 1.4e-3 and 5.8e-3 at beta = 2
        devs = []
        for omega0 in (0.025, 0.05, 0.1, 0.2):
            p = ModelParams(1.0, omega0, 2.0, 2.0)
            E = (fock._eps_levels(p, 300, 8) - reduce(p).lambda_plus) * p.omega
            approx = np.sort([e for N in range(4) for e in strongpert.adiabatic_energies(N, p)])
            devs.append(float(np.max(np.abs(E - approx))))
        for small, large in zip(devs, devs[1:]):
            assert large / small == pytest.approx(4.0, abs=0.4), devs

    def test_splitting_log_slope(self):
        # splitting ~ exp(-2 beta^2/omega^2): log-splitting difference between
        # beta and 1.25 beta is -2 (1.25^2 - 1) beta^2 within 15%
        g = 2.0
        p1 = ModelParams(1.0, 0.1, g, g)
        p2 = ModelParams(1.0, 0.1, 1.25 * g, 1.25 * g)
        for N in (0, 1):
            lo1, hi1 = strongpert.adiabatic_energies(N, p1)
            lo2, hi2 = strongpert.adiabatic_energies(N, p2)
            got = math.log(hi2 - lo2) - math.log(hi1 - lo1)
            want = -2 * (1.25 ** 2 - 1) * g ** 2
            # polynomial prefactor shifts the pure exponential slope a little
            assert got == pytest.approx(want, rel=0.15)

    def test_two_ladder_pairing(self):
        # consecutive numerical gaps alternate small / ~omega-small, and the
        # adiabatic pairing assigns partners correctly for N <= 5
        p = ModelParams(1.0, 0.1, 2.0, 2.0)
        E = numeric_levels(p, 12, n_max=300)
        gaps = np.diff(E)
        assert np.all(gaps[0::2] < 0.05)
        assert np.all(gaps[1::2] > 0.5)
        for N in range(6):
            lo, hi = strongpert.adiabatic_energies(N, p)
            mid = 0.5 * (E[2 * N] + E[2 * N + 1])
            assert abs(mid - 0.5 * (lo + hi)) < 0.05


class TestSqueezed:
    def test_jc_limit_identical(self):
        p = ModelParams(1.0, 5.0, 0.3, 0.0)
        for n in range(1, 6):
            for sign in (-1, 1):
                got = strongpert.squeezed_spectrum(n, sign, p)
                k = 0 if sign == 1 else 1
                want = weakpert.jc_level(n - 1, k, p).E0
                assert got == pytest.approx(want, rel=1e-14)
        assert strongpert.squeezed_spectrum(0, -1, p) == pytest.approx(
            weakpert.jc_level(-1, 1, p).E0)

    def test_undefined_regime(self):
        with pytest.raises(strongpert.UndefinedRegime):
            strongpert.squeezed_spectrum(1, -1, ModelParams(1, 5, 0.1, 0.3))
        with pytest.raises(strongpert.UndefinedRegime):
            strongpert.SqueezedParams.from_params(ModelParams(1, 5, 0.2, 0.2))

    def test_jc_limit_below_resonance(self):
        # 2 omega0 < omega_g: |0,-> keeps its JC energy -omega0 and the
        # spin-down ladder is the upper branch
        p = ModelParams(1.0, 0.3, 0.2, 0.0)
        want = sorted([weakpert.jc_level(-1, 1, p).E0]
                      + [weakpert.jc_level(n, k, p).E0 for n in range(6) for k in (0, 1)])
        assert strongpert.squeezed_levels(p, 8) == pytest.approx(want[:8], rel=1e-14)

    def test_unresummable_regimes_undefined(self):
        # unstable spin-down branch oscillator: w' = 0.51 < 2 s = 0.87
        p = ModelParams(1.0, 1.0, 0.8, 0.3)
        with pytest.raises(strongpert.UndefinedRegime):
            strongpert.squeezed_spectrum(1, -1, p)
        with pytest.raises(strongpert.UndefinedRegime):
            strongpert.squeezed_levels(p, 4)
        # resonant branches, 2 omega0 = omega_g = 1.25
        p = ModelParams(1.0, 0.625, 0.75, 0.25)
        assert 2 * p.omega0 == strongpert.SqueezedParams.from_params(p).omega_g
        with pytest.raises(strongpert.UndefinedRegime):
            strongpert.squeezed_spectrum(2, 1, p)

    def test_divergence_warning_near_rabi_line(self):
        with pytest.warns(UserWarning):
            strongpert.squeezed_spectrum(1, -1, ModelParams(1.0, 5.0, 0.11, 0.1))

    def test_params_fields(self):
        p = ModelParams(1.0, 5.0, 0.3, 0.1)
        sq = strongpert.SqueezedParams.from_params(p)
        assert sq.g_minus == pytest.approx(math.sqrt(0.08))
        assert sq.omega_g == pytest.approx(0.1 / 0.08)
        assert math.tanh(sq.r) == pytest.approx(1 / 3)
        assert sq.shift == pytest.approx(0.01 / 0.08)
        assert sq.omega_g >= p.omega

    def test_accurate_in_regime(self):
        # g2/g1 small enough that the squeeze term is negligible
        p = ModelParams(1.0, 5.0, 0.3, 0.015)
        E = numeric_levels(p, 6, n_max=200)
        approx = strongpert.squeezed_levels(p, 6)
        assert np.max(np.abs(E - np.array(approx))) < 0.05

    def test_no_warning_in_regime(self):
        # the README strong-compare configuration is good to 1e-4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g1 in (0.2, 0.3, 0.4):
                strongpert.squeezed_levels(ModelParams(1.0, 5.0, g1, 0.015), 8)
            strongpert.squeezed_levels(ModelParams(1.0, 5.0, 0.3, 0.1), 8)

    def test_upper_branch_tracks_numerics(self):
        # spin-up ladder at the criterion-7 point; its levels sit among the
        # lower-branch ones, so each is matched to the nearest Fock level
        p = ModelParams(1.0, 5.0, 0.3, 0.1)
        E = numeric_levels(p, 40, n_max=200)
        for n in range(1, 6):
            got = strongpert.squeezed_spectrum(n, 1, p)
            assert np.min(np.abs(E - got)) < 5e-3

    def test_accurate_at_large_squeeze(self):
        # g2/g1 = 2/3: squeeze s = 1.2 against omega_g = 2.6
        p = ModelParams(1.0, 5.0, 0.3, 0.2)
        E = numeric_levels(p, 6, n_max=200)
        approx = strongpert.squeezed_levels(p, 6)
        assert np.max(np.abs(E - np.array(approx))) < 0.05
