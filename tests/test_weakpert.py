import math

import numpy as np
import pytest
from scipy.linalg import eigh

from oracles import gap_order
from rabi_spectra import bethe, fock, weakpert
from rabi_spectra.core import ModelParams


def numeric_levels(p: ModelParams, count: int, n_max: int = 160) -> np.ndarray:
    h = fock.build(p, n_max)
    return eigh(h.matrix, eigvals_only=True, subset_by_index=(0, count - 1))


def match_level(E: np.ndarray, target: float) -> float:
    return float(E[np.argmin(np.abs(E - target))])


class TestJCLevel:
    def test_decoupled(self):
        p = ModelParams(1.0, 0.8, 0.0, 0.0)
        for n in range(4):
            for k in (0, 1):
                lv = weakpert.jc_level(n, k, p)
                want = n + 0.5 + (-1) ** k * abs(0.8 - 0.5)
                assert lv.E0 == pytest.approx(want)

    def test_resonance(self):
        p = ModelParams(1.0, 0.5, 0.4, 0.0)
        for n in range(4):
            lv = weakpert.jc_level(n, 0, p)
            assert lv.Omega_n == pytest.approx(0.4 * math.sqrt(n + 1))
            assert lv.alpha_n == pytest.approx(math.pi / 2)

    def test_minus_one_level(self):
        p = ModelParams(1.0, 0.8, 0.6, 0.0)
        assert weakpert.jc_level(-1, 1, p).E0 == pytest.approx(-0.8)
        with pytest.raises(weakpert.InvalidIndex):
            weakpert.jc_level(-1, 0, p)
        with pytest.raises(weakpert.InvalidIndex):
            weakpert.jc_level(2, 5, p)

    def test_matches_diagonalization_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = ModelParams(1.0, rng.uniform(0.1, 1.5), rng.uniform(0.05, 1.0), 0.0)
            E = numeric_levels(p, 12, n_max=140)
            vals = [weakpert.jc_level(-1, 1, p).E0]
            for n in range(8):
                vals.append(weakpert.jc_level(n, 0, p).E0)
                vals.append(weakpert.jc_level(n, 1, p).E0)
            want = np.sort(vals)[:12]
            assert np.max(np.abs(E - want)) < 1e-12


class TestSecondOrder:
    def test_quartic_residual_scaling(self):
        # residual after subtracting E0 + E2 must scale like g2^4
        p0 = ModelParams(1.0, 1.0, 0.3, 0.0)
        for (n, k) in [(-1, 1), (0, 0), (0, 1), (1, 1)]:
            resid = []
            for g2 in (0.02, 0.01):
                p = ModelParams(1.0, 1.0, 0.3, g2)
                e0 = weakpert.jc_level(n, k, p).E0
                e2 = weakpert.second_order(n, k, p)
                E = numeric_levels(p, 10)
                resid.append(abs(match_level(E, e0) - e0 - e2))
            ratio = resid[0] / resid[1]
            assert 8 < ratio < 32  # 16 within a factor 2

    def test_value_against_printed_form_n0(self):
        # independent re-evaluation of the k=0 display
        p = ModelParams(1.0, 1.0, 0.3, 0.05)
        w, w0, g1 = 1.0, 1.0, 0.3
        om = math.sqrt((w0 - w / 2) ** 2 + g1 ** 2)
        want = (-(0 + 2) / (4 * om) * (om - w0 + w / 2 - g1 ** 2 / (2 * w))
                / (w - om - g1 ** 2 / (2 * w)))
        assert weakpert.second_order(0, 0, p) == pytest.approx(0.05 ** 2 * want, rel=1e-12)

    def test_near_degeneracy_raises(self):
        # case-1a locus for n=0 at omega=omega0=1 sits at g1 ~ 0.6276
        locus = weakpert.degeneracy_loci("1a", 1.0, 1.0, n=0)
        p = ModelParams(1.0, 1.0, locus.g1, 0.01)
        with pytest.raises(weakpert.NearDegeneracy):
            weakpert.second_order(0, 0, p)

    def test_minus1_scaling(self):
        coefs = []
        for g2 in (0.01, 0.02):
            p = ModelParams(1.0, 1.0, 0.3, g2)
            E = numeric_levels(p, 6)
            coefs.append((match_level(E, -1.0) - (-1.0)) / g2 ** 2)
        # converging second-order coefficient, and it matches the closed form
        p = ModelParams(1.0, 1.0, 0.3, 1.0)
        pred = weakpert.second_order(-1, 1, p)  # g2 = 1 gives the raw coefficient
        assert coefs[0] == pytest.approx(pred, rel=1e-3)
        assert coefs[1] == pytest.approx(pred, rel=1e-3)


class TestLoci:
    def test_case0_sqrt3(self):
        locus = weakpert.degeneracy_loci("0", 1.0, 1.0)
        assert locus.g1 == pytest.approx(math.sqrt(3))
        # degenerate energy: E = omega/2 - g1^2/(2 omega)
        assert locus.E_at == pytest.approx(0.5 - 1.5)

    def test_general_p_crossing_example(self):
        locus = weakpert.degeneracy_loci("p-crossing", 1.0, 1.0, n=0, p=1, k=0)
        want = 1.5 - math.sqrt(2 + 0.25)
        assert locus.g1 ** 2 / 2 == pytest.approx(want, abs=1e-12)

    def test_validity_window_enforced(self):
        # p >= 1/2 + |1/2 - omega0/omega|
        with pytest.raises(weakpert.NoLocus):
            weakpert.degeneracy_loci("p-crossing", 1.0, 2.2, n=0, p=1, k=0)
        # and the avoided analog p^2 >= (1/2 - omega0/omega)^2
        with pytest.raises(weakpert.NoLocus):
            weakpert.degeneracy_loci("p-avoided", 1.0, 2.8, n=0, p=2, k=0)

    def test_k1_crossing_loci_pair_with_exact_points(self):
        # At omega0 = 1.42 the k = 0 window p >= 1/2 + |1/2 - omega0/omega|
        # excludes p = 1, but the k = 1 family still crosses at eps = n + p:
        # its loci lie within O(g2^2) of exact exceptional points.
        with pytest.raises(weakpert.NoLocus):
            weakpert.degeneracy_loci("p-crossing", 1.0, 1.42, n=0, p=1, k=0)
        for n in (0, 2):
            locus = weakpert.degeneracy_loci("p-crossing", 1.0, 1.42, n=n, p=1, k=1)
            pts = bethe.find_exceptional(n + 1, {"omega": 1.0, "omega0": 1.42, "g2": 0.01},
                                         "g1", (0.0, 12.0))
            assert min(abs(pt.params.g1 - locus.g1) for pt in pts if pt.verified) < 1e-3, n

    def test_shifted_cases_match_general_p(self):
        # 2a is 1a with n -> n-2; both must agree with the p=1 display
        la = weakpert.degeneracy_loci("1a", 1.0, 0.7, n=3)
        lp = weakpert.degeneracy_loci("p-avoided", 1.0, 0.7, n=3, p=1, k=0)
        assert la.g1 == pytest.approx(lp.g1, rel=1e-12)
        l2a = weakpert.degeneracy_loci("2a", 1.0, 0.7, n=5)
        assert l2a.g1 == pytest.approx(la.g1, rel=1e-12)

    @pytest.mark.parametrize("case, n, family, n_member, k", [
        ("0", 0, "minus1-avoided", -1, 1),
        ("0", 4, "minus1-avoided", -1, 1),
        *[("1a", n, "p-avoided", n, 0) for n in (0, 1, 4)],
        *[("1b", n, "p-avoided", n, 1) for n in (0, 1, 4)],
        *[("2a", n, "p-avoided", n - 2, 0) for n in (2, 3, 6)],
        *[("2b", n, "p-avoided", n - 2, 1) for n in (2, 3, 6)],
    ])
    @pytest.mark.parametrize("omega0", [-1.3, 0.0, 0.7, 2.6])
    def test_named_case_is_its_family_member_at_p1(self, case, n, family, n_member, k, omega0):
        # the locus keeps the label and the n the caller gave (-1 for case 0)
        try:
            member = weakpert.degeneracy_loci(family, 1.3, omega0, n=n_member, p=1, k=k)
        except weakpert.NoLocus:
            with pytest.raises(weakpert.NoLocus):
                weakpert.degeneracy_loci(case, 1.3, omega0, n=n)
            return
        named = weakpert.degeneracy_loci(case, 1.3, omega0, n=n)
        assert (named.case_label, named.p, named.n) == (case, 1, -1 if case == "0" else n)
        assert (named.g1, named.E_at) == (member.g1, member.E_at)

    def test_p_families_need_a_jc_level(self):
        # |0,-> enters only through case "0" and the minus1 families
        cases = [("1a", -1), ("1b", -1), ("2a", 1), ("2b", 0), ("p-avoided", -1), ("p-crossing", -1)]
        for case, n in cases:
            for k in (0, 1):
                with pytest.raises(weakpert.NoLocus):
                    weakpert.degeneracy_loci(case, 1.0, 0.7, n=n, p=2, k=k)

    def test_locus_predicts_fock_event(self):
        # an avoided crossing appears within 0.02 of the predicted g1
        locus = weakpert.degeneracy_loci("1a", 1.0, 1.0, n=0)
        p = ModelParams(1.0, 1.0, 0.0, 0.01)
        grid = np.linspace(locus.g1 - 0.05, locus.g1 + 0.05, 21)
        events = fock.scan_crossings(p, grid, n_levels=8, n_max=140)
        avoided = [ev for ev in events if ev.kind == "avoided"]
        assert avoided
        assert min(abs(ev.g1_location - locus.g1) for ev in avoided) < 0.02


class TestGap:
    def test_case0_value(self):
        p = ModelParams(1.0, 1.0, math.sqrt(3), 0.04)
        alpha1 = weakpert.mixing_angle(1, p)
        assert weakpert.gap("0", -1, p) == pytest.approx(2 * 0.04 * math.sin(alpha1 / 2))

    def test_zero_coupling(self):
        p = ModelParams(1.0, 1.0, 0.6, 0.0)
        assert weakpert.gap("1a", 0, p) == 0.0

    def test_no_closed_form_for_higher_p(self):
        with pytest.raises(weakpert.InvalidCase):
            weakpert.gap("p-avoided", 0, ModelParams(1, 1, 0.5, 0.1))
        assert gap_order(3) == 3

    def test_linear_g2_scaling_at_1a_locus(self):
        locus = weakpert.degeneracy_loci("1a", 1.0, 1.0, n=0)
        gaps = []
        for g2 in (0.01, 0.02):
            p = ModelParams(1.0, 1.0, 0.0, g2)
            grid = np.linspace(locus.g1 - 0.04, locus.g1 + 0.04, 17)
            events = fock.scan_crossings(p, grid, n_levels=8, n_max=140)
            avoided = [ev for ev in events if ev.kind == "avoided"]
            ev = min(avoided, key=lambda e: abs(e.g1_location - locus.g1))
            gaps.append(ev.gap)
        assert gaps[1] / gaps[0] == pytest.approx(2.0, rel=0.05)

    def test_closed_form_vs_numeric_within_10pct(self):
        locus = weakpert.degeneracy_loci("1a", 1.0, 1.0, n=0)
        g2 = 0.01
        p = ModelParams(1.0, 1.0, locus.g1, g2)
        grid = np.linspace(locus.g1 - 0.04, locus.g1 + 0.04, 17)
        events = fock.scan_crossings(ModelParams(1.0, 1.0, 0.0, g2), grid, 8, n_max=140)
        ev = min((e for e in events if e.kind == "avoided"),
                 key=lambda e: abs(e.g1_location - locus.g1))
        p_at = ModelParams(1.0, 1.0, ev.g1_location, g2)
        assert weakpert.gap("1a", 0, p_at) == pytest.approx(ev.gap, rel=0.1)


class TestAvoidedEnergies:
    def test_gap_at_locus(self):
        locus = weakpert.degeneracy_loci("1a", 1.0, 1.0, n=0)
        p = ModelParams(1.0, 1.0, locus.g1, 0.03)
        hi, lo = weakpert.avoided_energies(0, 0, p)
        assert hi - lo == pytest.approx(weakpert.gap("1a", 0, p), rel=1e-9)

    def test_far_from_locus_reduces_to_unperturbed(self):
        p = ModelParams(1.0, 1.0, 0.15, 0.02)
        hi, lo = weakpert.avoided_energies(0, 0, p)
        e_a = weakpert.jc_level(0, 0, p).E0
        e_b = weakpert.jc_level(2, 1, p).E0
        delta = weakpert.gap("1a", 0, p)
        sep = abs(e_a - e_b)
        assert hi == pytest.approx(max(e_a, e_b), abs=delta ** 2 / sep * 1.01)
        assert lo == pytest.approx(min(e_a, e_b), abs=delta ** 2 / sep * 1.01)


class TestCounting:
    def test_n0_single_event(self):
        p = ModelParams(1.0, 0.77, 1.0, 0.01)
        n_cr, _ = weakpert.count_events(0, p)
        assert n_cr == 1

    def test_resonance_maximal(self):
        p = ModelParams(1.0, 0.5, 1.0, 0.01)
        for N in range(6):
            n_cr, _ = weakpert.count_events(N, p)
            assert n_cr == 2 * N + 1

    def test_large_detuning_minimal(self):
        for N in range(1, 6):
            w0 = 1.2 + N  # |1/2 - omega0| > N - 1/2
            p = ModelParams(1.0, w0, 1.0, 0.01)
            n_cr, _ = weakpert.count_events(N, p)
            assert n_cr == N + 1

    def test_bounds(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            w0 = rng.uniform(0.05, 3.0)
            N = int(rng.integers(0, 8))
            n_cr, n_av = weakpert.count_events(N, ModelParams(1.0, w0, 1.0, 0.01))
            assert N + 1 <= n_cr <= 2 * N + 1
            assert N + 1 <= n_av <= 2 * N + 1

    @pytest.mark.parametrize("omega0, N", [
        pytest.param(omega0, N, marks=pytest.mark.xfail(
            reason="the minus1-crossing locus sits at g1 = 0 (integer omega0/omega), "
                   "where the search keeps no point"))
        if (omega0, N) == (-3.0, 3) else (omega0, N)
        for omega0 in (-0.3, -0.7, -1.5, -3.0) for N in range(4)
    ])
    def test_negative_omega0_counts_the_verified_points(self, omega0, N):
        # omega0 < 0 is how core.mirror serves g1 << g2: a family member,
        # the |0,-> one included, counts only where its g1^2/(2 omega^2) >= 0
        pts = bethe.find_exceptional(N, {"omega": 1.0, "omega0": omega0, "g2": 0.01},
                                     "g1", (0.0, 12.0))
        n_cr, _ = weakpert.count_events(N, ModelParams(1.0, omega0, 1.0, 0.01))
        assert n_cr == sum(pt.verified for pt in pts)
