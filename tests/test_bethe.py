import math

import numpy as np
import pytest

from oracles import (bae_residual_loop, hierarchy_closure_chain, hierarchy_residual,
                     hierarchy_terms, lambda_from_roots, lambda_linear_matrix,
                     lambda_linear_solve_n1, lambda_scaled_derivative, ode_coefficients,
                     parity_crossings, residual_bae_rabi)
from rabi_spectra import bethe, fock, weakpert
from rabi_spectra.core import ModelParams, ReducedParams, invert, reduce


def reduced(kappa: float, nu: float, delta: float = 1.0) -> ReducedParams:
    lam_m = delta * nu / kappa
    lam_p = math.hypot(lam_m, nu * nu)
    return ReducedParams(delta, lam_p, lam_m, nu, kappa)


def appendix_coeffs(r: ReducedParams, epsilon: float) -> tuple[float, float, float]:
    """Independent oracle: the raw cubic-equation coefficients c_j / a_3."""
    dl, nu, lp, lm = r.delta, r.nu, r.lambda_plus, r.lambda_minus
    e = epsilon - lp
    a3 = -lm / nu
    c0 = (-(dl * (dl * dl - e * e + lp) + e * lm)
          - nu * nu * (dl - lm) - nu ** 4 * dl)
    c1 = ((dl * dl * lm - dl * lp - e * (e + 1) * lm) / nu
          - nu * (dl - lm - 2 * dl * epsilon) + nu ** 3 * lm)
    c2 = -2 * lm * epsilon
    return c0 / a3, c1 / a3, c2 / a3


class TestOdeCoefficients:
    def test_d2_is_2_nu_eps(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            r = reduced(rng.uniform(0.2, 1.5), rng.uniform(0.1, 1.0),
                        rng.uniform(0.2, 2.0))
            eps = rng.uniform(-1, 5)
            assert ode_coefficients(r, eps).d2 == pytest.approx(2 * r.nu * eps)

    def test_matches_raw_cubic_coefficients(self):
        r = reduce(ModelParams(1.0, 1.0, 1.3, 0.4))
        for eps in (2.0, 0.7, -0.5):
            got = ode_coefficients(r, eps)
            c0, c1, c2 = appendix_coeffs(r, eps)
            assert got.d0 == pytest.approx(c0, rel=1e-13)
            assert got.d1 == pytest.approx(c1, rel=1e-13)
            assert got.d2 == pytest.approx(c2, rel=1e-13)

    def test_eps_zero(self):
        r = reduced(0.5, 0.4)
        assert ode_coefficients(r, 0.0).d2 == 0.0

    def test_pole_data(self):
        r = reduced(0.5, 0.4, 1.1)
        c = ode_coefficients(r, 3.0)
        assert c.rho == (0.4, -0.4, 0.5)
        assert c.nu_s == (-2.0, -3.0, -1.0)
        assert c.nu0 == -0.8
        # Moment identities of the pole data
        assert sum(c.rho) == pytest.approx(r.kappa)
        assert sum(c.nu_s) == pytest.approx(-2 * 3.0)
        s, p_ = c.rho, 0.0
        p_ = s[0] * s[1] + s[0] * s[2] + s[1] * s[2]
        assert p_ == pytest.approx(-r.nu ** 2)

    def test_rabi_limit_raises(self):
        with pytest.raises(bethe.RabiLimit):
            ode_coefficients(reduce(ModelParams(1, 1, 1, 1)), 1.0)


class TestResidualBae:
    def test_n1_closed_form_randomized(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            kappa, nu = rng.uniform(0.1, 1.0, 2)
            r = reduced(kappa, nu)
            for z1 in bethe.closed_form_roots_n1(kappa, nu):
                res = bethe.residual_bae([z1], r, 1.0)
                assert np.max(np.abs(res)) < 1e-12

    def test_n0_empty(self):
        assert len(bethe.residual_bae([], reduced(0.5, 0.5), 0.0)) == 0

    def test_perturbed_root_detected(self):
        kappa, nu = 0.6, 0.4
        r = reduced(kappa, nu)
        z1 = bethe.closed_form_roots_n1(kappa, nu)[0]
        res = bethe.residual_bae([z1 + 0.1], r, 1.0)
        assert np.max(np.abs(res)) > 1e-3

    def test_pole_collision(self):
        r = reduced(0.6, 0.4)
        with pytest.raises(bethe.PoleCollision):
            bethe.residual_bae([0.4 + 1e-12], r, 1.0)

    def test_vectorised_matches_loop(self):
        rng = np.random.default_rng(31)
        for n_levels in (2, 3):
            for n in range(1, 14):
                for _ in range(5):
                    z = rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n)
                    levels = rng.uniform(-1, 1, n_levels)
                    strengths = rng.uniform(-n, n + 1, n_levels)
                    nu = rng.uniform(0.1, 1.0)
                    got = bethe._bae_residual(z, levels, strengths, nu)
                    want = bae_residual_loop(z, levels, strengths, nu)
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.fixture(scope="module")
def branch_solutions():
    """Converged Bethe branches across several (n, kappa, nu), ~100 solutions."""
    out = []
    combos = [(2, 0.5, 0.45), (2, 0.3, 0.6), (3, 0.4, 0.35), (3, 0.7, 0.5),
              (4, 0.25, 0.4), (4, 0.6, 0.3), (5, 0.1, 0.3), (5, 0.45, 0.55),
              (3, 0.15, 0.7), (2, 0.8, 0.25), (4, 0.35, 0.65), (5, 0.2, 0.45),
              (4, 0.15, 0.5), (5, 0.3, 0.35), (3, 0.55, 0.25), (4, 0.45, 0.55)]
    for n, kappa, nu in combos:
        sols = bethe.branch_Z(n, kappa, nu)
        out += [(n, kappa, nu, s) for s in sols]
    assert len(out) >= 100
    return out


class TestLambdaMachinery:
    def test_lambda_from_roots_trivial_n0(self):
        st = lambda_from_roots([], reduced(0.5, 0.4), 0)
        assert st.lam == (0.0, 0.0, 0.0)

    def test_sum_rule_and_quad_on_branches(self, branch_solutions):
        for n, kappa, nu, s in branch_solutions:
            st = lambda_from_roots(s.roots, reduced(kappa, nu), n)
            d = st.degeneracies
            assert sum(dj * lj for dj, lj in zip(d, st.lam)) == pytest.approx(n, abs=1e-9)
            # quadratic equation residual for every level
            for j in range(3):
                nxt = lambda_scaled_derivative(s.roots, st.levels[j], 1, nu)
                res = hierarchy_residual(j, 0, st.lam, [], nxt,
                                         st.levels, d, nu)
                assert abs(res) < 1e-10 * max(1.0, max(abs(v) for v in st.lam) ** 2)

    def test_hierarchy_residuals_all_orders(self, branch_solutions):
        for n, kappa, nu, s in branch_solutions:
            st = lambda_from_roots(s.roots, reduced(kappa, nu), n)
            for j, d_j in enumerate(st.degeneracies):
                for l in range(d_j):
                    derivs = [lambda_scaled_derivative(s.roots, st.levels[j], o, nu)
                              for o in range(1, l + 1)]
                    nxt = lambda_scaled_derivative(s.roots, st.levels[j], l + 1, nu)
                    terms = hierarchy_terms(j, l, st.lam, derivs, nxt,
                                            st.levels, st.degeneracies, nu)
                    scale = max(1.0, max(abs(t) for t in terms))
                    assert abs(math.fsum(terms)) < 1e-9 * scale

    def test_linear_solve_matches_roots(self, branch_solutions):
        for n, kappa, nu, s in branch_solutions:
            if n < 2:
                continue
            st = lambda_from_roots(s.roots, reduced(kappa, nu), n)
            lam = bethe.lambda_linear_solve(s.Z1, s.Z2, n, kappa, nu)
            for a, b in zip(lam, st.lam):
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_linear_solve_matches_matrix_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            kappa, nu = rng.uniform(0.1, 1.2, 2)
            if abs(kappa - nu) < 0.05:
                continue
            z1, z2 = rng.uniform(-20, 20, 2)
            lam = bethe.lambda_linear_solve(z1, z2, n, kappa, nu)
            m, rhs = lambda_linear_matrix(n, kappa, nu)
            want = np.linalg.solve(m, rhs(z1, z2))
            assert np.allclose(lam, want, rtol=1e-9, atol=1e-9)
            # first line of the moment system, identically in (Z1, Z2)
            d = (n - 1, n, 1)
            assert sum(dj * lj for dj, lj in zip(d, lam)) == pytest.approx(n, rel=1e-9)

    def test_linear_solve_n1_guard_and_safe_path(self):
        with pytest.raises(bethe.SingularSystem):
            bethe.lambda_linear_solve(0.1, 0.2, 1, 0.5, 0.4)
        kappa, nu = 0.5, 0.4
        z1 = bethe.closed_form_roots_n1(kappa, nu)[0]
        l2, l3 = lambda_linear_solve_n1(z1, kappa, nu)
        st = lambda_from_roots([z1], reduced(kappa, nu), 1)
        assert l2 == pytest.approx(st.lam[1], rel=1e-10)
        assert l3 == pytest.approx(st.lam[2], rel=1e-10)
        # sum rule with d = (0, 1, 1): Lambda_2 + Lambda_3 = 1
        assert st.lam[1] + st.lam[2] == pytest.approx(1.0, abs=1e-12)

    def test_singular_at_kappa_eq_nu(self):
        with pytest.raises(bethe.SingularSystem):
            bethe.lambda_linear_solve(0.1, 0.2, 3, 0.5, 0.5)

    def test_n0_degenerate_collapse(self):
        # Z1 = Z2 = 0 with n = 0: conditions collapse; the reduced system is
        # consistent only on kappa = nu, where both residuals vanish for any delta.
        for delta in (0.3, 1.0, 2.2):
            nu = 0.6
            ra, rb = bethe.condition_residuals(0.0, 0.0, 0, nu, nu, delta)
            assert abs(ra) < 1e-12 and abs(rb) < 1e-12


class TestHierarchyClosure:
    def test_equals_residual_chain_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for d_j in range(1, 14):
            for _ in range(15):
                nu = float(rng.uniform(0.05, 1.5))
                levels = tuple(float(x) for x in rng.uniform(-1.5, 1.5, 3))
                lam = tuple(float(x) for x in rng.normal(0.0, 5.0, 3))
                for j in range(3):
                    deg = [int(x) for x in rng.integers(1, 14, 3)]
                    deg[j] = d_j
                    want = hierarchy_closure_chain(j, lam, levels, tuple(deg), nu)
                    assert bethe._hierarchy_closure(j, lam, levels, tuple(deg), nu) == want

    def test_two_level_and_exceptional_condition_match_chain(self):
        rng = np.random.default_rng(32)
        for n in range(1, 14):
            for _ in range(10):
                kappa, nu, delta = (float(x) for x in rng.uniform(0.05, 1.5, 3))
                levels = (nu, -nu)
                lam = tuple(float(x) for x in rng.normal(0.0, 5.0, 2))
                for j in range(2):
                    want = hierarchy_closure_chain(j, lam, levels, (n, n + 1), nu)
                    assert bethe._hierarchy_closure(j, lam, levels, (n, n + 1), nu) == want
                if n >= 2 and abs(kappa - nu) > 1e-3:
                    z1, z2 = bethe.z1z2_from_conditions(n, kappa, nu, delta)
                    lam3 = bethe.lambda_linear_solve(z1, z2, n, kappa, nu)
                    want = hierarchy_closure_chain(0, lam3, (nu, -nu, kappa), (n - 1, n, 1), nu)
                    assert bethe.exceptional_condition(n, kappa, nu, delta) == want


class TestExceptionalCondition:
    def test_degenerate_error(self):
        with pytest.raises(bethe.Degenerate):
            bethe.exceptional_condition(1, 0.5, 0.4, 1.0)

    def test_n0_condition(self):
        assert bethe.exceptional_condition_n0(0.7, 0.4) == pytest.approx(0.3)

    def test_f_vanishes_at_fock_confirmed_points(self):
        # Points found by the Heine-Stieltjes scan on a weak-coupling slice,
        # each Fock-confirmed. The paper's Lambda-form conditions must vanish
        # there: F changes sign in a tight bracket around every n >= 2 point
        # (all lie away from its kappa = nu pole), and the n = 1 condition
        # vanishes on one closed-form branch.
        fixed = {"omega": 1.0, "omega0": 0.7, "g2": 0.1}
        counts = {}
        for n in range(1, 9):
            pts = bethe.find_exceptional(n, fixed, "g1", (0.2, 2.6), n_max=140)
            counts[n] = len(pts)
            for pt in pts:
                assert pt.verified
                assert pt.verified_gap < 1e-7
                assert abs(pt.epsilon_at_crossing - n) < 1e-6
                assert pt.solution.residual_max < 1e-10
                r = pt.reduced
                if n == 1:
                    assert min(abs(bethe.exceptional_condition_n1(r.kappa, r.nu, r.delta, b))
                               for b in (0, 1)) < 1e-10
                    continue
                assert abs(r.kappa - r.nu) > 1e-3
                g1, h = pt.params.g1, 1e-6 * pt.params.g1
                lo, hi = (reduce(ModelParams(1.0, 0.7, g, 0.1)) for g in (g1 - h, g1 + h))
                f_lo = bethe.exceptional_condition(n, lo.kappa, lo.nu, lo.delta)
                f_hi = bethe.exceptional_condition(n, hi.kappa, hi.nu, hi.delta)
                assert f_lo * f_hi < 0, (n, g1)
        assert counts == {1: 3, 2: 3, 3: 3, 4: 4, 5: 4, 6: 5, 7: 5, 8: 6}

    def test_n1_both_conditions_needed(self):
        # A zero of the first condition alone is not exceptional; verification
        # against the second condition must reject it.
        kappa, nu = 0.5, 0.3
        delta = 1.2588  # near a spurious first-condition zero
        from scipy.optimize import brentq
        d0 = brentq(lambda d: bethe.exceptional_condition_n1(kappa, nu, d, 1),
                    1.1, 1.4, xtol=1e-12)
        z1 = bethe.closed_form_roots_n1(kappa, nu)[1]
        ra, rb = bethe.condition_residuals(z1, z1 * z1, 1, kappa, nu, d0)
        assert abs(ra) < 1e-10
        assert abs(rb) > 1e-2
        r = reduce(invert(kappa, nu, d0, 1.0))
        assert not bethe._has_null_vector(1, r)


def _apply_hs(levels, strengths, nu, v, chi):
    """A chi'' - B chi' - V chi by polynomial arithmetic, ascending coefficients."""
    P = np.polynomial.Polynomial
    a = P.fromroots(levels)
    b = 2 * nu * a
    for s, w in enumerate(strengths):
        b = b + w * P.fromroots([e for t, e in enumerate(levels) if t != s])
    x = P(chi)
    return (a * x.deriv(2) - b * x.deriv(1) - P(v) * x).coef


class TestHeineStieltjesOperator:
    def test_matches_polynomial_application(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n_levels = int(rng.integers(2, 4))
            levels = tuple(float(x) for x in rng.uniform(-2, 2, n_levels))
            strengths = tuple(float(x) for x in rng.uniform(-1, 6, n_levels))
            nu = float(rng.uniform(0.1, 1.5))
            v = tuple(float(x) for x in rng.normal(0, 2, n_levels))
            n = int(rng.integers(0, 9))
            chi = rng.normal(0, 1, n + 1)
            op = np.array(bethe._hs_operator(levels, strengths, nu, v, n))
            assert op.shape == (n + n_levels, n + 1)
            want = np.zeros(n + n_levels)
            got = _apply_hs(levels, strengths, nu, v, chi)
            want[: len(got)] = got
            assert np.allclose(op @ chi, want, rtol=1e-12, atol=1e-10)

    def test_top_row_vanishes_at_integer_energy(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(0, 13))
            r = reduce(ModelParams(1.0, *(float(x) for x in rng.uniform(0.1, 2.0, 3))))
            op = bethe._exceptional_operator(n, r)
            assert len(op) == n + 3
            assert op[-1] == [0.0] * (n + 1)
            nu = r.nu
            rabi = bethe._hs_operator((nu, -nu), (float(n), n + 1.0), nu, (0.3, -2 * nu * n), n)
            assert rabi[-1] == [0.0] * (n + 1)

    def test_null_vector_is_chi_of_exceptional_roots(self):
        pts = bethe.find_exceptional(
            3, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (0.2, 1.2))
        assert len(pts) == 2
        cases = [(bethe._exceptional_operator(3, pt.reduced), pt.solution) for pt in pts]
        # branch_Z roots at fixed (n, kappa, nu), through the (Z1, Z2) operator
        for n, kappa, nu in ((3, 0.4, 0.35), (4, 0.25, 0.4)):
            sols = bethe.branch_Z(n, kappa, nu)
            assert sols
            for s in sols:
                op = bethe._branch_operator(n, kappa, nu, s.Z1, s.Z2)
                assert len(op) == n + 3
                assert op[-1] == [0.0] * (n + 1)
                cases.append((op, s))
        for op, sol in cases:
            op = np.array(op)
            chi = np.poly(sol.roots)[::-1].real
            assert np.linalg.norm(op @ chi) < 1e-9 * np.linalg.norm(op) * np.linalg.norm(chi)


class TestFindExceptional:
    def test_n0_curve(self):
        for g2 in (0.2, 0.5):
            pts = bethe.find_exceptional(
                0, {"omega": 1.0, "omega0": 1.0, "g2": g2}, "g1", (1.0, 2.0), n_max=140)
            assert len(pts) == 1
            assert pts[0].params.g1 == pytest.approx(math.sqrt(2 + g2 * g2), abs=1e-8)
            assert pts[0].verified

    def test_n1_points_confirmed(self):
        pts = bethe.find_exceptional(
            1, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (0.2, 2.6), n_max=140)
        assert len(pts) == 3
        for pt in pts:
            assert pt.verified
            assert abs(pt.epsilon_at_crossing - 1) < 1e-6
            res = bethe.residual_bae(pt.solution.roots, pt.reduced, 1.0)
            assert np.max(np.abs(res)) < 1e-12

    def test_bad_free_param(self):
        with pytest.raises(ValueError):
            bethe.find_exceptional(0, {"omega": 1.0}, "g1", (0.1, 1.0))

    @pytest.mark.parametrize("free, fixed, lo, hi, rabi_at", [
        # g1 < 0 raises in ModelParams, g1 = 0 has nu = 0, g1 = g2 is the Rabi line
        ("g1", {"omega": 1.0, "omega0": 0.7, "g2": 0.2}, -0.3, 3.7, 0.2),
        # the exceptional-search line that starts on the Rabi line
        ("g1", {"omega": 1.0, "omega0": 0.7, "g2": 0.2}, 0.2, 4.0, 0.2),
        ("g2", {"omega": 1.0, "omega0": 0.7, "g1": 0.5}, -0.3, 1.7, 0.5),
        # omega <= 0 raises in ModelParams
        ("omega", {"omega0": 0.7, "g1": 0.5, "g2": 0.1}, -0.5, 3.5, None),
        # omega0 = 0 gives kappa = 0, a valid point
        ("omega0", {"omega": 1.0, "g1": 0.5, "g2": 0.1}, -2.0, 2.0, None),
    ])
    def test_grid_pass_equals_point_calls(self, free, fixed, lo, hi, rabi_at):
        # One pass over the whole range, whose polynomial is fitted at nodes
        # spread over all of it, finds each point where a call on a window of
        # 1e-3 around that point alone does, within PARAM_TOL; no point lies
        # on the Rabi line, which is left to rabi_exceptional.
        total = 0
        for n in range(5):
            xs = [getattr(pt.params, free) for pt in bethe.find_exceptional(n, fixed, free, (lo, hi))]
            total += len(xs)
            for x in xs:
                assert rabi_at is None or abs(x - rabi_at) > 1e-6, (n, x)
                near = bethe.find_exceptional(n, fixed, free, (x - 1e-3, x + 1e-3))
                assert len(near) == 1, (n, x)
                assert abs(getattr(near[0].params, free) - x) < bethe.PARAM_TOL, (n, x)
        assert total >= 4

    def test_fock_gap_at_off_a_point_pairs_the_nearest_even_and_odd_levels(self):
        # no exceptional point here: each chain's level nearest eps = n,
        # not the closest adjacent pair (at n = 1 and 6 those differ)
        p = ModelParams(1.0, 0.7, 2.0, 0.1)
        blocks = fock.parity_blocks(fock.build(p, 200))
        levels = [np.linalg.eigvalsh(b) / p.omega + reduce(p).lambda_plus for b in blocks]
        for n in (1, 3, 6):
            even, odd = (lv[np.argmin(np.abs(lv - n))] for lv in levels)
            assert max(abs(even - n), abs(odd - n)) < 0.5
            gap, eps_at = bethe._fock_gap_at(p, n, 200)
            assert gap > 0.1
            assert abs(gap - abs(even - odd)) < 1e-12
            assert abs(eps_at - 0.5 * (even + odd)) < 1e-12

    def test_lines_off_the_domain_give_no_point(self):
        # g1 = g2 with omega or omega0 free lies on the Rabi line throughout,
        # where kappa is undefined; g2 = 0 (a JC line) has nu = 0 throughout
        for free, fixed in (("omega", {"omega0": 0.7, "g1": 0.5, "g2": 0.5}),
                            ("omega0", {"omega": 1.0, "g1": 0.5, "g2": 0.5}),
                            ("g1", {"omega": 1.0, "omega0": 0.7, "g2": 0.0})):
            for n in range(3):
                assert bethe.find_exceptional(n, fixed, free, (0.1, 2.0)) == []

    def test_candidate_on_the_rabi_line_is_not_refined_and_not_kept(self):
        # g2 is the eps = 3 Juddian g of rabi_exceptional(2, 1, 0.7, ...) as
        # rabi-markers prints it; one fitted candidate's Newton step would
        # sample the operator at g1 = g2, where kappa is undefined
        g2 = 0.23185540302270555
        pts = bethe.find_exceptional(3, {"omega": 1.0, "omega0": 0.7, "g2": g2}, "g1", (0.2, 0.26))
        assert all(bethe._in_domain(pt.reduced) for pt in pts)

    def test_n8_point_near_kappa_eq_nu_verified(self):
        # 0.02 from kappa = nu, where the Lambda-form recovery failed and the
        # point was dropped; the null vector of the operator recovers it.
        pts = bethe.find_exceptional(
            8, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (1.1, 1.35))
        assert [round(pt.params.g1, 6) for pt in pts] == [1.223668]
        pt = pts[0]
        assert pt.verified
        assert abs(pt.reduced.kappa - pt.reduced.nu) < 0.025
        assert pt.solution.residual_max < 1e-10


class TestCompleteness:
    # (g2, N) -> g1 of each parity-resolved Fock crossing that find_exceptional
    # misses: none, including g1 = 1.4416 at (0.1, 3) and the point 0.2050 at
    # (0.2, 4), next to the Rabi line g1 = g2 that starts the range
    EXPECTED_MISSES: dict[tuple[float, int], list[float]] = {}

    def test_points_match_parity_crossings(self):
        cell = (4.0 - 0.2) / 399
        for g2 in (0.1, 0.2):
            fock_x = parity_crossings(lambda g1: ModelParams(1.0, 0.7, g1, g2),
                                      np.linspace(0.2, 4.0, 300), 10)
            assert -1 not in fock_x
            for n in range(11):
                pts = bethe.find_exceptional(n, {"omega": 1.0, "omega0": 0.7, "g2": g2},
                                             "g1", (0.2, 4.0))
                found = [pt.params.g1 for pt in pts]
                assert all(pt.verified for pt in pts)
                for g in found:
                    assert min(abs(g - x) for x in fock_x[n]) < 1.5 * cell, (g2, n, g)
                missed = [round(x, 4) for x in fock_x[n]
                          if not any(abs(g - x) < 1.5 * cell for g in found)]
                assert missed == self.EXPECTED_MISSES.get((g2, n), []), (g2, n)

    # (g2, N) -> g1 of each point on the exceptional-search lines that the
    # grid scan, refined by brentq, returned before the eigenvalue solve
    # replaced it (126 points, to 12 decimals)
    ONE_PASS_GRID_POINTS = {
        (0.1, 0): [1.187434208704],
        (0.1, 1): [0.377605573870, 1.836008355647, 2.432383059585],
        (0.1, 2): [0.289651048956, 0.985882407985, 2.320162008246,
            2.990721134136, 3.172786393817],
        (0.1, 3): [0.243775710521, 0.809383447796, 2.717713315752,
            3.445808359524, 3.636075405063, 3.767851812659],
        (0.1, 4): [0.214325476702, 0.705517132777, 1.224687855726,
            1.822794619868, 3.063842242790, 3.826374769285],
        (0.1, 5): [0.634033044932, 1.089909614904, 1.580931623542,
            2.157843355500, 3.374577088640],
        (0.1, 6): [0.580689997652, 0.993700293143, 1.425663070542,
            1.898593960902, 2.460411863791, 3.658985831322],
        (0.1, 7): [0.538809419006, 0.919977186197, 1.312196068965,
            1.728468191264, 2.188161569537, 2.738476849828, 3.922812571527],
        (0.1, 8): [0.504747803927, 0.860914981929, 1.223668051022,
            1.602080305429, 2.006628428915, 2.456030497755, 2.997190642691],
        (0.1, 9): [0.476314003848, 0.812109361866, 1.151719623460,
            1.502173215048, 1.870101185366, 2.265382138334, 2.706470325573,
            3.240114521805],
        (0.1, 10): [0.452096242070, 0.770840682580, 1.091563856087,
            1.420100924851, 1.761098501489, 2.120623449916, 2.508321183740,
            2.942505382242, 3.469833392358],
        (0.2, 0): [1.200000000000],
        (0.2, 1): [0.373666608475, 1.814793559018, 2.467163878598],
        (0.2, 2): [0.284080783976, 0.974240333005, 2.308850856728,
            2.969860591960, 3.227892449793],
        (0.2, 3): [0.236413027712, 0.796135716708, 1.434580742833,
            2.709872300012, 3.426742886138, 3.626016235239, 3.833834433687],
        (0.2, 4): [0.690957421486, 1.216912253879, 1.817454890082,
            3.057506695505, 3.814169681475],
        (0.2, 5): [0.618396629345, 1.081350811699, 1.575228404954,
            2.153296296951, 3.369123496198],
        (0.2, 6): [0.564166542665, 0.984384567644, 1.419554325114,
            1.893844449714, 2.456360583932, 3.654128403993],
        (0.2, 7): [0.521555299019, 0.909935345597, 1.305680775877,
            1.723465536520, 2.183991051501, 2.734776597977, 3.918392102535],
        (0.2, 8): [0.486894585079, 0.850176497936, 1.216754972550,
            1.596813922724, 2.002286059527, 2.452260325027, 2.993757062096],
        (0.2, 9): [0.457974124579, 0.800701261413, 1.144419891333,
            1.496643854664, 1.865571849450, 2.261490239988, 2.702998372567,
            3.236893090620],
        (0.2, 10): [0.433366898848, 0.758787579136, 1.083888705234,
            1.414313253247, 1.756378553539, 2.116592665807, 2.504760936157,
            2.939266801544, 3.466786345516],
    }

    def test_points_unchanged_by_the_one_pass_grid(self):
        # every point of the grid scan comes back within PARAM_TOL, and the
        # only others are the two crossings the scan missed
        new = {(0.1, 3): [1.4416], (0.2, 4): [0.2050]}
        for (g2, n), old in self.ONE_PASS_GRID_POINTS.items():
            found = [pt.params.g1 for pt in bethe.find_exceptional(
                n, {"omega": 1.0, "omega0": 0.7, "g2": g2}, "g1", (0.2, 4.0))]
            for g in old:
                assert min(abs(g - x) for x in found) < bethe.PARAM_TOL, (g2, n, g)
            extra = [round(x, 4) for x in found if min(abs(g - x) for g in old) > 1e-6]
            assert extra == new.get((g2, n), []), (g2, n)
            assert len(found) == len(old) + len(extra), (g2, n)

    # (omega0, N) -> g1 of each point on a criterion-3 line that comes back
    # "rapidity recovery failed": at (0.5, 2) one root of chi lies 1e-5 from
    # both nu and kappa, where the Bethe residual (terms of size 1e5) bottoms
    # out near 1e-7 in absolute terms, above BETHE_TOL
    EXPECTED_UNRECOVERED = {(0.5, 2): [0.99995]}

    def test_counts_match_the_enumeration_on_the_criterion_3_lines(self):
        for omega0 in (0.13, 0.5, 0.77, 1.42, 2.23, 2.9):
            for n in range(6):
                pts = bethe.find_exceptional(n, {"omega": 1.0, "omega0": omega0, "g2": 0.01},
                                             "g1", (0.02, 4.95))
                n_cr, _ = weakpert.count_events(n, ModelParams(1.0, omega0, 1.0, 0.01))
                assert len(pts) == n_cr, (omega0, n)
                for pt in pts:
                    assert pt.verified_gap < fock.GAP_TOL, (omega0, n, pt.params.g1)
                    assert abs(pt.epsilon_at_crossing - n) < fock.INT_TOL
                unrecovered = [(round(pt.params.g1, 5), pt.message) for pt in pts
                               if not pt.verified]
                assert unrecovered == [(g, "rapidity recovery failed") for g in
                                       self.EXPECTED_UNRECOVERED.get((omega0, n), [])]

    @pytest.mark.parametrize("free, fixed, free_range, rabi_at", [
        # g1 < 0 raises in ModelParams, g1 = 0 has nu = 0, g1 = g2 is the Rabi line
        ("g1", {"omega": 1.0, "omega0": 0.7, "g2": 0.2}, (-0.3, 3.7), 0.2),
        # the exceptional-search line that starts on the Rabi line
        ("g1", {"omega": 1.0, "omega0": 0.7, "g2": 0.2}, (0.2, 4.0), 0.2),
        ("g2", {"omega": 1.0, "omega0": 0.7, "g1": 0.5}, (-0.3, 1.7), 0.5),
        # omega <= 0 raises in ModelParams
        ("omega", {"omega0": 0.7, "g1": 0.5, "g2": 0.1}, (-0.5, 3.5), None),
        # omega0 = 0 gives kappa = 0, a valid point
        ("omega0", {"omega": 1.0, "g1": 0.5, "g2": 0.1}, (-2.0, 2.0), None),
        # omega0 = 0, where lambda- is no denominator; on the Rabi line every
        # level is a crossing there, which is left to rabi_exceptional
        ("g1", {"omega": 1.0, "omega0": 0.0, "g2": 0.2}, (-0.3, 3.7), 0.2),
    ])
    def test_ranges_through_invalid_values_match_parity_crossings(
            self, free, fixed, free_range, rabi_at):
        # The oracle runs on the valid part of the range: a coupling from 0.01,
        # omega in t = 1/omega from omega = 0.08, which spreads out the points
        # that crowd towards omega -> 0 (none at N <= 3 below omega = 0.1).
        t_of = (lambda v: 1 / v) if free == "omega" else (lambda v: v)
        lo, hi = {"omega": (1 / 3.5, 12.5), "omega0": free_range}.get(free, (0.01, free_range[1]))
        ts = np.linspace(lo, hi, 200)
        fock_x = parity_crossings(lambda t: ModelParams(**fixed, **{free: float(t_of(t))}),
                                  ts, 3, n_max=60)
        assert -1 not in fock_x
        cell = (hi - lo) / 199
        for n in range(4):
            pts = bethe.find_exceptional(n, fixed, free, free_range)
            assert all(pt.verified for pt in pts)
            found = [t_of(getattr(pt.params, free)) for pt in pts]
            want = [x for x in fock_x.get(n, [])
                    if rabi_at is None or abs(x - rabi_at) > 1.5 * cell]
            assert len(found) == len(want), (n, found, want)
            for t in found:
                assert min(abs(t - x) for x in want) < 1.5 * cell, (n, t)
            for x in want:
                assert min(abs(t - x) for t in found) < 1.5 * cell, (n, x)


class TestBranches:
    def test_n1_matches_closed_form(self):
        kappa, nu = 0.4, 0.35
        sols = bethe.branch_Z(1, kappa, nu)
        want = sorted(bethe.closed_form_roots_n1(kappa, nu))
        got = sorted(s.Z1 for s in sols)
        assert got == pytest.approx(want, rel=1e-12)

    def test_n5_kappa01_ten_branches(self):
        sols = bethe.branch_Z(5, 0.1, 0.3)
        assert len(sols) == 10
        for s in sols:
            assert s.residual_max < 1e-10
        # nearly degenerate pairs are present
        z1s = sorted(s.Z1 for s in sols)
        close_pairs = sum(1 for a, b in zip(z1s, z1s[1:]) if abs(a - b) < 0.1)
        assert close_pairs >= 2

    def test_one_rapidity_recovery_per_distinct_z(self, monkeypatch):
        newton_2d, newton_bae = bethe._newton_2d, bethe._newton_bae
        converged: list[tuple[float, float]] = []
        bae_calls: list[int] = []

        def counting_2d(*args, **kwargs):
            out = newton_2d(*args, **kwargs)
            if out is not None:
                converged.append((round(out[0], 6), round(out[1], 6)))
            return out

        def counting_bae(*args, **kwargs):
            bae_calls.append(1)
            return newton_bae(*args, **kwargs)

        monkeypatch.setattr(bethe, "_newton_2d", counting_2d)
        monkeypatch.setattr(bethe, "_newton_bae", counting_bae)
        sols = bethe.branch_Z(3, 0.4, 0.35, extra_starts=120)
        # one recovery per finite eigenvalue and per distinct converged (Z1, Z2),
        # none for the pole-collapsed ones: C(3, 2) + 1 = 4 of the 10
        # eigenvalues, and the converged (-2.711, 12.647122), whose chi has a
        # double root at kappa
        assert len(bethe._branch_eigenvalues(3, 0.4, 0.35)[0]) == 10
        assert len(converged) > len(set(converged))
        assert (-2.711, 12.647122) in set(converged)
        assert len(bae_calls) == 10 - 4 + len(set(converged)) - 1 == 6 + 5
        assert sols
        for s in sols:
            assert s.residual_max < 1e-10

    def test_n5_small_nu_branch_recovered_from_null_vector(self):
        # The branch at (-39.9625, 1605.006) has a root 0.02 from the nearest
        # pole; the rapidities of the Lambda power sums missed it, the
        # operator's null vector recovers it.
        a1, a2 = bethe.asymptotic_Z(5, 0.1, 0.025)
        sols = bethe.branch_Z(5, 0.1, 0.025)
        assert len(sols) == 10
        assert all(s.residual_max < 1e-10 for s in sols)
        assert sum(abs(s.Z1 + 39.9625) < 1e-3 and abs(s.Z2 - 1605.006) < 1e-2
                   for s in sols) == 1
        assert sols[0].branch_id == "ground"
        assert abs(sols[0].Z1 - a1) / abs(sols[0].Z1) < 1e-2
        assert abs(sols[0].Z2 - a2) / abs(sols[0].Z2) < 1e-2

    def test_pole_collapsed_eigenvalues_skip_newton(self, monkeypatch):
        n, kappa, nu = 5, 0.1, 0.05
        levels, strengths = (nu, -nu, kappa), (n - 1.0, float(n), 1.0)
        chis = [bethe._null_vector(bethe._hs_operator(levels, strengths, nu,
                                                      (v0, v1, -2 * nu * n), n))
                for v0, v1 in zip(*bethe._branch_eigenvalues(n, kappa, nu))]

        def divisible(chi: np.ndarray, factor: np.ndarray) -> bool:
            rem = np.polydiv(chi[::-1], factor)[1]
            return np.max(np.abs(rem)) < 1e-9 * np.max(np.abs(chi))

        # C(5, 2) of them have a double root at kappa, one is (z - nu)^5
        at_kappa = [divisible(c, np.poly([kappa, kappa])) for c in chis]
        at_nu = [divisible(c, np.poly([nu] * n)) for c in chis]
        assert (len(chis), sum(at_kappa), sum(at_nu)) == (21, 10, 1)
        assert [bethe._pole_collapsed(c, levels) for c in chis] == [
            a or b for a, b in zip(at_kappa, at_nu)]

        newton_bae, calls = bethe._newton_bae, []

        def counting_bae(*args):
            calls.append(1)
            return newton_bae(*args)

        monkeypatch.setattr(bethe, "_newton_bae", counting_bae)
        sols = bethe.branch_Z(n, kappa, nu)
        assert len(calls) == 21 - 11
        assert len(sols) == 10
        assert all(s.residual_max < 1e-10 for s in sols)

    def test_branch_count_exactly_2n(self):
        for (n, kappa, nu) in [(2, 0.5, 0.45), (3, 0.4, 0.35), (4, 0.25, 0.4), (4, 0.3, 0.2),
                               (5, 0.1, 0.3), (2, 0.5, 0.3), (5, 0.1, 0.05), (1, 0.4, 0.35)]:
            sols = bethe.branch_Z(n, kappa, nu)
            assert len(sols) == 2 * n, (n, kappa, nu)
            assert all(s.residual_max < 1e-10 for s in sols), (n, kappa, nu)

    @pytest.mark.parametrize("n, kappa, nu", [(3, 0.4, 0.35), (5, 0.1, 0.3)])
    def test_closed_system_cross_check_finds_the_same_branches(self, n, kappa, nu):
        def keys(sols):
            return {bethe._dedupe_key(s.roots) for s in sols}

        assert keys(bethe.branch_Z(n, kappa, nu, extra_starts=120)) == keys(
            bethe.branch_Z(n, kappa, nu))


class TestAsymptotics:
    def test_root_sum_identity_via_laguerre(self):
        # sum y_j over roots of L_n^(-1-2n) equals n(n + alpha) = -n(n+1)
        from rabi_spectra.special import genlaguerre_roots
        for n in range(1, 7):
            roots = genlaguerre_roots(n, -1 - 2 * n)
            assert np.sum(roots).real == pytest.approx(-n * (n + 1), rel=1e-9)

    def test_ground_branch_match(self):
        a1, a2 = bethe.asymptotic_Z(5, 0.1, 0.05)
        sols = bethe.branch_Z(5, 0.1, 0.05)
        s = sols[0]  # ground branch: most negative Z1
        assert abs(s.Z1 - a1) / abs(s.Z1) < 1e-2
        assert abs(s.Z2 - a2) / abs(s.Z2) < 1e-2

    def test_n1_leading_term(self):
        # exact z1- root expands as -1/nu + O(1); the asymptotic Z1 for n=1
        # carries the same -n(n+1)/(2 nu) = -1/nu leading term
        kappa = 0.3
        for nu in (0.02, 0.01):
            z_minus = bethe.closed_form_roots_n1(kappa, nu)[1]
            a1, _ = bethe.asymptotic_Z(1, kappa, nu)
            assert z_minus * nu == pytest.approx(-1.0, abs=0.05)
            assert a1 * nu == pytest.approx(-1.0, abs=0.05)
            assert z_minus == pytest.approx(a1, rel=0.05)


class TestRabiLine:
    def test_n0_condition_closed_form(self):
        assert bethe.rabi_condition(0, 0.3, 0.5) == pytest.approx(1 - 0.25 - 4 * 0.09)

    def test_lambda_sum_rule(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            nu = rng.uniform(0.1, 1.0)
            z1 = rng.uniform(-5, 5)
            l1 = (2 * nu * z1 + n * (n + 2 + 2 * nu * nu)) / (4 * nu ** 2 * n)
            l2 = -(2 * nu * z1 + n * (n + 2 - 2 * nu * nu)) / (4 * nu ** 2 * (n + 1))
            assert n * l1 + (n + 1) * l2 == pytest.approx(n, rel=1e-9)

    def test_juddian_points_verified(self):
        pts = bethe.rabi_exceptional(1, 1.0, 1.0, (0.5, 1.1), n_max=160)
        assert len(pts) == 1
        pt = pts[0]
        assert pt.verified
        assert pt.n == 2  # eps = n + 1
        assert pt.verified_gap < 1e-7
        assert abs(pt.epsilon_at_crossing - 2) < 1e-6
        res = residual_bae_rabi(pt.solution.roots, pt.reduced.nu, 2.0)
        assert np.max(np.abs(res)) < 1e-10

    def test_juddian_points_near_the_jc_end_verified(self):
        # The two lowest-g points at n = 6, 7 were left unverified when the
        # rapidities came from power sums; the null vector recovers them.
        for n, g in ((6, 0.158166), (7, 0.148558)):
            pts = bethe.rabi_exceptional(n, 1.0, 0.7, (0.05, 1.0))
            pt = min(pts, key=lambda q: q.params.g1)
            assert round(pt.params.g1, 6) == g
            assert pt.verified, pt.message
            assert pt.solution.residual_max < 1e-10

    def test_zero_on_grid_point_reported_once(self):
        # at delta = 0 the n = 0 condition 1 - 4 g^2 vanishes at g = 0.5 only,
        # the middle of the range
        pts = bethe.rabi_exceptional(0, 1.0, 0.0, (0.25, 0.75))
        assert len(pts) == 1
        assert abs(pts[0].params.g1 - 0.5) < bethe.PARAM_TOL

    def test_lambda_form_condition_changes_sign_at_every_point(self):
        # The paper's Lambda-form Juddian condition stays tested now that the
        # operator's eigenvalues locate the points: it changes sign within
        # +-1e-6 g of every one.
        for omega0 in (0.7, 1.0):
            for n in range(1, 8):
                pts = bethe.rabi_exceptional(n, 1.0, omega0, (0.05, 1.5))
                assert pts, (omega0, n)
                for pt in pts:
                    g = pt.params.g1
                    lo, hi = (bethe.rabi_condition(n, x, omega0)
                              for x in (g - 1e-6 * g, g + 1e-6 * g))
                    assert lo * hi < 0, (omega0, n, g)


class TestEigenstates:
    def test_n0_cat_projection(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        r = reduce(p)
        sol = bethe.BetheSolution(0, np.zeros(0, dtype=complex), 0.0, 0.0, 0.0)
        gap, eps_at = bethe._fock_gap_at(p, 0, 160)
        pt = bethe.ExceptionalPoint(0, p, r, sol, gap, eps_at, True)
        u_plus, u_minus = bethe.eigenstate_at_exceptional(pt, n_max=160)
        h = fock.build(p, 160)
        assert fock.eigvec_overlap(h, 0, u_plus) > 1 - 1e-4
        assert fock.eigvec_overlap(h, 0, u_minus) > 1 - 1e-4
        # generalized cats superpose both displacements
        coh = fock.coherent_state(r.nu, 160)
        w_plus = np.linalg.norm(u_plus[0::2] @ coh) ** 2 + np.linalg.norm(u_plus[1::2] @ coh) ** 2
        assert 0.05 < w_plus < 0.95

    def test_n1_displaced_single_excitation_states(self):
        # (a' - z1)|nu>-type doublet members at an n=1 point
        pts = bethe.find_exceptional(
            1, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (0.3, 0.5), n_max=160)
        assert pts
        pt = pts[0]
        assert len(pt.solution.roots) == 1
        u_plus, u_minus = bethe.eigenstate_at_exceptional(pt, n_max=160)
        h = fock.build(pt.params, 160)
        from scipy.linalg import eigh
        evals = eigh(h.matrix, eigvals_only=True) + pt.reduced.lambda_plus
        level = int(np.argmin(np.abs(evals - 1.0)))
        assert fock.eigvec_overlap(h, level, u_plus) > 1 - 1e-4
        assert fock.eigvec_overlap(h, level, u_minus) > 1 - 1e-4

    def test_n2_doublet_overlap(self):
        pts = bethe.find_exceptional(
            2, {"omega": 1.0, "omega0": 0.7, "g2": 0.1}, "g1", (0.2, 1.2), n_max=160)
        assert pts
        pt = pts[0]
        u_plus, u_minus = bethe.eigenstate_at_exceptional(pt, n_max=160)
        h = fock.build(pt.params, 160)
        lam_p = pt.reduced.lambda_plus
        # locate the doublet level index at eps = 2
        from scipy.linalg import eigh
        evals = eigh(h.matrix, eigvals_only=True) + lam_p
        level = int(np.argmin(np.abs(evals - 2.0)))
        assert fock.eigvec_overlap(h, level, u_plus) > 1 - 1e-4
        assert fock.eigvec_overlap(h, level, u_minus) > 1 - 1e-4

    def test_not_verified_raises(self):
        p = ModelParams(1.0, 1.0, 1.5, 0.5)
        pt = bethe.ExceptionalPoint(0, p, reduce(p), None, 1.0, 0.0, False, "nope")
        with pytest.raises(bethe.NotVerified):
            bethe.eigenstate_at_exceptional(pt)
