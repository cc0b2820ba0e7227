"""Exceptional-spectrum engine: Bethe/Richardson equations in Lambda variables.

The exceptional eigenvalues sit at integer shifted energy eps = n. Their
polynomial Bargmann factors chi = prod (z - z_i) have roots (rapidities) z_i
obeying Richardson equations with three "levels" eps_s = (nu, -nu, kappa)
of degeneracies d_s = (n-1, n, 1):

    sum_{j!=i} 2/(z_j - z_i) + sum_s d_s/(z_i - eps_s) + 2 nu = 0.

Equivalently chi is a null vector of the Bargmann ODE on the monomials
z^0..z^n (`_hs_operator`, the Heine-Stieltjes form). Along a line in one
model parameter this operator, with its denominators cleared, is a
polynomial matrix, and the exceptional points at every n are its real
rank-loss points: eigenvalues of a companion pencil, with no grid. Every
rapidity set is recovered from the null vector. At fixed (n, kappa, nu) the
free coefficients (v0, v1) of its
potential are the eigenvalues of a rectangular two-parameter eigenproblem,
which gives every root branch of `branch_Z`. The paper's Lambda form stays
available: Lambda_j = (1/2nu) sum_k 1/(eps_j - z_k) closes into a quadratic
equation plus a derivative hierarchy; with the two integer-energy conditions
fixing (Z1, Z2) this gives a single scalar condition F(kappa, nu, delta)
whose zeros are the exceptional surfaces, and at fixed (n, kappa, nu) the
closed system is `branch_Z`'s opt-in multistart cross-check (extra_starts).
Scaled derivatives are used throughout:

    Lambda_j^(l) = (-1)^l l! / (2nu)^(l+1) * sum_k (eps_j - z_k)^(-(l+1)),

the unique convention under which valid root sets satisfy the hierarchy.

On the Rabi line g1 = g2 the kappa level disappears; the two-level variant
with degeneracies (n, n+1) at fixed eps = n + 1 handles the Juddian points,
the rank-loss points of its square operator, cubic in the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eig, eigh_tridiagonal

from . import fock
from .core import ModelParams, ReducedParams, reduce

PARAM_TOL = 1e-10  # accuracy asked of a located parameter value
BETHE_TOL = 1e-10
POLE_TOL = 1e-8
# sigma_min / scale of the Heine-Stieltjes operator at the 673 candidates of
# the exceptional-search lines and the tests' lines: <= 1.2e-12 at the points,
# >= 1.2e-4 at eigenvalues that only the projection has
NULL_TOL = 1e-9
# |chi| and |chi'| at a pole over the magnitude sums of their terms, at 13
# (n, kappa, nu) with n = 1..10: <= 7e-11 for the pole-collapsed eigenvalues
# of `_branch_eigenvalues`, >= 6.9e-3 for the Bethe branches among them
COLLAPSE_TOL = 1e-8


def brentq(*args, **kwargs):
    """`scipy.optimize.brentq`, imported on first call. Nothing here calls
    it: it exists only because the benchmark tracer wraps `bethe.brentq`
    (perfbench/tracing.py LAYERS), and is deleted together with that layer
    (ROADMAP item 1). Importing scipy.optimize at module level would add a
    third to the package's import time."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


class RabiLimit(ValueError):
    """General-model path called on (or too near) the Rabi line g1 = g2."""


class PoleCollision(ValueError):
    """A rapidity sits on a pole of the Bethe equations."""


class SingularSystem(ValueError):
    """Lambda linear system is singular (kappa^2 = nu^2, or n = 1 where the
    Lambda_1 coefficient d_1 = n - 1 drops out)."""


class Degenerate(ValueError):
    """n <= 1 requested from the generic hierarchy (dedicated paths exist)."""


class NotVerified(RuntimeError):
    pass


@dataclass(frozen=True)
class BetheSolution:
    n: int
    roots: np.ndarray
    Z1: float
    Z2: float
    residual_max: float
    branch_id: str = ""


@dataclass(frozen=True)
class ExceptionalPoint:
    n: int
    params: ModelParams
    reduced: ReducedParams
    solution: BetheSolution | None
    verified_gap: float
    epsilon_at_crossing: float
    verified: bool
    message: str = ""


def _d_coefficients(r: ReducedParams, epsilon: float) -> tuple[float, float, float]:
    """(d0, d1, d2) of the Bargmann ODE's D2(z) = d0 + d1 z + d2 z^2 at
    shifted energy eps; r must be off the Rabi line."""
    k, nu, dl, lp = r.kappa, r.nu, r.delta, r.lambda_plus
    e = epsilon - lp
    d0 = k * (dl * dl - epsilon * epsilon + 2 * epsilon * lp - lp * lp + lp + nu * nu + nu ** 4) \
        + nu * (epsilon - lp - nu * nu)
    d1 = e * (e + 1) - dl * dl + dl * lp / r.lambda_minus + nu * k - nu * nu \
        - 2 * nu * epsilon * k - nu ** 4
    return d0, d1, 2 * nu * epsilon


def _d_scale(r: ReducedParams, epsilon: float) -> float:
    """Sum of the magnitudes of the terms of d0 and d1 (at eps = 0 both
    cancel exactly on kappa = nu, so they are judged against this)."""
    k, nu, dl, lp = abs(r.kappa), r.nu, r.delta, r.lambda_plus
    ae, e = abs(epsilon), epsilon - lp
    return k * (dl * dl + ae * ae + 2 * ae * lp + lp * lp + lp + nu * nu + nu ** 4) \
        + nu * (ae + lp + nu * nu) \
        + abs(e * (e + 1)) + dl * dl + abs(dl * lp / r.lambda_minus) + nu * k + nu * nu \
        + 2 * nu * ae * k + nu ** 4


# ---------------------------------------------------------------------------
# Bethe ansatz equations and their Newton solver
# ---------------------------------------------------------------------------

def _bae_residual(
    roots: np.ndarray, levels: Sequence[float], strengths: Sequence[float], nu: float
) -> np.ndarray:
    """Richardson-form residuals sum 2/(z_j-z_i) + sum_s w_s/(z_i-e_s) + 2nu."""
    z = np.asarray(roots, dtype=complex)
    lv = np.asarray(levels, dtype=float)
    wt = np.asarray(strengths, dtype=float)
    with np.errstate(all="ignore"):
        dz = z[None, :] - z[:, None]  # z_j - z_i at [i, j]
        np.fill_diagonal(dz, 1.0)
        inv = 2.0 / dz
        np.fill_diagonal(inv, 0.0)
        pair = np.sum(inv, axis=1)
        pole = np.sum(wt[None, :] / (z[:, None] - lv[None, :]), axis=1)
    return pair + pole + 2 * nu


def _check_poles(roots: np.ndarray, levels: Sequence[float]) -> None:
    z = np.asarray(roots, dtype=complex)
    for e_s in levels:
        if len(z) and np.min(np.abs(z - e_s)) < POLE_TOL:
            raise PoleCollision(f"rapidity within {POLE_TOL} of pole {e_s}")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) < POLE_TOL:
                raise PoleCollision("coincident rapidities")


def residual_bae(
    roots: Sequence[complex], r: ReducedParams, epsilon: float
) -> np.ndarray:
    """Left-hand sides of the Bethe equations, one per rapidity.

    The pole strengths are (eps-1, eps, 1) at (nu, -nu, kappa); at the
    exceptional condition eps = n these are the integer degeneracies.
    """
    if r.kappa is None:
        raise RabiLimit("residual_bae on the Rabi line, where kappa is undefined")
    z = np.asarray(roots, dtype=complex)
    if len(z) == 0:
        return np.zeros(0)
    levels = (r.nu, -r.nu, r.kappa)
    _check_poles(z, levels)
    return _bae_residual(z, levels, (epsilon - 1.0, epsilon, 1.0), r.nu)


def _newton_bae(
    start: np.ndarray,
    levels: Sequence[float],
    strengths: Sequence[float],
    nu: float,
) -> np.ndarray | None:
    """Damped Newton in (Re z, Im z) coordinates with the analytic Jacobian.

    The residual map is holomorphic per root, so the real 2n x 2n Jacobian is
    assembled from the complex one. At most 80 steps to a residual below
    BETHE_TOL; returns None on non-convergence.
    """
    z = np.asarray(start, dtype=complex).copy()
    n = len(z)
    if n == 0:
        return z
    lv = np.asarray(levels, dtype=float)
    wt = np.asarray(strengths, dtype=float)

    def jac(zz: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            dz = zz[None, :] - zz[:, None]  # z_j - z_i at [i, j]
            np.fill_diagonal(dz, 1.0)
            inv2 = 2.0 / dz ** 2
            np.fill_diagonal(inv2, 0.0)
            diag = np.sum(inv2, axis=1) \
                - np.sum(wt[None, :] / (zz[:, None] - lv[None, :]) ** 2, axis=1)
            j = -inv2
            np.fill_diagonal(j, diag)
        return j

    f = _bae_residual(z, lv, wt, nu)
    fn = np.max(np.abs(f))
    polish = 0
    for _ in range(80):
        if fn < BETHE_TOL:
            # a few extra steps drive the residual to roundoff
            polish += 1
            if polish > 3 or fn == 0.0:
                break
        jc = jac(z)
        jr = np.block([[jc.real, -jc.imag], [jc.imag, jc.real]])
        rhs = np.concatenate([f.real, f.imag])
        try:
            step = np.linalg.solve(jr, -rhs)
        except np.linalg.LinAlgError:
            return None
        dzc = step[:n] + 1j * step[n:]
        lam = 1.0
        improved = False
        for _ in range(25):
            z_new = z + lam * dzc
            if np.min(np.abs(z_new[:, None] - lv[None, :])) < POLE_TOL:
                lam *= 0.5
                continue
            f_new = _bae_residual(z_new, lv, wt, nu)
            fn_new = np.max(np.abs(f_new))
            if fn_new < fn or fn_new < BETHE_TOL:
                z, f, fn = z_new, f_new, fn_new
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    if fn >= BETHE_TOL:
        return None
    # Snap conjugate-pair dust onto the real axis.
    scale = max(1.0, np.max(np.abs(z)))
    z = np.where(np.abs(z.imag) < 1e-12 * scale, z.real + 0j, z)
    return z


def _is_conjugate_closed(z: np.ndarray) -> bool:
    tol = 1e-7 * (max(1.0, np.max(np.abs(z))) if len(z) else 1.0)
    pool = list(z)
    for zi in z:
        if abs(zi.imag) < tol:
            continue
        if not any(abs(np.conj(zi) - zj) < tol for zj in pool):
            return False
    return True


# ---------------------------------------------------------------------------
# Lambda variables, the linear system, and the derivative hierarchy
# ---------------------------------------------------------------------------

def lambda_linear_solve(
    Z1: float, Z2: float, n: int, kappa: float, nu: float
) -> tuple[float, float, float]:
    """Closed-form solution of the linear system for (Lambda_1,2,3).

    Valid for n >= 2 and kappa^2 != nu^2; n = 1 carries a vanishing
    Lambda_1 coefficient and is served by the closed-form root instead.
    """
    if n < 2:
        raise SingularSystem("Lambda_2 closed form carries an (n-1) denominator; n >= 2 required")
    if abs(kappa * kappa - nu * nu) < 1e-14 * max(1.0, kappa * kappa, nu * nu):
        raise SingularSystem("kappa^2 = nu^2: degenerate two-step case")
    # Solved from the moment system; lambda_1 carries the (n-1) denominator
    # (its coefficient d_1 = n-1 drops out of the system at n = 1).
    l1 = (n * n * (nu - kappa) - 2 * kappa * nu ** 2 * n
          + Z1 * (-2 * kappa * nu + 2 * nu ** 2 + 2) + 2 * nu * Z2) / (4 * nu ** 2 * (n - 1) * (nu - kappa))
    l2 = (-n * n * (kappa + nu) + 2 * nu * n * (kappa * nu - 1)
          - 2 * Z1 * (kappa * nu + nu * nu - 1) + 2 * nu * Z2) / (4 * n * nu ** 2 * (kappa + nu))
    l3 = (kappa * n - 2 * nu ** 3 * n - nu * n + 2 * Z1 + 2 * nu * Z2) / (2 * kappa ** 2 * nu - 2 * nu ** 3)
    return (l1, l2, l3)


@lru_cache(maxsize=8)  # branch_Z's closed system uses two plans (j = 0, 1)
def _closure_plan(
    j: int, levels: tuple[float, ...], degeneracies: tuple[int, ...], nu: float
) -> tuple[tuple, int | None]:
    """The Lambda-independent part of `_hierarchy_closure`, order by order.

    The closure's values are x = (Lambda_i - Lambda_j for each other level
    i, then Lambda_j^(0), Lambda_j^(1), ...). Order l holds
    - (C(l, k), index of Lambda_j^(k), index of Lambda_j^(l-k)), k = 0..l;
    - per other level i, (-l! d_i, index of Lambda_i - Lambda_j,
      (2nu)^(l+1) (e_i - e_j)^(l+1)), then for m = 1..l (l! d_i, index of
      Lambda_j^(l-m+1), (2nu)^m (l-m+1)! (e_i - e_j)^m);
    - 1 - d_j/(l+1), the coefficient of Lambda_j^(l+1).
    Every denominator is formed by the same float operations as in a
    term-by-term evaluation. A power that overflows ends the plan at its
    order, with the terms of the levels completed before it; the second
    item is that order (None when all d_j orders are complete).
    """
    d_j = degeneracies[j]
    others = [(e_i - levels[j], d_i)
              for i, (e_i, d_i) in enumerate(zip(levels, degeneracies)) if i != j]
    at = len(others)  # index of Lambda_j^(0) in x
    two_nu = 2 * nu
    tn, fact, binom = [1.0], [1], [1]  # (2nu)^m, m!, C(l, 0..l)
    deps = [[1.0] for _ in others]  # (e_i - e_j)^m per other level
    orders, overflow = [], None
    for l in range(d_j):
        quotients = []
        try:
            tn.append(two_nu ** (l + 1))
            for i, ((de, d_i), dep) in enumerate(zip(others, deps)):
                dep.append(de ** (l + 1))
                fd = fact[l] * d_i
                quotients.append((-fd, i, tn[l + 1] * dep[l + 1]))
                quotients += [(fd, at + l - m + 1, tn[m] * fact[l - m + 1] * dep[m])
                              for m in range(1, l + 1)]
        except OverflowError:
            overflow = l
        products = tuple((binom[k], at + k, at + l - k) for k in range(l + 1))
        orders.append((products, tuple(quotients), 1.0 - d_j / (l + 1)))
        if overflow is not None:
            break
        fact.append(fact[l] * (l + 1))
        binom = [1] + [binom[k - 1] + binom[k] for k in range(1, l + 1)] + [1]
    return tuple(orders), overflow


def _hierarchy_closure(
    j: int,
    lam: Sequence[float],
    levels: Sequence[float],
    degeneracies: Sequence[int],
    nu: float,
) -> float:
    """Solve the Lambda_j derivative chain; return the terminal residual.

    For degeneracy d_j the chain E_j^(0..d_j-2) determines
    Lambda_j^(1..d_j-1); E_j^(d_j-1) has a vanishing leading coefficient and
    its value is the scalar exceptional condition.

    Order l sums the additive terms of the l-th derivative equation E_j^(l)
    with Lambda_j^(l+1) = 0; the term of that unknown is an exact zero, which
    math.fsum ignores. Everything but Lambda comes from `_closure_plan`,
    cached per (j, levels, degeneracies, nu) with levels and nu as floats:
    the closed system behind `branch_Z(extra_starts=...)` evaluates the same
    two chains at tens of thousands of Lambda. Each term is then formed as
    C(l, k) * Lambda_j^(k) * Lambda_j^(l-k) or c * x / den, the same float as
    in the term-by-term reference `hierarchy_terms` of the tests' oracles,
    and math.fsum rounds the exact sum of the terms, so the closure is
    bit-identical to that reference's chain. The terms keep its order, so a
    ZeroDivisionError (coincident levels) or an OverflowError (from a power,
    or from fsum) is raised where the reference raises it.
    """
    d_j = degeneracies[j]
    # tuple() of a list allocates the key at its size; tuple(map(...)) would
    # shrink a 10-slot tuple on every call, and those blocks pile up in the
    # free list of 3-tuples (0.12 MB over one branch_Z cloud)
    key = tuple([float(e) for e in levels])
    orders, overflow = _closure_plan(j, key, tuple(degeneracies), float(nu))
    lam_j = lam[j]
    x = [lam[i] - lam_j for i in range(len(levels)) if i != j]
    x.append(lam_j)  # then Lambda_j^(1..l), one per order
    for l, (products, quotients, coeff) in enumerate(orders):
        terms = [-x[-1]]
        terms += [b * x[p] * x[q] for b, p, q in products]
        terms += [c * x[s] / den for c, s, den in quotients]
        if l == overflow:
            raise OverflowError(f"a power of order {l + 1} in the Lambda_j chain overflows")
        rest = math.fsum(terms)
        if l == d_j - 1:
            return rest
        x.append(-rest / coeff)
    raise AssertionError("unreachable: d_j >= 1 always terminates the chain")


# ---------------------------------------------------------------------------
# The exceptional condition F and its special cases
# ---------------------------------------------------------------------------

def lambda_plus_of(kappa: float, nu: float, delta: float) -> float:
    """lambda+ from (kappa, nu, delta) via lambda+^2 - lambda-^2 = nu^4."""
    return math.hypot(delta * nu / kappa, nu * nu)


def z1z2_from_conditions(
    n: int, kappa: float, nu: float, delta: float
) -> tuple[float, float]:
    """(Z1, Z2) imposed by the two integer-energy conditions at eps = n."""
    lp = lambda_plus_of(kappa, nu, delta)
    d2 = delta * delta
    z1 = (lp * lp - (2 * n + 1 - kappa / nu) * lp
          - (d2 + nu * (nu - kappa) + nu ** 4)) / (2 * nu)
    z2 = (-lp * lp + (2 * n + 1 - kappa / nu + kappa * kappa - nu * nu) * lp
          + (d2 + nu * (nu - kappa) + kappa * kappa * nu * nu
             + 2 * n * nu * nu * (nu * nu + 1))) / (2 * nu ** 2)
    return z1, z2


def condition_residuals(
    Z1: float, Z2: float, n: int, kappa: float, nu: float, delta: float
) -> tuple[float, float]:
    """Residuals of the two integer-energy conditions for given (Z1, Z2)."""
    z1c, z2c = z1z2_from_conditions(n, kappa, nu, delta)
    return 2 * nu * (Z1 - z1c), 2 * nu * nu * (Z2 - z2c)


def closed_form_roots_n1(kappa: float, nu: float) -> tuple[float, float]:
    """The two analytic n=1 rapidities z_{1,+-}."""
    disc = math.sqrt(nu * nu * (kappa + nu) ** 2 + 1)
    base = kappa * nu - nu * nu - 1
    return ((base + disc) / (2 * nu), (base - disc) / (2 * nu))


def exceptional_condition_n0(kappa: float, nu: float) -> float:
    """n = 0: both conditions collapse to kappa = nu (lambda- = delta)."""
    return kappa - nu


def exceptional_condition_n1(
    kappa: float, nu: float, delta: float, branch: int = 0
) -> float:
    """n = 1 condition residual with the closed-form rapidity of `branch`.

    Returns the first condition's residual; on the exceptional surface the
    second follows automatically (they are dependent modulo the Bethe
    equations), but a zero of the first alone need not be exceptional.
    """
    z1 = closed_form_roots_n1(kappa, nu)[branch]
    r_a, _ = condition_residuals(z1, z1 * z1, 1, kappa, nu, delta)
    return r_a


def exceptional_condition(n: int, kappa: float, nu: float, delta: float) -> float:
    """Scalar residual F whose zeros locate exceptional points at eps = n >= 2.

    Pipeline: (Z1, Z2) from the integer-energy conditions, (Lambda_1,2,3)
    from the linear system, then the Lambda_1 derivative chain; F is the
    terminal hierarchy equation.
    """
    if n <= 1:
        raise Degenerate("n = 0 and n = 1 have dedicated closed forms")
    if nu <= 0:
        raise ValueError("nu must be positive")
    z1, z2 = z1z2_from_conditions(n, kappa, nu, delta)
    lam = lambda_linear_solve(z1, z2, n, kappa, nu)
    levels = (nu, -nu, kappa)
    degeneracies = (n - 1, n, 1)
    return _hierarchy_closure(0, lam, levels, degeneracies, nu)


# ---------------------------------------------------------------------------
# The Heine-Stieltjes operator: chi as a null vector
# ---------------------------------------------------------------------------

def _hs_operator(
    levels: Sequence[float], strengths: Sequence[float], nu: float,
    v: Sequence[float], n: int,
) -> list[list[float]]:
    """Rows of chi -> A chi'' - B chi' - V chi on the monomials z^0..z^n.

    A = prod_s (z - e_s), B = A (sum_s w_s/(z - e_s) + 2 nu) and v holds the
    ascending coefficients of V. A monic chi is a null vector exactly when
    its roots solve sum_{j!=i} 2/(z_j - z_i) + sum_s w_s/(z_i - e_s) + 2 nu
    = 0. Row k + d of column k holds k(k-1) a_{d+2} - k b_{d+1} - v_d, for
    d = -2 .. 2 and rows of degree 0 .. n + deg A - 1; the top row vanishes
    when V has degree deg A - 1 and leading coefficient -2 nu n, as at both
    callers.
    """
    a = [1.0]
    for e in levels:  # a <- (z - e) a
        a.insert(0, 0.0)
        for i in range(len(a) - 1):
            a[i] -= e * a[i + 1]
    m = len(a)
    b = [2 * nu * x for x in a]
    for e, w in zip(levels, strengths):
        q = 0.0  # A / (z - e) by synthetic division, top coefficient first
        for i in range(m - 1, 0, -1):
            q = a[i] + e * q
            b[i - 1] += w * q
    # a_{d+2}, b_{d+1} and v_d at index d + 2
    a5 = a + [0.0] * (5 - m)
    b5 = [0.0] + b + [0.0] * (4 - m)
    v5 = [0.0, 0.0] + list(v) + [0.0] * (3 - len(v))
    rows = n + m - 1
    op = [[0.0] * (n + 1) for _ in range(rows)]
    for k in range(n + 1):
        for j in range(max(0, 2 - k), min(5, rows + 2 - k)):
            op[k + j - 2][k] = k * (k - 1) * a5[j] - k * b5[j] - v5[j]
    return op


def _exceptional_operator(n: int, r: ReducedParams) -> list[list[float]]:
    """`_hs_operator` at eps = n: levels (nu, -nu, kappa), strengths
    (n-1, n, 1) and V = -D2 (`_d_coefficients`); n + 3 rows."""
    d0, d1, d2 = _d_coefficients(r, float(n))
    return _hs_operator((r.nu, -r.nu, r.kappa), (n - 1.0, float(n), 1.0), r.nu,
                        (-d0, -d1, -d2), n)


def _branch_operator(n: int, kappa: float, nu: float, Z1: float, Z2: float) -> list[list[float]]:
    """`_hs_operator` at fixed (n, kappa, nu), n >= 2: levels (nu, -nu, kappa),
    strengths (n-1, n, 1) and V = v0 + v1 z - 2 nu n z^2. The top coefficients
    of chi are 1, -Z1 and (Z1^2 - Z2)/2; v1 and v0 are chosen so that the rows
    of degree n + 1 and n vanish on them, and the top row is identically 0."""
    levels, strengths = (nu, -nu, kappa), (n - 1.0, float(n), 1.0)
    v2 = -2 * nu * n
    op = _hs_operator(levels, strengths, nu, (0.0, 0.0, v2), n)
    c1, c2 = -Z1, (Z1 * Z1 - Z2) / 2
    v1 = op[n + 1][n] + op[n + 1][n - 1] * c1
    v0 = op[n][n] + op[n][n - 1] * c1 + op[n][n - 2] * c2 - v1 * c1
    return _hs_operator(levels, strengths, nu, (v0, v1, v2), n)


def _has_null_vector(n: int, r: ReducedParams) -> bool:
    """True when the exceptional operator, top row dropped, has a null vector:
    sigma_min <= NULL_TOL max(sigma_max, `_d_scale`). The scale term serves
    n = 0, whose single column (d0, d1) vanishes at the point."""
    s = np.linalg.svd(np.array(_exceptional_operator(n, r)[:-1]), compute_uv=False)
    return bool(s[-1] <= NULL_TOL * max(s[0], _d_scale(r, float(n))))


def _null_vector(op: list[list[float]]) -> np.ndarray:
    """The null vector chi of op, top row dropped: ascending coefficients,
    unit norm."""
    return np.linalg.svd(np.array(op[:-1]))[2][-1]


def _pole_collapsed(chi: np.ndarray, levels: Sequence[float]) -> bool:
    """True when chi has a double root on a level: chi and chi' both vanish
    there to COLLAPSE_TOL of the sum of the magnitudes of their terms. These
    are the polynomial solutions the exponents at the poles allow (a double
    root at kappa, or (z - nu)^n), never a Bethe branch."""
    def vanishes(c: np.ndarray, zk: np.ndarray) -> bool:
        return bool(abs(c @ zk) <= COLLAPSE_TOL * (np.abs(c) @ np.abs(zk)))

    k = np.arange(len(chi))
    dchi = k[1:] * chi[1:]
    return any(vanishes(chi, e ** k) and vanishes(dchi, e ** k[:-1]) for e in levels)


def _chi_solution(
    chi: np.ndarray, levels: Sequence[float], strengths: Sequence[float], nu: float,
) -> BetheSolution | None:
    """The roots of chi (`_null_vector`), polished by Newton on the Bethe
    equations; None if Newton does not converge."""
    z = _newton_bae(np.roots(chi[::-1]), levels, strengths, nu)
    if z is None:
        return None
    res = _bae_residual(z, levels, strengths, nu)
    return BetheSolution(len(z), z, float(np.sum(z).real), float(np.sum(z ** 2).real),
                         float(np.max(np.abs(res), initial=0.0)))


def _recover_solution(n: int, r: ReducedParams) -> BetheSolution | None:
    """Rapidities at an exceptional point at eps = n, or None."""
    return _chi_solution(_null_vector(_exceptional_operator(n, r)), (r.nu, -r.nu, r.kappa),
                         (n - 1.0, float(n), 1.0), r.nu)


# ---------------------------------------------------------------------------
# Locating exceptional points along one-parameter scans
# ---------------------------------------------------------------------------

_FREE_PARAMS = ("omega", "omega0", "g1", "g2")


def _params_with(fixed: dict, free: str, value: float) -> ModelParams:
    kw = dict(fixed)
    kw[free] = value
    return ModelParams(**kw)


def _fock_gap_at(p: ModelParams, n: int, n_max: int) -> tuple[float, float]:
    """(|eps_even - eps_odd|, their midpoint) for the level of each parity
    chain nearest eps = n, each found by bisection in the window
    (n - 1/2, n + 1/2]; (inf, nan) when a chain has no level there."""
    lam_p = reduce(p).lambda_plus
    window = ((n - 0.5 - lam_p) * p.omega, (n + 0.5 - lam_p) * p.omega)
    nearest = []
    for d, e in fock._parity_chains(p, n_max):
        eps = eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                               select_range=window) / p.omega + lam_p
        if len(eps) == 0:
            return math.inf, math.nan
        nearest.append(eps[np.argmin(np.abs(eps - n))])
    even, odd = nearest
    return float(abs(even - odd)), float(0.5 * (even + odd))


def _verify_point(
    n: int,
    p: ModelParams,
    r: ReducedParams,
    sol: BetheSolution | None,
    n_max: int,
    recovered: bool = True,
) -> ExceptionalPoint:
    """Fock check of a candidate at eps = n: the even and odd levels nearest
    n must be degenerate within GAP_TOL at an integer within INT_TOL. A
    candidate whose rapidities were not recovered stays unverified."""
    gap, eps_at = _fock_gap_at(p, n, n_max)
    msgs = [] if recovered else ["rapidity recovery failed"]
    if not (gap < fock.GAP_TOL * p.omega and abs(eps_at - n) < fock.INT_TOL):
        msgs.append(f"fock gap {gap:.2e} at eps {eps_at:.6f}")
    return ExceptionalPoint(
        n=n, params=p, reduced=r, solution=sol, verified_gap=gap,
        epsilon_at_crossing=eps_at, verified=not msgs, message="; ".join(msgs),
    )


def _in_domain(r: ReducedParams) -> bool:
    """Where `find_exceptional` keeps a point: nu > 0 and lambda- off the
    Rabi line by more than 1e-6 lambda+."""
    return r.nu > 0 and abs(r.lambda_minus) >= 1e-6 * r.lambda_plus


def _real_eigenvalues(
    sample: Callable[[float], np.ndarray | None], degree: int, lo: float, hi: float,
) -> np.ndarray:
    """Every real x in [lo, hi] where the matrix polynomial sample(x), of
    the given degree in x, loses rank, ascending.

    sample is taken at an even number (degree + 1 or + 2) of Chebyshev
    nodes, so never at the ends or the midpoint of the interval, and its
    monomial coefficients in t = (2x - lo - hi) / (hi - lo) are fitted with
    its rows equilibrated. An (m + 1) x m polynomial is made square by one
    fixed m x (m + 1) Gaussian matrix, drawn from a constant seed
    (Hochstenbach, Mehl and Plestenjak, SIMAX 40, 2019); it adds rank-loss
    points of its own for the caller to reject. The candidates are the real
    eigenvalues, in [-1, 1], of the first companion pencil (LAPACK gives
    those of a real pencil a zero imaginary part), each refined by one
    Newton step on the exact sample: near omega -> 0 a fitted eigenvalue
    was found 6e-9 off (relative), too far for `_has_null_vector`; the step
    leaves it below 1e-13. Where sample(x) is None (the operator is
    undefined there) a candidate is kept unrefined.
    """
    k = degree + 2 - degree % 2
    t = np.cos(np.pi * (np.arange(k) + 0.5) / k)

    def x_of(tk):
        return lo + (hi - lo) * (tk + 1) / 2

    raw = np.array([sample(x_of(tk)) for tk in t])
    rows = np.max(np.abs(raw), axis=(0, 2))
    rows[rows == 0] = 1.0  # a row that is 0 all along (nu = 0 on a JC line) stays 0
    m = raw.shape[2]
    proj = np.random.default_rng(13077876).standard_normal((m, m + 1)) \
        if raw.shape[1] > m else np.eye(m)

    def square(v: np.ndarray) -> np.ndarray:
        return proj @ (v / rows[:, None])

    c = np.polynomial.polynomial.polyfit(t, square(raw).reshape(k, -1), degree)
    c = c.reshape(degree + 1, m, m)
    cn = c / np.max(np.abs(c))
    a = np.eye(degree * m, k=-m)
    a[:m] = -np.hstack(cn[-2::-1])
    b = np.eye(degree * m)
    b[:m, :m] = cn[-1]
    alpha, beta = eig(a, b, right=False, homogeneous_eigvals=True)
    real = (alpha.imag == 0) & (np.abs(alpha.real) <= np.abs(beta)) & (beta != 0)
    dc = np.polynomial.polynomial.polyder(c)
    roots = []
    for tk in (alpha[real] / beta[real]).real:
        at = sample(x_of(tk))
        if at is not None:
            # sigma_min of the sample over its rate along the singular
            # vectors, taken from the fitted derivative
            u, sv, vt = np.linalg.svd(square(at))
            tk -= sv[-1] / (u[:, -1] @ np.polynomial.polynomial.polyval(tk, dc) @ vt[-1])
        if abs(tk) <= 1:
            roots.append(x_of(tk))
    return np.sort(roots)


def find_exceptional(
    n: int,
    fixed: dict[str, float],
    free: str,
    free_range: tuple[float, float],
    n_max: int = fock.DEFAULT_N_MAX,
) -> list[ExceptionalPoint]:
    """Exceptional points at eps = n along one model parameter.

    `fixed` holds three of {omega, omega0, g1, g2}; `free` names the fourth,
    searched over free_range, clipped to g >= 0 and omega >= 0. The
    exceptional operator (top row dropped) times lambda- omega^6 =
    (g1^2 - g2^2) omega^4 / 2 is a polynomial matrix in x = omega0 (degree
    3), omega (degree 4; 1/omega would make a range through omega = 0
    unbounded) or sqrt(g) (degree 12); its real rank-loss points
    (`_real_eigenvalues`) off the Rabi line with nu > 0 (`_in_domain`)
    where the operator has a null vector (`_has_null_vector`, which rejects
    those of the projection) are the exceptional points. Each is returned
    with its rapidities from the null vector, verified against the Fock gap
    at eps = n, or unverified with "rapidity recovery failed" if Newton
    does not converge. The Rabi line and its immediate neighbourhood are
    left to `rabi_exceptional`.
    """
    if free not in _FREE_PARAMS or set(fixed) != set(_FREE_PARAMS) - {free}:
        raise ValueError(f"free must be one of {_FREE_PARAMS} with the rest fixed")
    lo, hi = sorted(free_range)
    if free != "omega0":
        lo = max(lo, 0.0)
    if hi <= lo or (free in ("omega", "omega0")
                    and reduce(_params_with(fixed, free, hi)).rabi_limit):
        return []  # empty, or all on the Rabi line, where kappa is undefined
    root = free in ("g1", "g2")

    def params(x: float) -> ModelParams:
        return _params_with(fixed, free, float(x * x if root else x))

    def sample(x: float) -> np.ndarray | None:
        # lambda- clears kappa = delta nu / lambda- and delta lambda+ / lambda-
        # in D2; it is constant on an omega0 line, and at omega0 = 0 there is
        # nothing to clear (it would only add a rank-loss point on the Rabi line)
        p = params(x)
        r = reduce(p)
        if r.kappa is None:
            return None  # on the Rabi line; `_in_domain` rejects the candidate
        lam = p.g1 ** 2 - p.g2 ** 2 if fixed.get("omega0") else 1.0
        return lam * p.omega ** 4 * np.array(_exceptional_operator(n, r)[:-1])

    degree = 12 if root else 4 if free == "omega" else 3
    points: list[ExceptionalPoint] = []
    for x in _real_eigenvalues(sample, degree, *(map(math.sqrt, (lo, hi)) if root else (lo, hi))):
        p = params(x)
        r = reduce(p)
        if _in_domain(r) and _has_null_vector(n, r):
            sol = _recover_solution(n, r)
            points.append(_verify_point(n, p, r, sol, n_max, recovered=sol is not None))
    return points


# ---------------------------------------------------------------------------
# Branch tracking in nu and the nu -> 0 asymptotics
# ---------------------------------------------------------------------------

def asymptotic_Z(n: int, kappa: float, nu: float) -> tuple[float, float]:
    """Ground-branch (Z1, Z2) in the nu -> 0 limit.

    All rapidities diverge like Laguerre-polynomial roots over 2 nu; the
    root sums of L_n^(-1-2n) give the closed forms.
    """
    t = kappa / nu - 1.0
    z1 = -n * (n + 1) / (2 * nu) + 0.5 * nu * t
    z2 = (n * (n + 1) / (2 * nu * nu) - 0.5 * (n + 1) * t
          + nu * nu * t * t / (4 * n))
    return z1, z2


def _dedupe_key(z: np.ndarray) -> tuple:
    return tuple(sorted((round(c.real, 6), round(abs(c.imag), 6)) for c in z))


def closed_system_terminals(
    n: int, kappa: float, nu: float, Z1: float, Z2: float
) -> tuple[float, float]:
    """Terminal residuals (T1, T2) of the closed Lambda system at (Z1, Z2).

    The linear system fixes (Lambda_1,2,3) from (Z1, Z2); the level-1 and
    level-2 derivative chains then terminate in one scalar constraint each.
    Common zeros are the Bethe branches at fixed (n, kappa, nu).
    """
    lam = lambda_linear_solve(Z1, Z2, n, kappa, nu)
    levels = (nu, -nu, kappa)
    deg = (n - 1, n, 1)
    t1 = _hierarchy_closure(0, lam, levels, deg, nu)
    t2 = _hierarchy_closure(1, lam, levels, deg, nu)
    return t1, t2


def _newton_2d(
    func: Callable[[float, float], tuple[float, float]],
    x0: float,
    y0: float,
) -> tuple[float, float] | None:
    """Damped Newton with forward-difference Jacobian for 2x2 systems.

    At most 60 steps; converged when a step falls below 1e-12 relative.
    """
    x, y = float(x0), float(y0)
    try:
        fx, fy = func(x, y)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    fn = math.hypot(fx, fy)
    for _ in range(60):
        if not math.isfinite(fn):
            return None
        hx = 1e-7 * max(1.0, abs(x))
        hy = 1e-7 * max(1.0, abs(y))
        try:
            fxx, fyx = func(x + hx, y)
            fxy, fyy = func(x, y + hy)
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
        j = np.array([[(fxx - fx) / hx, (fxy - fx) / hy],
                      [(fyx - fy) / hx, (fyy - fy) / hy]])
        try:
            dx, dy = np.linalg.solve(j, [-fx, -fy])
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        improved = False
        for _ in range(30):
            xn, yn = x + lam * dx, y + lam * dy
            try:
                gx, gy = func(xn, yn)
            except (ValueError, ZeroDivisionError, OverflowError):
                lam *= 0.5
                continue
            gn = math.hypot(gx, gy)
            if gn < fn:
                x, y, fx, fy, fn = xn, yn, gx, gy, gn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        # Converged when the step stalls at roundoff scale.
        if abs(dx) < 1e-12 * max(1.0, abs(x)) and abs(dy) < 1e-12 * max(1.0, abs(y)):
            return x, y
    return (x, y) if fn < 1e-6 else None


def _z_start_candidates(
    n: int, kappa: float, nu: float, extra: int, seed: int
) -> list[tuple[float, float]]:
    """(Z1, Z2) seeds of the closed-system cross-check: a coarse random cloud."""
    rng = np.random.default_rng(seed)
    s1 = n * (n + 1) / (2 * nu)
    return [(rng.uniform(-1.2 * s1, 0.5 * s1),
             rng.uniform(-0.5 * s1, 1.2 * s1 ** 2 / max(1, n))) for _ in range(extra)]


def _branch_eigenvalues(n: int, kappa: float, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Every finite (v0, v1) at which `_hs_operator` with levels (nu, -nu, kappa),
    strengths (n-1, n, 1) and V = v0 + v1 z - 2 nu n z^2 has a null vector.

    Top row dropped, the operator is A0 + v0 A1 + v1 A2, (n+2) x (n+1), with
    A1 = -I the degree embedding and A2 = -(shift by one degree). A null
    vector c makes x = c (x) c solve Delta1 x = v0 Delta0 x and
    Delta2 x = v1 Delta0 x, with Atkinson's Delta0 = A1(x)A2 - A2(x)A1,
    Delta1 = A2(x)A0 - A0(x)A2 and Delta2 = A0(x)A1 - A1(x)A0. They map
    Sym^2(R^{n+1}) into the antisymmetric tensors of R^{n+2}, both of
    dimension C(n+2, 2), so the v0 pencil is square; v1 is the Rayleigh
    quotient of Delta2 x against Delta0 x.
    """
    a0 = np.array(_hs_operator((nu, -nu, kappa), (n - 1.0, float(n), 1.0), nu,
                               (0.0, 0.0, -2 * nu * n), n)[:-1])
    a1, a2 = -np.eye(n + 2, n + 1), -np.eye(n + 2, n + 1, -1)
    i, j = np.triu_indices(n + 1)
    sym = np.zeros(((n + 1) ** 2, len(i)))  # columns e_i (x) e_j + e_j (x) e_i
    sym[i * (n + 1) + j, np.arange(len(i))] = 1.0
    sym[j * (n + 1) + i, np.arange(len(i))] = 1.0
    a, b = np.triu_indices(n + 2, 1)  # the (a, b), a < b, entries of an antisymmetric tensor

    def delta(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return (np.kron(p, q) - np.kron(q, p))[a * (n + 2) + b] @ sym

    d0 = delta(a1, a2)
    v0, x = eig(delta(a2, a0), d0)
    finite = np.isfinite(v0)
    u, w = d0 @ x[:, finite], delta(a0, a1) @ x[:, finite]
    return v0[finite], np.sum(u.conj() * w, axis=0) / np.sum(u.conj() * u, axis=0)


def branch_Z(
    n: int,
    kappa: float,
    nu: float,
    extra_starts: int = 0,
    seed: int = 7,
) -> list[BetheSolution]:
    """All distinct Bethe-root branches (Z1, Z2) at fixed (n, kappa, nu).

    Every finite eigenvalue (v0, v1) of `_branch_eigenvalues` fixes
    V = v0 + v1 z - 2 nu n z^2. A null vector of that `_hs_operator` with a
    double root on a pole (`_pole_collapsed`: C(n, 2) + 1 of the
    eigenvalues) is skipped; the roots of every other one, polished by
    Newton on the Bethe equations, are kept when they solve them, with no
    rapidity on a pole and closed under conjugation. The eigenproblem gives
    every branch, deterministically (2n of them; in the monomial basis a few
    can be lost from n ~ 10 at small nu).

    The paper's closed Lambda system is an opt-in cross-check: with
    extra_starts > 0 (and n >= 2) multistart Newton in the (Z1, Z2) plane,
    from a random cloud drawn with `seed`, locates branches whose operator
    is `_branch_operator`, recovered and checked the same way. Each start
    costs one damped Newton solve of up to 60 steps with a forward-difference
    Jacobian: about 85 evaluations of `closed_system_terminals` (two
    hierarchy closures each) and 1.8 ms on average over the 510 starts at
    n = 2..5 of the branch-solve benchmark (2-CPU Xeon, Python 3.11), against
    2-6 ms for the whole call without starts.
    """
    if n < 1:
        raise ValueError("branch_Z needs n >= 1")
    levels = (nu, -nu, kappa)
    strengths = (n - 1.0, float(n), 1.0)
    ops = [_hs_operator(levels, strengths, nu, (v0, v1, -2 * nu * n), n)
           for v0, v1 in zip(*_branch_eigenvalues(n, kappa, nu))]

    def terminals(z1: float, z2: float) -> tuple[float, float]:
        return closed_system_terminals(n, kappa, nu, z1, z2)

    # Many starts converge to the same (Z1, Z2); its rapidities are recovered
    # once, whatever the outcome (a pole-collapsed point fails every time).
    tried: set[tuple[float, float]] = set()
    for z1_0, z2_0 in _z_start_candidates(n, kappa, nu, extra_starts, seed):
        sol2d = _newton_2d(terminals, z1_0, z2_0)
        if sol2d is None:
            continue
        z_key = (round(sol2d[0], 6), round(sol2d[1], 6))
        if z_key not in tried:
            tried.add(z_key)
            ops.append(_branch_operator(n, kappa, nu, *sol2d))
    found: dict[tuple, BetheSolution] = {}
    for op in ops:
        chi = _null_vector(op)
        if _pole_collapsed(chi, levels):
            continue
        sol = _chi_solution(chi, levels, strengths, nu)
        if sol is None:
            continue
        try:
            _check_poles(sol.roots, levels)
        except PoleCollision:
            continue
        if not _is_conjugate_closed(sol.roots):
            continue
        key = _dedupe_key(sol.roots)
        if key in found or sol.residual_max > BETHE_TOL * 10:
            continue
        found[key] = sol
    # Sorted by (Z1, Z2): the all-diverging (ground) branch, most negative Z1, first.
    ordered = sorted(found.values(), key=lambda s: (s.Z1, s.Z2))
    return [replace(s, branch_id="ground" if i == 0 else f"b{i}")
            for i, s in enumerate(ordered)]


# ---------------------------------------------------------------------------
# Rabi limit g1 = g2
# ---------------------------------------------------------------------------

def rabi_condition(n: int, nu: float, delta: float) -> float:
    """Scalar Juddian condition on the Rabi line at eps = n + 1.

    The kappa level is absent; the polynomial degree is n with pole
    strengths (n, n+1) and the single linear condition
    2 nu Z1 = 1 - delta^2 - 2 nu^2 (n + 2).
    """
    if n == 0:
        return 1.0 - delta * delta - 4 * nu * nu
    _, lam = _rabi_line_lambda(n, nu, delta)
    return _hierarchy_closure(0, lam, (nu, -nu), (n, n + 1), nu)


def _rabi_line_z1(n: int, nu: float, delta: float) -> float:
    """Z1 fixed by the Rabi-line condition."""
    return (1.0 - delta * delta - 2 * nu * nu * (n + 2)) / (2 * nu)


def _rabi_line_lambda(n: int, nu: float, delta: float) -> tuple[float, tuple[float, float]]:
    """Z1 and (Lambda_1, Lambda_2) fixed by the Rabi-line condition, n >= 1."""
    Z1 = _rabi_line_z1(n, nu, delta)
    l1 = (2 * nu * Z1 + n * (n + 2 + 2 * nu * nu)) / (4 * nu ** 2 * n)
    l2 = -(2 * nu * Z1 + n * (n + 2 - 2 * nu * nu)) / (4 * nu ** 2 * (n + 1))
    return Z1, (l1, l2)


def _rabi_operator(n: int, nu: float, delta: float) -> list[list[float]]:
    """`_hs_operator` with levels (nu, -nu), strengths (n, n+1) and
    V = v0 - 2 nu n z, where the degree-n row and the Rabi-line Z1 give
    v0 = n(n-1) - (2n+1) n - 2 nu Z1; cubic in nu, n + 2 rows."""
    v0 = n * (n - 1) - (2 * n + 1) * n - 2 * nu * _rabi_line_z1(n, nu, delta)
    return _hs_operator((nu, -nu), (float(n), n + 1.0), nu, (v0, -2 * nu * n), n)


def _recover_rabi_solution(n: int, nu: float, delta: float) -> BetheSolution | None:
    """Rabi-line rapidities from the null vector of `_rabi_operator`."""
    return _chi_solution(_null_vector(_rabi_operator(n, nu, delta)), (nu, -nu),
                         (float(n), n + 1.0), nu)


def rabi_exceptional(
    n: int,
    omega: float,
    omega0: float,
    g_range: tuple[float, float],
    n_max: int = fock.DEFAULT_N_MAX,
) -> list[ExceptionalPoint]:
    """Juddian points on the Rabi line g1 = g2 = g, at eps = n + 1.

    They are the real rank-loss points g in g_range (from g = 1e-6 on) of
    `_rabi_operator` with its top row dropped, a square polynomial matrix
    of degree 3 in g (`_real_eigenvalues`). Every one is returned; one
    whose rapidities are not recovered is flagged unverified.
    """
    delta = omega0 / omega
    lo, hi = max(min(g_range), 1e-6), max(g_range)
    if hi <= lo:
        return []
    points: list[ExceptionalPoint] = []
    for g in _real_eigenvalues(lambda g: np.array(_rabi_operator(n, g / omega, delta)[:-1]),
                               3, lo, hi):
        g = float(g)
        p = ModelParams(omega, omega0, g, g)
        sol = _recover_rabi_solution(n, g / omega, delta)
        points.append(_verify_point(n + 1, p, reduce(p), sol, n_max,
                                    recovered=sol is not None))
    return points


# ---------------------------------------------------------------------------
# Exceptional eigenstates
# ---------------------------------------------------------------------------

def bargmann_doublet_polynomials(
    roots: np.ndarray, r: ReducedParams, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-component polynomials (P_plus, P_minus) of the exceptional state.

    The first Bargmann component is psi_1 = e^(-nu z) chi(z) with
    chi = prod (z - z_i); the second follows from the first-order ODE and
    stays polynomial because (z - kappa) divides its numerator exactly at an
    exceptional point. Transforming back to the physical spin basis gives

        f_plus  = sqrt(g1/g2) (psi_2 - psi_1),   f_minus = psi_1 + psi_2,

    returned as ascending coefficient arrays (both degree n) with the
    displacement e^(-nu z) factored out.
    """
    if r.rabi_limit:
        raise RabiLimit("Juddian point (lambda- = 0): its two-pole doublet form is not built")
    nu, kappa, lp, lm = r.nu, r.kappa, r.lambda_plus, r.lambda_minus
    e = n - lp
    chi = np.array([1.0])
    for z_i in roots:
        chi = np.convolve(chi, [-z_i, 1.0])
    chi = chi.real
    dchi = chi[1:] * np.arange(1, len(chi))
    # numerator ((lp + nu^2)/nu z + e - nu^2) chi - (z - nu) chi'
    num = np.zeros(len(chi) + 1)
    num[: len(chi)] += (e - nu * nu) * chi
    num[1: len(chi) + 1] += (lp + nu * nu) / nu * chi
    num[: len(dchi)] += nu * dchi
    num[1: len(dchi) + 1] -= dchi
    num *= nu / lm
    # divide by (z - kappa): synthetic division, ascending coefficients
    quot = np.zeros(len(num) - 1)
    carry = num[-1]
    for k in range(len(num) - 2, -1, -1):
        quot[k] = carry
        carry = num[k] + kappa * carry
    rem = carry
    scale = max(1.0, np.max(np.abs(num)))
    if abs(rem) > 1e-7 * scale:
        raise NotVerified(f"(z - kappa) does not divide psi_2 numerator (rem {rem:.2e})")
    g_ratio = math.sqrt(r.lambda_plus + r.lambda_minus) / math.sqrt(r.lambda_plus - r.lambda_minus)
    return math.sqrt(g_ratio) * (quot - chi), chi + quot


def eigenstate_at_exceptional(
    pt: ExceptionalPoint, n_max: int = fock.DEFAULT_N_MAX
) -> tuple[np.ndarray, np.ndarray]:
    """The degenerate doublet at a verified exceptional point, as truncated
    Fock x spin vectors (parity eigenstates, orthonormal).

    Built from the Bargmann solution: one member displaces by -nu with spin
    polynomials (P_plus, P_minus), the other is its parity image displacing
    by +nu. Generalized cat states are their normalized sum and difference.
    Raises RabiLimit at a Juddian point (g1 = g2, from `rabi_exceptional`),
    whose doublet needs the two-pole form, which is not built.
    """
    if not pt.verified:
        raise NotVerified(f"point not verified: {pt.message}")
    if pt.solution is None:
        raise NotVerified("no rapidity data on this point")
    r = pt.reduced
    n = pt.solution.n
    p_plus, p_minus = bargmann_doublet_polynomials(pt.solution.roots, r, n)
    coh = fock.coherent_state(-r.nu, n_max)
    u1 = np.empty(2 * (n_max + 1), dtype=complex)
    u1[0::2] = fock.apply_creation_polynomial(p_minus, coh)   # |m, ->
    u1[1::2] = fock.apply_creation_polynomial(p_plus, coh)    # |m, +>
    u1 /= np.linalg.norm(u1)
    # N_ex parity (-1)^(m + s) on |m, s> (s = 0, 1 for -, +)
    u2 = u1 * (-1.0) ** (np.arange(u1.size) // 2 + np.arange(u1.size) % 2)
    plus = u1 + u2
    minus = u1 - u2
    return plus / np.linalg.norm(plus), minus / np.linalg.norm(minus)
