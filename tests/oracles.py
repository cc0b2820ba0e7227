"""Shared independent oracles for the test suite."""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import eigh

from rabi_spectra import fock
from rabi_spectra.bethe import (RabiLimit, SingularSystem, _bae_residual, _check_poles,
                                _d_coefficients)
from rabi_spectra.core import ModelParams, ReducedParams, reduce


def laguerre_direct_sum(n: int, alpha: int, x: float) -> float:
    """L_n^a(x) = sum_i (-1)^i C(n+a, n-i) x^i / i!, exact rationals.

    Independent of the recurrence implementation; alpha any integer.
    """
    total = Fraction(0)
    xf = Fraction(x).limit_denominator(10 ** 12) if x != 0 else Fraction(0)
    for i in range(n + 1):
        binom = Fraction(1)
        for j in range(1, n - i + 1):
            binom *= Fraction(alpha + i + j, j)
        total += (-1) ** i * binom * xf ** i / math.factorial(i)
    return float(total)


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficients of the second-order Bargmann ODE.

    D2(z) = d0 + d1 z + d2 z^2 over the pole set rho = (nu, -nu, kappa) with
    exponent parameters nu_s = (1-eps, -eps, -1) and nu0 = -2 nu.
    """

    d0: float
    d1: float
    d2: float
    rho: tuple[float, float, float]
    nu_s: tuple[float, float, float]
    nu0: float


def ode_coefficients(r: ReducedParams, epsilon: float) -> OdeCoefficients:
    """D2 coefficients and pole data of the Bargmann ODE at shifted energy eps."""
    if r.rabi_limit or r.kappa is None:
        raise RabiLimit("ode_coefficients needs lambda- != 0; use the Rabi-limit path")
    d0, d1, d2 = _d_coefficients(r, epsilon)
    nu = r.nu
    return OdeCoefficients(
        d0=d0, d1=d1, d2=d2,
        rho=(nu, -nu, r.kappa),
        nu_s=(1 - epsilon, -epsilon, -1.0),
        nu0=-2 * nu,
    )


def residual_bae_rabi(roots: Sequence[complex], nu: float, epsilon: float) -> np.ndarray:
    """Rabi-line Bethe residuals: the kappa pole is absent."""
    z = np.asarray(roots, dtype=complex)
    if len(z) == 0:
        return np.zeros(0)
    levels = (nu, -nu)
    _check_poles(z, levels)
    return _bae_residual(z, levels, (epsilon - 1.0, epsilon), nu)


def lambda_linear_solve_n1(Z1: float, kappa: float, nu: float) -> tuple[float, float]:
    """(Lambda_2, Lambda_3) for n = 1, where Lambda_1 drops out (d_1 = 0).

    The first two moment equations form a 2x2 system; the third is then a
    consistency identity on Bethe roots.
    """
    if abs(kappa + nu) < 1e-14:
        raise SingularSystem("kappa = -nu")
    # Lambda_2 + Lambda_3 = 1;  2 nu (-nu Lambda_2 + kappa Lambda_3) = 2 + 2 nu Z1
    rhs = (2 + 2 * nu * Z1) / (2 * nu)
    l3 = (rhs + nu) / (kappa + nu)
    l2 = 1.0 - l3
    return l2, l3


def lambda_linear_matrix(
    n: int, kappa: float, nu: float
) -> tuple[np.ndarray, Callable[[float, float], np.ndarray]]:
    """The 3x3 linear system behind `bethe.lambda_linear_solve`.

    Returns (M, rhs(Z1, Z2)) such that M @ Lambda = rhs.
    """
    d = np.array([n - 1, n, 1], dtype=float)
    e = np.array([nu, -nu, kappa])
    m = np.vstack([d, 2 * nu * d * e, 2 * nu * d * e ** 2])

    def rhs(Z1: float, Z2: float) -> np.ndarray:
        return np.array([
            n,
            n * (n + 1) + 2 * nu * Z1,
            2 * Z1 + n * (kappa - nu) + 2 * nu * Z2,
        ])

    return m, rhs


@dataclass(frozen=True)
class LambdaState:
    """Lambda values and scaled derivatives of a root set (`lambda_from_roots`)."""

    lam: tuple[float, ...]
    derivatives: dict[int, list[float]]
    levels: tuple[float, ...]
    degeneracies: tuple[int, ...]


def lambda_scaled_derivative(
    roots: np.ndarray, eps_j: float, order: int, nu: float
) -> float:
    """Lambda_j^(l) = (-1)^l l!/(2nu)^(l+1) sum_k (eps_j - z_k)^-(l+1)."""
    z = np.asarray(roots, dtype=complex)
    s = np.sum(1.0 / (eps_j - z) ** (order + 1)) if len(z) else 0.0
    val = (-1) ** order * math.factorial(order) / (2 * nu) ** (order + 1) * s
    return float(np.real(val))


def lambda_from_roots(
    roots: Sequence[complex], r: ReducedParams, n: int
) -> LambdaState:
    """Lambda values and scaled derivatives evaluated directly from rapidities.

    Degeneracies follow the exceptional assignment d = (n-1, n, 1) at the
    levels (nu, -nu, kappa); derivatives are produced for every level with
    d_j > 1 up to order d_j - 1.
    """
    if r.kappa is None:
        raise RabiLimit("lambda_from_roots on the Rabi line")
    z = np.asarray(roots, dtype=complex)
    levels = (r.nu, -r.nu, r.kappa)
    degeneracies = (n - 1, n, 1)
    if len(z):
        _check_poles(z, levels)
    lam = tuple(lambda_scaled_derivative(z, e, 0, r.nu) for e in levels)
    derivs: dict[int, list[float]] = {}
    for j, d_j in enumerate(degeneracies):
        if d_j > 1:
            derivs[j] = [
                lambda_scaled_derivative(z, levels[j], l, r.nu)
                for l in range(1, d_j)
            ]
    return LambdaState(lam=lam, derivatives=derivs, levels=levels,
                       degeneracies=degeneracies)


def hierarchy_terms(
    j: int,
    l: int,
    lam: Sequence[float],
    derivs_j: Sequence[float],
    next_deriv: float,
    levels: Sequence[float],
    degeneracies: Sequence[float],
    nu: float,
) -> list[float]:
    """Additive terms of the l-th derivative equation E_j^(l).

    derivs_j holds Lambda_j^(1..l) (scaled convention); next_deriv supplies
    Lambda_j^(l+1), whose coefficient (1 - d_j/(l+1)) vanishes identically at
    l = d_j - 1 where the equation turns into a pure constraint. l = 0
    reproduces the quadratic equation. The term list lets callers form both
    the residual and its natural magnitude scale.
    """
    d_j = degeneracies[j]

    def lam_j(order: int) -> float:
        if order == 0:
            return lam[j]
        if order == l + 1:
            return next_deriv
        return derivs_j[order - 1]

    terms = [(1.0 - d_j / (l + 1)) * lam_j(l + 1), -lam_j(l)]
    for k in range(l + 1):
        terms.append(comb(l, k) * lam_j(k) * lam_j(l - k))
    fact_l = math.factorial(l)
    for i, (e_i, d_i) in enumerate(zip(levels, degeneracies)):
        if i == j:
            continue
        de = e_i - levels[j]
        terms.append(-fact_l * d_i * (lam[i] - lam[j])
                     / ((2 * nu) ** (l + 1) * de ** (l + 1)))
        for m in range(1, l + 1):
            terms.append(fact_l * d_i * lam_j(l - m + 1)
                         / ((2 * nu) ** m * math.factorial(l - m + 1) * de ** m))
    return terms


def hierarchy_residual(
    j: int,
    l: int,
    lam: Sequence[float],
    derivs_j: Sequence[float],
    next_deriv: float,
    levels: Sequence[float],
    degeneracies: Sequence[float],
    nu: float,
) -> float:
    """Residual of the l-th derivative equation E_j^(l); see hierarchy_terms."""
    return math.fsum(hierarchy_terms(j, l, lam, derivs_j, next_deriv,
                                     levels, degeneracies, nu))


def gap_order(p: int) -> int:
    """Power of g2 controlling the gap of a p-th order avoided crossing."""
    return p


def hierarchy_closure_chain(
    j: int,
    lam: Sequence[float],
    levels: Sequence[float],
    degeneracies: Sequence[int],
    nu: float,
) -> float:
    """Terminal residual of the Lambda_j derivative chain, order by order.

    The reference for `bethe._hierarchy_closure`: E_j^(l) = 0 is solved for
    Lambda_j^(l+1) through `hierarchy_residual` with that unknown set to 0,
    and E_j^(d_j-1) is returned.
    """
    d_j = degeneracies[j]
    derivs: list[float] = []
    for l in range(d_j):
        coeff = 1.0 - d_j / (l + 1)
        rest = hierarchy_residual(j, l, lam, derivs, 0.0, levels, degeneracies, nu)
        if l < d_j - 1:
            derivs.append(-rest / coeff)
        else:
            return rest
    raise AssertionError("unreachable: d_j >= 1 always terminates the chain")


def bae_residual_loop(
    roots: Sequence[complex], levels: Sequence[float], strengths: Sequence[float], nu: float
) -> np.ndarray:
    """Richardson residuals sum 2/(z_j-z_i) + sum_s w_s/(z_i-e_s) + 2nu, root by root.

    The reference for the vectorised `bethe._bae_residual`.
    """
    z = np.asarray(roots, dtype=complex)
    n = len(z)
    res = np.full(n, 2 * nu, dtype=complex)
    for i in range(n):
        for j in range(n):
            if j != i:
                res[i] += 2.0 / (z[j] - z[i])
        for e_s, w_s in zip(levels, strengths):
            res[i] += w_s / (z[i] - e_s)
    return res


def parity_crossings(
    params_at: Callable[[float], ModelParams], ts: np.ndarray, n_top: int, n_max: int = 120
) -> dict[int, list[float]]:
    """Exact crossings at eps = N <= n_top along a line, from dense parity blocks.

    The reference for `bethe.find_exceptional`. Levels of one parity never
    cross while g1 g2 != 0, so an exact crossing is a sign change of
    eps_even,i - eps_odd,j between neighbouring grid points. Its location is
    interpolated linearly and assigned to the nearest integer N; crossings
    more than 0.05 from an integer are not exact crossings of the model and
    go under key -1.
    """
    k = n_top + 12
    ev = np.empty((len(ts), k))
    od = np.empty((len(ts), k))
    for i, t in enumerate(ts):
        p = params_at(float(t))
        even, odd = fock.parity_blocks(fock.build(p, n_max))
        shift = reduce(p).lambda_plus
        ev[i] = eigh(even, eigvals_only=True, subset_by_index=(0, k - 1)) / p.omega + shift
        od[i] = eigh(odd, eigvals_only=True, subset_by_index=(0, k - 1)) / p.omega + shift
    d = ev[:, :, None] - od[:, None, :]
    out: dict[int, list[float]] = {}
    for c, i, j in zip(*np.nonzero(d[:-1] * d[1:] < 0)):
        w = d[c, i, j] / (d[c, i, j] - d[c + 1, i, j])
        eps = ev[c, i] + w * (ev[c + 1, i] - ev[c, i])
        n = int(round(eps))
        if eps > n_top + 0.5:
            continue
        key = n if abs(eps - n) < 0.05 and n >= 0 else -1
        out.setdefault(key, []).append(float(ts[c] + w * (ts[c + 1] - ts[c])))
    return {key: sorted(v) for key, v in out.items()}
