"""Shared independent oracles for the test suite."""

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from rabi_spectra.bethe import SingularSystem, hierarchy_residual


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
