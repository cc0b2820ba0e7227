"""Associated Laguerre polynomials via the three-term recurrence.

One audited implementation, used by the strong-coupling approximations
(integer alpha >= -1, x >= 0). `genlaguerre_coeffs` and `genlaguerre_roots`
(any alpha, negative integers included) serve no other module; they stay
public and tested, since the roots of L_n^(-1-2n), over 2 nu, are the
nu -> 0 ground-branch rapidities behind `bethe.asymptotic_Z`.
"""

from __future__ import annotations

import numpy as np


def genlaguerre(n: int, alpha: float, x: float) -> float:
    """L_n^alpha(x) by upward recurrence.

    L_0 = 1, L_1 = 1 + alpha - x,
    k L_k = (2k - 1 + alpha - x) L_{k-1} - (k - 1 + alpha) L_{k-2}.

    L_{-1} is defined as 0 so ladder formulas can index it directly.
    """
    if n < -1:
        raise ValueError(f"degree must be >= -1, got {n}")
    if n == -1:
        return 0.0
    lk_m2, lk_m1 = 1.0, 1.0 + alpha - x
    if n == 0:
        return lk_m2
    if n == 1:
        return lk_m1
    for k in range(2, n + 1):
        lk_m2, lk_m1 = lk_m1, ((2 * k - 1 + alpha - x) * lk_m1 - (k - 1 + alpha) * lk_m2) / k
    return lk_m1


def genlaguerre_coeffs(n: int, alpha: float) -> np.ndarray:
    """Monomial coefficients of L_n^alpha, ascending powers.

    Same recurrence as `genlaguerre`, applied to coefficient vectors; exact
    in float for the small degrees used here.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    c_m2 = np.zeros(n + 1)
    c_m2[0] = 1.0
    if n == 0:
        return c_m2
    c_m1 = np.zeros(n + 1)
    c_m1[0] = 1.0 + alpha
    c_m1[1] = -1.0
    if n == 1:
        return c_m1
    for k in range(2, n + 1):
        cur = (2 * k - 1 + alpha) * c_m1 - (k - 1 + alpha) * c_m2
        cur[1:] -= c_m1[:-1]  # the -x L_{k-1} term
        cur /= k
        c_m2, c_m1 = c_m1, cur
    return c_m1


def genlaguerre_roots(n: int, alpha: float) -> np.ndarray:
    """All (possibly complex) roots of L_n^alpha."""
    coeffs = genlaguerre_coeffs(n, alpha)
    return np.roots(coeffs[::-1])
