"""Parameter algebra for the generalized Rabi model.

Physical parameters (omega, omega0, g1, g2) enter the Hamiltonian

    H = omega a'a + omega0 sigma_z + g1 (a' s- + a s+) + g2 (a' s+ + a s-),

so the two-level splitting is 2*omega0. All analytic work uses the
dimensionless set (delta, lambda+, lambda-, nu, kappa) with omega as the
energy unit:

    delta    = omega0 / omega
    lambda+- = (g1^2 +- g2^2) / (2 omega^2)
    nu       = sqrt(g1 g2) / omega
    kappa    = delta * nu / lambda-        (undefined on the Rabi line g1 = g2)

and the shifted energy eps = E/omega + lambda+, in which level crossings sit
at integer eps and avoided crossings at half-integer eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative tolerance below which |g1^2 - g2^2| counts as the Rabi line; kappa
# diverges there and the Lambda linear system turns singular.
TOL_RABI = 1e-12


class DegenerateInversion(ValueError):
    """Raised when (kappa, nu) -> (g1, g2) is not invertible (kappa=0 or nu=0)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the generalized Rabi Hamiltonian.

    omega > 0 is required; g1, g2 >= 0 (coupling signs can always be removed
    by unitaries, so the library canonicalizes to nonnegative couplings).
    omega0 may carry either sign; `mirror` relies on that.
    """

    omega: float
    omega0: float
    g1: float
    g2: float

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.g1 < 0 or self.g2 < 0:
            raise ValueError("couplings g1, g2 must be nonnegative")


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless parameter set.

    kappa is None exactly when `rabi_limit` is set (g1 = g2 within TOL_RABI);
    all other fields are always populated.
    """

    delta: float
    lambda_plus: float
    lambda_minus: float
    nu: float
    kappa: float | None
    rabi_limit: bool = False


@dataclass(frozen=True)
class ShiftedEnergy:
    """Energy bookkeeping: e = E/omega, eps = e + lambda+."""

    epsilon: float
    e: float

    @classmethod
    def from_e(cls, e: float, lambda_plus: float) -> "ShiftedEnergy":
        return cls(epsilon=e + lambda_plus, e=e)

    @classmethod
    def from_epsilon(cls, epsilon: float, lambda_plus: float) -> "ShiftedEnergy":
        return cls(epsilon=epsilon, e=epsilon - lambda_plus)


def reduce(p: ModelParams) -> ReducedParams:
    """Map physical parameters to the dimensionless set.

    Total on valid ModelParams. On the Rabi line (|g1^2 - g2^2| below
    TOL_RABI relative to g1^2 + g2^2) the result carries rabi_limit=True and
    kappa=None; kappa=0.0 is returned for delta=0 with lambda- != 0.
    """
    w2 = p.omega * p.omega
    delta = p.omega0 / p.omega
    lam_p = 0.5 * (p.g1 * p.g1 + p.g2 * p.g2) / w2
    lam_m = 0.5 * (p.g1 * p.g1 - p.g2 * p.g2) / w2
    nu = math.sqrt(p.g1 * p.g2) / p.omega
    if abs(lam_m) <= TOL_RABI * lam_p and lam_p > 0:
        return ReducedParams(delta, lam_p, lam_m, nu, None, rabi_limit=True)
    if lam_p == 0.0:
        # g1 = g2 = 0: decoupled oscillator, treat as Rabi-degenerate too.
        return ReducedParams(delta, 0.0, 0.0, 0.0, None, rabi_limit=True)
    kappa = delta * nu / lam_m
    return ReducedParams(delta, lam_p, lam_m, nu, kappa)


def invert(kappa: float, nu: float, delta: float, omega: float) -> ModelParams:
    """Reconstruct physical parameters from (kappa, nu, delta) at a given omega.

    Uses lambda- = delta*nu/kappa and lambda+ = sqrt(lambda-^2 + nu^4), then
    g1,2 = omega*sqrt(lambda+ +- lambda-). Negative kappa (with delta > 0)
    lands on g1 < g2; the round trip reduce(invert(...)) reproduces
    (delta, nu, kappa) to ~1e-12 relative.
    """
    if nu <= 0 or kappa == 0:
        raise DegenerateInversion(
            "invert requires nu > 0 and kappa != 0 (use the JC/Rabi special paths)"
        )
    lam_m = delta * nu / kappa
    lam_p = math.hypot(lam_m, nu * nu)
    g1 = omega * math.sqrt(lam_p + lam_m)
    g2 = omega * math.sqrt(lam_p - lam_m)
    return ModelParams(omega=omega, omega0=omega * delta, g1=g1, g2=g2)


def mirror(p: ModelParams) -> ModelParams:
    """Swap g1 <-> g2 and flip omega0.

    The spectra of p and mirror(p) coincide: the two Hamiltonians are related
    by the unitary T = exp(i pi/2 sigma_y) exp(i pi a'a).
    """
    return ModelParams(omega=p.omega, omega0=-p.omega0, g1=p.g2, g2=p.g1)
