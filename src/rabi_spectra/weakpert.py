"""Weak-coupling analytics for g2 << g1.

The counter-rotating part g2 (a's+ + a s-) is treated as a perturbation of
the Jaynes-Cummings Hamiltonian. Closed forms: JC levels, exact second-order
corrections, the loci where unperturbed levels degenerate (producing exact
crossings at integer shifted energy and avoided crossings at half-integer),
the leading gaps, the two-level approximation through avoided crossings, and
the crossing-count bookkeeping. The opposite regime g1 << g2 is reached via
core.mirror, never by duplicated formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ModelParams

SING_TOL = 1e-3   # refuse second_order within this distance (x omega) of a pole


class InvalidIndex(ValueError):
    pass


class NearDegeneracy(ValueError):
    """Second-order denominator too close to zero: use avoided_energies."""


class NoLocus(ValueError):
    """The requested degeneracy case has no solution at these parameters."""


class InvalidCase(ValueError):
    pass


@dataclass(frozen=True)
class JCLevel:
    n: int
    k: int
    E0: float
    Omega_n: float
    alpha_n: float


@dataclass(frozen=True)
class DegeneracyLocus:
    case_label: str
    p: int
    n: int
    g1: float
    E_at: float          # degenerate unperturbed energy (raw scale)

    def epsilon_at(self, params_g2: float, omega: float) -> float:
        """Shifted energy of the degeneracy including the lambda+ shift."""
        return self.E_at / omega + (self.g1 ** 2 + params_g2 ** 2) / (2 * omega ** 2)


def rabi_frequency(n: int, p: ModelParams) -> float:
    """Omega_n = sqrt((omega0 - omega/2)^2 + g1^2 (n+1))."""
    return math.hypot(p.omega0 - p.omega / 2, p.g1 * math.sqrt(n + 1))


def mixing_angle(n: int, p: ModelParams) -> float:
    """alpha_n with cos(alpha_n) = (omega0 - omega/2)/Omega_n."""
    return math.atan2(p.g1 * math.sqrt(n + 1), p.omega0 - p.omega / 2)


def jc_level(n: int, k: int, p: ModelParams) -> JCLevel:
    """Unperturbed JC level E^(0)_{n,k} = omega(n+1/2) + (-1)^k Omega_n.

    The decoupled state |0,-> is bookkept as (n, k) = (-1, 1) with energy
    -omega0.
    """
    if n == -1 and k == 1:
        return JCLevel(n=-1, k=1, E0=-p.omega0, Omega_n=0.0, alpha_n=0.0)
    if n < 0 or k not in (0, 1):
        raise InvalidIndex(f"need n >= 0 with k in {{0,1}}, or (n,k) = (-1,1); got ({n},{k})")
    om = rabi_frequency(n, p)
    return JCLevel(n=n, k=k, E0=p.omega * (n + 0.5) + (-1) ** k * om,
                   Omega_n=om, alpha_n=mixing_angle(n, p))


def second_order(n: int, k: int, p: ModelParams) -> float:
    """Exact second-order energy correction due to the g2 term (value, not
    coefficient; proportional to g2^2).

    Raises NearDegeneracy when a denominator is within SING_TOL*omega of
    zero; those points are the avoided-crossing loci where the two-level
    formula applies instead.
    """
    w, w0, g1, g2 = p.omega, p.omega0, p.g1, p.g2
    chi = g1 * g1 / (2 * w)
    if n == -1 and k == 1:
        den = w0 + w / 2 - chi
        if abs(den) < SING_TOL * w:
            raise NearDegeneracy("|0,-> correction singular at the case-0 locus")
        # Exact coefficient -1/2; the singular denominator matches the
        # case-0 degeneracy E_{-1,1} = E_{1,1}.
        return -g2 * g2 / (2 * den)
    if n < 0 or k not in (0, 1):
        raise InvalidIndex(f"invalid level ({n},{k})")
    om = rabi_frequency(n, p)
    a = om - w0 + w / 2 - (n + 1) * chi
    b = om + w0 - w / 2 + (n + 1) * chi
    if k == 0:
        d1 = w - om - chi
        d2 = w + om + chi
        if min(abs(d1), abs(d2)) < SING_TOL * w:
            raise NearDegeneracy("second-order denominator vanishes (case 1a/2a locus)")
        val = -(n + 2) / (4 * om) * a / d1 + n / (4 * om) * b / d2
    else:
        d1 = w + om - chi
        d2 = w - om + chi
        if min(abs(d1), abs(d2)) < SING_TOL * w:
            raise NearDegeneracy("second-order denominator vanishes (case 1b/2b locus)")
        val = -(n + 2) / (4 * om) * b / d1 + n / (4 * om) * a / d2
    return g2 * g2 * val


def _detuning_half(p: ModelParams) -> float:
    return 0.5 - p.omega0 / p.omega


def degeneracy_loci(
    case_label: str,
    omega: float,
    omega0: float,
    n: int = 0,
    p: int = 1,
    k: int = 0,
) -> DegeneracyLocus:
    """g1 location and energy of an unperturbed-level degeneracy.

    Avoided-crossing cases (half-integer shifted energy): "0", "1a", "1b",
    "2a", "2b", "p-avoided" (with k), "minus1-avoided" (with p).
    Crossing cases (integer shifted energy): "p-crossing" (with n, p, k) and
    "minus1-crossing" (with p). Raises NoLocus where g1^2/(2 omega^2) would
    be negative: at k = 0 outside the case's validity window in p; the k = 1
    "p-avoided" and "p-crossing" loci always exist.
    """
    w, w0 = omega, omega0
    d = 0.5 - w0 / w

    def from_g1sq_over_2w2(val: float, e_at_base: float, lbl: str, nn: int, pp: int) -> DegeneracyLocus:
        if val < 0:
            raise NoLocus(f"case {lbl}: locus value negative ({val:.4g})")
        g1 = w * math.sqrt(2 * val)
        return DegeneracyLocus(case_label=lbl, p=pp, n=nn, g1=g1,
                               E_at=w * e_at_base - g1 * g1 / (2 * w))

    if case_label == "0":
        val = (w0 + w / 2) / w
        return from_g1sq_over_2w2(val, 0.5, "0", -1, 1)
    if case_label in ("1a", "2a", "1b", "2b"):
        nn = n if case_label in ("1a", "1b") else n - 2
        if case_label in ("2a", "2b") and n < 2:
            raise NoLocus(f"case {case_label} needs n >= 2")
        rad = (nn + 1) * (nn + 3) + d * d
        root = math.sqrt(rad)
        val = (nn + 2) - root if case_label in ("1a", "2a") else (nn + 2) + root
        return from_g1sq_over_2w2(val, nn + 1.5, case_label, n, 1)
    if case_label == "p-avoided":
        if p < 1:
            raise NoLocus("p >= 1 required")
        root = math.sqrt((n + 1) * (n + 2 * p + 1) + d * d)
        val = (n + p + 1) - root if k == 0 else (n + p + 1) + root
        return from_g1sq_over_2w2(val, n + p + 0.5, "p-avoided", n, p)
    if case_label == "minus1-avoided":
        val = (w0 + w * (p - 0.5)) / w
        return from_g1sq_over_2w2(val, p - 0.5, "minus1-avoided", -1, p)
    if case_label == "p-crossing":
        if p < 1:
            raise NoLocus("p >= 1 required")
        root = math.sqrt((n + 1) * (n + 2 * p) + d * d)
        val = (n + p + 0.5) - root if k == 0 else (n + p + 0.5) + root
        return from_g1sq_over_2w2(val, n + p, "p-crossing", n, p)
    if case_label == "minus1-crossing":
        val = (w0 + w * (p - 1)) / w
        return from_g1sq_over_2w2(val, float(p - 1), "minus1-crossing", -1, p)
    raise InvalidCase(f"unknown case label {case_label!r}")


def gap(case_label: str, n: int, p: ModelParams) -> float:
    """Leading avoided-crossing gap for the closed-form cases.

    Case 0: 2 g2 sin(a1/2); 1a: 2 g2 sqrt(n+2) sin(a_n/2) sin(a_{n+2}/2);
    1b: the cosine variant; 2a/2b are the same with n -> n-2. Higher-p gaps
    are O(g2^p) with no closed form here.
    """
    g2 = p.g2
    if case_label == "0":
        return 2 * g2 * math.sin(mixing_angle(1, p) / 2)
    if case_label in ("2a", "2b"):
        n = n - 2
        case_label = "1a" if case_label == "2a" else "1b"
    if case_label == "1a":
        return (2 * g2 * math.sqrt(n + 2)
                * math.sin(mixing_angle(n, p) / 2) * math.sin(mixing_angle(n + 2, p) / 2))
    if case_label == "1b":
        return (2 * g2 * math.sqrt(n + 2)
                * math.cos(mixing_angle(n, p) / 2) * math.sin(mixing_angle(n + 2, p) / 2))
    raise InvalidCase(f"no closed-form gap for case {case_label!r} (order O(g2^p) only)")


def avoided_energies(n: int, k: int, p: ModelParams) -> tuple[float, float]:
    """Two-level energies (E+, E-) for the pair (n,k) and (n+2,1).

    (n, k) = (-1, 1) is case 0 (partner (1,1)); (n, 0) is case 1a and
    (n, 1) case 1b. Away from the locus this reduces smoothly to the
    unperturbed pair.
    """
    if n == -1:
        if k != 1:
            raise InvalidIndex("the -1 sector only carries k = 1")
        case = "0"
    elif k == 0:
        case = "1a"
    elif k == 1:
        case = "1b"
    else:
        raise InvalidIndex(f"invalid k {k}")
    e_a = jc_level(n, k, p).E0
    e_b = jc_level(n + 2, 1, p).E0
    delta = gap(case, n, p)
    s = math.hypot(e_a - e_b, delta)
    return (0.5 * (e_a + e_b + s), 0.5 * (e_a + e_b - s))


def count_events(N: int, p: ModelParams) -> tuple[int, int]:
    """(N_cr, N_avoided): crossings at eps = N and avoided crossings at
    eps = N + 1/2 predicted by the degeneracy enumeration.

    Crossings: the k=0 family needs p in [1/2 + |1/2 - omega0/omega|, N],
    the k=1 family contributes every p in [1, N], and the |0,-> level always
    intersects E_{2N,1} once. Avoided: same with window p >= |1/2 -
    omega0/omega| and the single |0,-> event at p = N + 1.
    """
    d = abs(_detuning_half(p))
    lo_cr = max(1, math.ceil(0.5 + d - 1e-12))
    n_cr = max(0, N - lo_cr + 1) + N + 1
    lo_av = max(1, math.ceil(d - 1e-12))
    n_av = max(0, N - lo_av + 1) + N + 1
    return n_cr, n_av
