"""Strong-coupling analytics.

Small omega0: the adiabatic (displaced-oscillator) approximation. The spin
rotation turns the coupling into beta (a + a') sigma_z with beta =
(g1+g2)/2, leaving omega0 and lambda = (g1-g2)/2 as perturbations; the
spectrum is two quasi-degenerate harmonic ladders with Laguerre-weighted,
exponentially small splittings.

Large omega0: Bogoliubov operators A = (g1 a + g2 a')/g- (well defined only
for g1 > g2) map the model onto

    H = omega_g A'A + omega0 sz + g- (A s+ + A' s-) + omega g2^2/g-^2
        - s (A^2 + A'^2),    s = omega g1 g2 / g-^2,

a JC Hamiltonian plus a squeeze term. Far from resonance the JC eigenstates
split into two dispersive branches, one per spin, each an oscillator in A.
The squeeze couples A-number m to m +- 2, so inside a branch it is resummed
exactly by a Bogoliubov rotation; only the squeeze between the branches,
s against |2 omega0 - omega_g|, is neglected.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import ModelParams
from .special import genlaguerre


# squeezed_spectrum warns when its estimate of the neglected inter-branch
# squeeze, per quantum, exceeds this fraction of the branch ladder spacing.
SQUEEZE_WARN = 0.01


class UndefinedRegime(ValueError):
    """The squeezed-basis spectrum is not defined at these parameters."""


class InvalidIndex(ValueError):
    pass


@dataclass(frozen=True)
class AdiabaticParams:
    beta: float
    lambda_asym: float
    displacement: float   # beta / omega
    laguerre_arg: float   # 4 beta^2 / omega^2

    @classmethod
    def from_params(cls, p: ModelParams) -> "AdiabaticParams":
        beta = 0.5 * (p.g1 + p.g2)
        lam = 0.5 * (p.g1 - p.g2)
        return cls(beta=beta, lambda_asym=lam, displacement=beta / p.omega,
                   laguerre_arg=4 * beta * beta / (p.omega * p.omega))


@dataclass(frozen=True)
class SqueezedParams:
    g_minus: float
    omega_g: float
    r: float              # squeezing parameter, tanh r = g2/g1
    shift: float          # omega g2^2 / g-^2
    squeeze: float        # s = omega g1 g2 / g-^2

    @classmethod
    def from_params(cls, p: ModelParams) -> "SqueezedParams":
        if p.g1 <= p.g2:
            raise UndefinedRegime("squeezed-basis operators need g1 > g2")
        gm2 = p.g1 ** 2 - p.g2 ** 2
        return cls(
            g_minus=math.sqrt(gm2),
            omega_g=p.omega * (p.g1 ** 2 + p.g2 ** 2) / gm2,
            r=math.atanh(p.g2 / p.g1),
            shift=p.omega * p.g2 ** 2 / gm2,
            squeeze=p.omega * p.g1 * p.g2 / gm2,
        )


def displaced_overlap(M: int, N: int, beta_over_omega: float) -> float:
    """Overlap <M_-|N_+> of oppositely displaced Fock states.

    Closed Laguerre form; satisfies <M_-|N_+> = (-1)^(N-M) <N_-|M_+>.
    """
    if M < 0 or N < 0:
        raise InvalidIndex("Fock indices must be nonnegative")
    a = beta_over_omega
    x = 4 * a * a
    if M < N:
        lg = 0.5 * (math.lgamma(M + 1) - math.lgamma(N + 1))
        return math.exp(-x / 2 + lg) * (2 * a) ** (N - M) * genlaguerre(M, N - M, x)
    lg = 0.5 * (math.lgamma(N + 1) - math.lgamma(M + 1))
    return math.exp(-x / 2 + lg) * (-2 * a) ** (M - N) * genlaguerre(N, M - N, x)


def displaced_a_element(M: int, N: int, beta_over_omega: float) -> float:
    """<M_-| a |N_+> = sqrt(N) <M_-|(N-1)_+> - (beta/omega) <M_-|N_+>."""
    val = -beta_over_omega * displaced_overlap(M, N, beta_over_omega)
    if N > 0:
        val += math.sqrt(N) * displaced_overlap(M, N - 1, beta_over_omega)
    return val


def adiabatic_block(N: int, p: ModelParams) -> tuple[float, float]:
    """(E_N, |off-diagonal|) of the N-th 2x2 adiabatic block.

    The spin rotation sx -> sz, sz -> -sx, sy -> sy turns the coupling
    beta (a + a') sx + i lambda (a - a') sy into
    H = omega a'a + beta (a + a') sz - omega0 sx + i lambda (a - a') sy.
    Its sz = +-1 ladders D(-+b)|N>, b = beta/omega, have E_N = omega (N - b^2),
    and the block couples |N_+, up> to |N_-, down> by
        -omega0 <N|D(2b)|N> - lambda <N|(a' - a) D(2b)|N>
        = -e^(-x/2) [omega0 L_N^0(x) - lambda 2b (L_{N-1}^1 + L_N^1)(x)],
    x = 4 b^2, since (a' - a) D(c) = dD/dc and d/dc [e^(-c^2/2) L_N(c^2)]
    = -c e^(-c^2/2) (L_{N-1}^1 + L_N^1)(c^2): the terms have opposite signs.
    """
    ap = AdiabaticParams.from_params(p)
    x = ap.laguerre_arg
    e_n = p.omega * (N - ap.displacement ** 2)
    off = math.exp(-x / 2) * abs(
        p.omega0 * genlaguerre(N, 0, x)
        - ap.lambda_asym * 2 * ap.displacement * (genlaguerre(N - 1, 1, x) + genlaguerre(N, 1, x))
    )
    return e_n, off


def adiabatic_energies(N: int, p: ModelParams) -> tuple[float, float]:
    """Quasi-degenerate pair (E_N^-, E_N^+) of the adiabatic approximation.

    E_N +- exp(-2 beta^2/omega^2) |omega0 L_N^0(x) - lambda (2 beta/omega)
    [L_{N-1}^1 + L_N^1](x)| with x = 4 beta^2/omega^2 and E_N =
    omega (N - beta^2/omega^2). Intended regime: beta/omega >~ 1,
    omega0 << omega, |g1 - g2| small.
    """
    if N < 0:
        raise InvalidIndex("N must be nonnegative")
    ap = AdiabaticParams.from_params(p)
    if ap.displacement < 0.75 or abs(p.omega0) > 0.5 * p.omega:
        warnings.warn("adiabatic approximation used outside its regime "
                      "(needs beta >~ omega and omega0 << omega)", stacklevel=2)
    e_n, off = adiabatic_block(N, p)
    return (e_n - off, e_n + off)


def squeezed_spectrum(n: int, sign: int, p: ModelParams) -> float:
    """Large-omega0 spectrum in the squeezed basis.

    E_{n,+-} = omega_g (n - 1/2) +- (1/2) sqrt(D^2 + 4 n g-^2) + omega g2^2/g-^2
    + (sqrt(w'^2 - 4 s^2) - w') (m + 1/2), with D = 2 omega0 - omega_g.

    The first three terms are the exact JC energies in the A basis. The last
    resums the squeeze inside the branch: the branch is an oscillator of
    dispersive frequency w' = omega_g + g-^2/D on the spin-up branch and
    omega_g - g-^2/D on the spin-down one (w'_+- = omega_g +- g-^2/|D| for
    sign +-1), and w' A'A - s (A^2 + A'^2) has the Bogoliubov spectrum
    sqrt(w'^2 - 4 s^2) (m + 1/2) - w'/2. m is the A-number of the main
    component: n on the spin-down branch, n - 1 on the spin-up one. At
    g2 = 0 (s = 0) the result is exactly JC.

    n = 0 is the decoupled state |0,->, with JC energy -omega0 + omega
    g2^2/g-^2; it is requested as the lower branch (sign = -1).

    Raises UndefinedRegime for g1 <= g2, and for s > 0 where D = 0 or the
    branch oscillator is unstable (w' <= 2 s). Warns where the neglected
    inter-branch squeeze is not small: s g-^2/D^2 (w'/W)^2 > 0.01 W, with W =
    sqrt(w'^2 - 4 s^2) the branch ladder spacing.
    """
    sq = SqueezedParams.from_params(p)
    if sign not in (-1, 1):
        raise InvalidIndex("sign must be -1 or +1")
    if n < 0 or (n == 0 and sign == 1):
        raise InvalidIndex("n = 0 exists only on the lower branch")
    detuning = 2 * p.omega0 - sq.omega_g
    if n == 0:
        e_jc, spin_up = -p.omega0 + sq.shift, False
    else:
        rad = math.hypot(detuning, 2 * math.sqrt(n) * sq.g_minus)
        e_jc = sq.omega_g * (n - 0.5) + 0.5 * sign * rad + sq.shift
        spin_up = sign * detuning > 0
    s = sq.squeeze
    if s == 0.0:
        return e_jc
    if detuning == 0.0:
        raise UndefinedRegime("2 omega0 = omega_g: the JC branches are resonant "
                              "and the squeeze cannot be resummed per branch")
    w_branch = sq.omega_g + (1 if spin_up else -1) * sq.g_minus ** 2 / detuning
    if w_branch <= 2 * s:
        raise UndefinedRegime("squeezed branch oscillator is unstable "
                              "(dispersive frequency <= 2 omega g1 g2/g-^2)")
    spacing = math.sqrt(w_branch ** 2 - 4 * s * s)
    # neglected inter-branch squeeze per quantum: (s/D)(g-^2/D), amplified by
    # the branch squeeze (w'/spacing)^2
    inter_branch = s * sq.g_minus ** 2 / detuning ** 2 * (w_branch / spacing) ** 2
    if inter_branch > SQUEEZE_WARN * spacing:
        warnings.warn("squeeze between the JC branches is not small against "
                      "|2 omega0 - omega_g|; the approximation degrades", stacklevel=2)
    m = n - 1 if spin_up else n
    return e_jc + (spacing - w_branch) * (m + 0.5)


def squeezed_levels(p: ModelParams, count: int) -> list[float]:
    """The `count` lowest squeezed-basis energies, ascending."""
    out = [squeezed_spectrum(0, -1, p)]
    n = 1
    while len(out) < 3 * count:
        out.append(squeezed_spectrum(n, -1, p))
        out.append(squeezed_spectrum(n, +1, p))
        n += 1
    return sorted(out)[:count]
