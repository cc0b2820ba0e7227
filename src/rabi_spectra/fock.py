"""The generalized Rabi Hamiltonian in a truncated Fock basis.

Parity of N_ex = a'a + s+s- is conserved, and each parity sector is a
tridiagonal (Jacobi) chain: even |0,->, |1,+>, |2,->, ... and odd |0,+>,
|1,->, |2,+>, ..., with links alternating between g2 sqrt(m) and g1 sqrt(m).
Levels come from those two chains; only `eigvec_overlap`, which needs
full-basis eigenvectors, solves the dense matrix.

`build` assembles the dense matrix instead, in the basis ordering |0,->,
|0,+>, |1,->, |1,+>, ... with sigma_z|+-> = +-|+->, i.e. index(n, s) = 2n + s
where s=0 labels |-> and s=1 labels |+>. It is built exactly symmetric and,
with `parity_blocks`, serves as the independent brute-force oracle.
"""

from __future__ import annotations

import math
# Unused; only perfbench/tracing.py POOL_MODULES reads it (ROADMAP item 1).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .core import ModelParams, reduce

DEFAULT_N_MAX = 200
CONV_TOL = 1e-9       # per-level drift tolerance (units of omega)
GAP_TOL = 1e-7        # an exact crossing's level gap is below this (units of omega)
INT_TOL = 1e-6
# Up to this many levels per chain, bisection (LAPACK stebz) is cheaper than
# solving the whole chain (sterf): at n_max 200 one bisected level costs
# 0.07 ms and a whole 201-site chain 0.74 ms.
_BISECT_MAX = 8


class CutoffTooSmall(ValueError):
    pass


class NotConverged(RuntimeError):
    pass


class IndexOutOfRange(IndexError):
    pass


@dataclass(frozen=True)
class TruncatedHamiltonian:
    n_max: int
    matrix: np.ndarray
    params: ModelParams

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


@dataclass(frozen=True)
class SpectrumResult:
    epsilons: np.ndarray
    n_keep: int
    n_max: int
    convergence_estimate: float


@dataclass(frozen=True)
class CrossingEvent:
    """A refined gap minimum of two adjacent levels on a g1 scan: "crossing"
    when their N_ex parities differ (any pair when g2 = 0, where N_ex is
    conserved), else "avoided". caveat is always False."""
    kind: str                 # "crossing" | "avoided"
    g1_location: float
    epsilon_at_event: float
    gap: float
    level_pair: tuple[int, int]
    caveat: bool = False


def build(p: ModelParams, n_max: int) -> TruncatedHamiltonian:
    """Assemble the dense symmetric Hamiltonian at Fock cutoff n_max.

    Diagonal: omega*n -+ omega0 for |n,-+>. Off-diagonal: g1 couples
    |n,+> <-> |n+1,-> with sqrt(n+1); g2 couples |n,-> <-> |n+1,+> with
    sqrt(n+1).
    """
    if n_max < 1:
        raise CutoffTooSmall(f"n_max must be >= 1, got {n_max}")
    dim = 2 * (n_max + 1)
    h = np.zeros((dim, dim))
    ns = np.arange(n_max + 1, dtype=float)
    h[2 * np.arange(n_max + 1), 2 * np.arange(n_max + 1)] = p.omega * ns - p.omega0
    h[2 * np.arange(n_max + 1) + 1, 2 * np.arange(n_max + 1) + 1] = p.omega * ns + p.omega0
    rt = np.sqrt(ns[1:])  # sqrt(1..n_max)
    for n in range(n_max):
        s = rt[n]  # sqrt(n+1)
        i_plus, j_minus = 2 * n + 1, 2 * (n + 1)       # |n,+> <-> |n+1,->
        i_minus, j_plus = 2 * n, 2 * (n + 1) + 1       # |n,-> <-> |n+1,+>
        h[i_plus, j_minus] = h[j_minus, i_plus] = p.g1 * s
        h[i_minus, j_plus] = h[j_plus, i_minus] = p.g2 * s
    return TruncatedHamiltonian(n_max=n_max, matrix=h, params=p)


def _parity_chains(
    p: ModelParams, n_max: int
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(diagonal, off-diagonal) of the even and odd N_ex parity chains.

    Site m of a chain holds m photons; its spin is - (even chain) or + (odd
    chain) for even m and flips for odd m. The link into site m is g2 sqrt(m)
    on the even chain and g1 sqrt(m) on the odd chain for odd m, and the other
    coupling for even m. Together the chains span the basis of `build`.
    """
    if n_max < 1:
        raise CutoffTooSmall(f"n_max must be >= 1, got {n_max}")
    m = np.arange(n_max + 1, dtype=float)
    spin = np.where(m % 2 == 0, -1.0, 1.0)  # sigma_z along the even chain
    rt = np.sqrt(m[1:])
    odd_link = m[1:] % 2 == 1
    even = (p.omega * m + spin * p.omega0, np.where(odd_link, p.g2, p.g1) * rt)
    odd = (p.omega * m - spin * p.omega0, np.where(odd_link, p.g1, p.g2) * rt)
    return even, odd


def _chain_levels(p: ModelParams, n_max: int, k: int) -> np.ndarray:
    """The lowest j = min(k, n_max+1) eigenvalues of the even parity chain
    followed by the lowest j of the odd chain, unshifted: slot s holds level
    s % j of chain s // j."""
    chains = _parity_chains(p, n_max)
    if k < 1 or k > 2 * (n_max + 1):
        raise ValueError(f"k must be in [1, {2 * (n_max + 1)}], got {k}")
    j = min(k, n_max + 1)
    levels = []
    for d, e in chains:
        if j <= _BISECT_MAX:
            levels.append(eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                           select_range=(0, j - 1)))
        else:
            levels.append(eigh_tridiagonal(d, e, eigvals_only=True,
                                           lapack_driver="sterf")[:j])
    return np.concatenate(levels)


def _merged_levels(p: ModelParams, n_max: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k shifted eigenvalues eps = E/omega + lambda+, no certification,
    with the `_chain_levels` slot each comes from; slot // min(k, n_max+1)
    is its chain (0 even, 1 odd N_ex parity).

    The levels equal the lowest k eigenvalues of `build(p, n_max)`.
    """
    evals = _chain_levels(p, n_max, k)
    slots = np.argsort(evals, kind="stable")[:k]
    return evals[slots] / p.omega + reduce(p).lambda_plus, slots


def _eps_levels(p: ModelParams, n_max: int, k: int) -> np.ndarray:
    """The levels of `_merged_levels` without their slots."""
    return _merged_levels(p, n_max, k)[0]


def diagonalize(h: TruncatedHamiltonian, n_keep: int) -> SpectrumResult:
    """Certified lowest levels of the model behind h, from its parity chains.

    Re-solves at cutoff n_max//2 and drops levels whose shifted eigenvalue
    drifts by more than CONV_TOL; raises NotConverged if fewer than n_keep
    levels survive.
    """
    if n_keep < 1 or n_keep > h.dim:
        raise ValueError(f"n_keep must be in [1, {h.dim}]")
    p = h.params
    half = max(1, h.n_max // 2)
    eps_full = _eps_levels(p, h.n_max, n_keep)
    eps_half = _eps_levels(p, half, min(n_keep, 2 * (half + 1)))
    n_cmp = len(eps_half)
    drift = np.abs(eps_full[:n_cmp] - eps_half)
    converged = int(np.argmax(drift > CONV_TOL)) if np.any(drift > CONV_TOL) else n_cmp
    if converged < n_keep:
        raise NotConverged(
            f"only {converged} of {n_keep} requested levels converged at "
            f"n_max={h.n_max} (max drift {drift.max():.3e})"
        )
    return SpectrumResult(
        epsilons=eps_full,
        n_keep=n_keep,
        n_max=h.n_max,
        convergence_estimate=float(drift.max()),
    )


def parity_blocks(h: TruncatedHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Split the matrix into the two parity blocks of N_ex = a'a + s+s-.

    Returns the (even, odd) sub-matrices. Used as an independent oracle:
    their merged eigenvalues must reproduce the full solve.
    """
    n_ex = np.empty(h.dim, dtype=int)
    for n in range(h.n_max + 1):
        n_ex[2 * n] = n          # |n,->
        n_ex[2 * n + 1] = n + 1  # |n,+>
    even = np.where(n_ex % 2 == 0)[0]
    odd = np.where(n_ex % 2 == 1)[0]
    return h.matrix[np.ix_(even, even)], h.matrix[np.ix_(odd, odd)]


def coherent_state(alpha: float, n_max: int) -> np.ndarray:
    """Coherent state |alpha> = exp(-alpha^2/2) exp(alpha a')|0>, truncated.

    Built by the Taylor series in the number basis and re-normalized, so the
    vector is exactly unit even when the truncation clips the tail.
    """
    n = np.arange(n_max + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))))
    with np.errstate(divide="ignore"):
        log_abs = n * np.log(abs(alpha)) if alpha != 0 else np.where(n == 0, 0.0, -np.inf)
    vec = np.sign(alpha) ** n * np.exp(log_abs - 0.5 * log_fact)
    if alpha == 0:
        vec = np.zeros(n_max + 1)
        vec[0] = 1.0
    return vec / np.linalg.norm(vec)


def apply_creation_polynomial(coeffs: Sequence[float], vec: np.ndarray) -> np.ndarray:
    """Apply sum_k c_k (a')^k to a Fock-basis vector (c_k = coeffs[k])."""
    out = coeffs[0] * vec.astype(complex)
    cur = vec.astype(complex)
    rt = np.sqrt(np.arange(1, len(vec), dtype=float))
    for k in range(1, len(coeffs)):
        nxt = np.zeros_like(cur)
        nxt[1:] = rt * cur[:-1]
        cur = nxt
        out += coeffs[k] * cur
    return out


def eigvec_overlap(
    h: TruncatedHamiltonian,
    level: int,
    reference: np.ndarray,
    degeneracy_tol: float = 1e-6,
) -> float:
    """|<reference|eigvec_level>|, promoted to a subspace projection norm
    when the level sits in a (near-)degenerate cluster.

    The cluster is every level within degeneracy_tol*omega of `level`; for an
    exact doublet this is the 2-dimensional eigenspace projection the
    exceptional-state checks need.
    """
    if level < 0 or level >= h.dim:
        raise IndexOutOfRange(f"level {level} outside [0, {h.dim})")
    evals, evecs = eigh(h.matrix)
    ref = np.asarray(reference, dtype=complex)
    ref = ref / np.linalg.norm(ref)
    cluster = np.where(np.abs(evals - evals[level]) < degeneracy_tol * h.params.omega)[0]
    amps = evecs[:, cluster].conj().T @ ref
    return float(np.linalg.norm(amps))


def _scan_levels(
    p_template: ModelParams, g1_values: np.ndarray, n_levels: int, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_levels shifted levels at each g1, shape (len(g1_values), n_levels),
    and the `_chain_levels` slot of each."""
    eps = np.empty((len(g1_values), n_levels))
    slots = np.empty((len(g1_values), n_levels), dtype=int)
    for row, g1 in enumerate(g1_values):
        eps[row], slots[row] = _merged_levels(replace(p_template, g1=float(g1)), n_max, n_levels)
    return eps, slots


def scan_crossings(
    p_template: ModelParams,
    g1_grid: Sequence[float],
    n_levels: int,
    n_max: int = DEFAULT_N_MAX,
    refine_tol: float = 1e-10,
) -> list[CrossingEvent]:
    """Locate level crossings and avoided crossings along a g1 scan.

    Every interior local minimum of each adjacent-level gap eps_{i+1}-eps_i
    is refined inside its two grid neighbours until the bracket on g1 is
    refine_tol wide (or 2 eps_mach |g1|, if wider); refine_tol must be finite and
    > 0. When the two levels come from opposite N_ex-parity chains and swap
    order across the bracket, the minimum is a root of the chain-level
    difference eps_even,i - eps_odd,j and Brent's method finds it. Any other
    minimum (avoided crossings, opposite-parity near-misses that do not
    swap, same-chain crossings on g2 = 0) is refined by golden-section
    search on the gap. Minima that drift to the bracket edge are dropped.
    Opposite N_ex parities at the minimum cross exactly, equal ones repel
    (avoided), except on a g2 = 0 (JC) line, where N_ex is conserved and
    every minimum crosses. `gap` is eps_{i+1} - eps_i at the located g1.
    """
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")
    g1_values = np.asarray(list(g1_grid), dtype=float)
    if len(g1_values) < 3 or np.any(np.diff(g1_values) <= 0):
        raise ValueError("g1_grid must be strictly ascending with >= 3 points")
    eps, slots = _scan_levels(p_template, g1_values, n_levels, n_max)
    gaps = np.diff(eps, axis=1)  # (n_grid, n_levels-1)
    per_chain = min(n_levels, n_max + 1)
    events: list[CrossingEvent] = []

    def gap_at(g1: float, pair: int) -> float:
        eps = _eps_levels(replace(p_template, g1=g1), n_max, n_levels)
        return float(eps[pair + 1] - eps[pair])

    def split_at(g1: float, lower: int, upper: int) -> float:
        levels = _chain_levels(replace(p_template, g1=g1), n_max, n_levels)
        return float(levels[lower] - levels[upper]) / p_template.omega

    for pair in range(n_levels - 1):
        g = gaps[:, pair]
        interior = np.where((g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:]))[0] + 1
        for idx in interior:
            lo, hi = g1_values[idx - 1], g1_values[idx + 1]
            lower, upper = slots[idx - 1, pair:pair + 2]
            swapped = (slots[idx + 1, pair], slots[idx + 1, pair + 1]) == (upper, lower)
            if swapped and lower // per_chain != upper // per_chain:
                g1_min = _brent_root(lambda x: split_at(x, lower, upper), lo, hi,
                                     -g[idx - 1], g[idx + 1], refine_tol)
            else:
                g1_min, _ = _golden_min(lambda x: gap_at(x, pair), lo, hi, refine_tol)
            if g1_min - lo < 2 * refine_tol or hi - g1_min < 2 * refine_tol:
                continue
            eps_min, slots_min = _merged_levels(replace(p_template, g1=g1_min), n_max, n_levels)
            chain = slots_min // per_chain
            crossing = p_template.g2 == 0 or chain[pair] != chain[pair + 1]
            events.append(
                CrossingEvent(
                    kind="crossing" if crossing else "avoided",
                    g1_location=float(g1_min),
                    epsilon_at_event=float(0.5 * (eps_min[pair] + eps_min[pair + 1])),
                    gap=float(eps_min[pair + 1] - eps_min[pair]),
                    level_pair=(pair, pair + 1),
                )
            )
    events.sort(key=lambda ev: (ev.g1_location, ev.level_pair))
    return events


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


def _golden_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimization of f on [a, b] to bracket width xtol,
    floored at 2 eps_mach |x| so that rounding cannot stall it."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > max(xtol, 2 * _EPS * max(abs(a), abs(b))) and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _brent_root(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """A root of f in [a, b] by Brent's method, given fa = f(a) and fb = f(b)
    of opposite signs (or zero): inverse quadratic or secant steps, with
    bisection whenever they would not shrink the bracket fast enough. Stops
    at bracket width xtol, floored at 2 eps_mach |x|; xtol must be > 0.
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973.)
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0) == (fc > 0):  # keep the root between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * max(xtol, 2 * _EPS * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2 * m * s, 1 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            if p > 0:
                q = -q
            p = abs(p)
            if 2 * p < min(3 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
