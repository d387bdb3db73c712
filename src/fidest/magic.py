"""Magic quantifiers and analytic bounds: Pauli l-norms and stabilizer
Renyi entropies, direct-fidelity-estimation variance bounds, the
hypergraph second-derivative rank machinery with its closed-form
complete-graph and random-hypergraph brackets, Haar-average l1 closed
forms, and the Dirichlet estimator for the phase-stripped l1 norm.

Derivative matrices N(x) are packed uint64 rows, built for a whole array
of x (and of edge sets) at once and ranked by one ``f2.f2_rank`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from .f2 import COEFF_TOL, f2_rank, pauli_coefficients
from .states import PhaseFunction

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class NormReport:
    """Pauli l-norms and stabilizer Renyi entropies of one pure state."""

    n: int
    l0: float  # nonzero-coefficient count / 2^n
    l1: float
    l2: float
    sre: dict  # alpha -> M_alpha


@dataclass(frozen=True)
class VarianceBounds:
    """A bracket lower <= l1^2 <= upper on the alpha = 1/2 DFE second
    moment E v^2 = l1^2 (the variance is l1^2 - F^2)."""

    lower: float
    upper: float
    method: str  # sampled-rank | closed-form-complete | closed-form-random

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")


def norms(psi, alphas: Iterable[float] = (0.0, 0.5, 1.0, 2.0)) -> NormReport:
    """l_2a norms and M_a entropies from the dense coefficient table.

    l_2a = (2^n sum_a |c_a|^(2a))^(1/(2a)) conventions are folded into the
    three reported norms; M_a = (1/(1-a)) log2(2^(-an) sum |<T_a>|^(2a)) - n
    with the a -> 1 limit taken as the Shannon entropy of <T_a>^2 / 2^n.
    """
    coeffs = pauli_coefficients(psi)
    n = coeffs.n
    absc = np.abs(coeffs.values)
    nonzero = absc > COEFF_TOL
    count = int(np.count_nonzero(nonzero))
    texp = absc * (1 << n)  # |<T_a>|
    l1 = float(absc.sum())
    l2 = float(np.sqrt((1 << n) * np.sum(absc**2)))
    sre = {}
    for alpha in alphas:
        alpha = float(alpha)
        if alpha == 1.0:
            p = texp[nonzero] ** 2 / (1 << n)
            sre[alpha] = float(-(p * np.log2(p)).sum() - n)
        else:
            s = float(np.sum(texp[nonzero] ** (2 * alpha)))
            sre[alpha] = float((math.log2(s) - alpha * n) / (1.0 - alpha) - n)
    return NormReport(n=n, l0=count / (1 << n), l1=l1, l2=l2, sre=sre)


# ---------------------------------------------------------------------------
# Hypergraph rank machinery


def _qubit_bits(n: int, x) -> np.ndarray:
    """Bits x_1..x_n (qubit 1 = the most significant) of each word of the
    int array x, as uint64 0/1 along a new last axis."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    return np.asarray(x, dtype=np.uint64)[..., None] >> shifts & np.uint64(1)


def _pack_rows(entries: np.ndarray) -> np.ndarray:
    """Packed rows of 0/1 matrices (..., rows, cols): bit j is column j."""
    cols = np.arange(entries.shape[-1], dtype=np.uint64)
    return (entries.astype(np.uint64) << cols).sum(axis=-1)


@lru_cache(maxsize=8)
def _cubic_slots(n: int, monomials: tuple):
    """The checked, sorted cubic monomials, once for every block of x:
    their count, the sorted position first[t] of the t-th distinct one's
    first copy, and the t of each monomial {i, m, k} as slot[i, m, k]
    (first.size for none), read-only as the cache shares them."""
    monos = PhaseFunction.from_polynomial(n, monomials).monomials
    if bad := [mono for mono in monos if len(mono) > 3]:
        raise ValueError(f"monomial {bad[0]} has degree > 3")
    cubic = np.array([mono for mono in monos if len(mono) == 3], dtype=np.int64).reshape(-1, 3)
    first = np.flatnonzero(np.diff(cubic, axis=0, prepend=-1).any(axis=1))
    slot = np.full((n, n, n), first.size)
    for order in permutations(cubic[first].T - 1):
        slot[order] = np.arange(first.size)
    first.flags.writeable = slot.flags.writeable = False
    return len(cubic), first, slot


def hypergraph_derivative_matrix(n: int, monomials, x, keep=None) -> np.ndarray:
    """Second-derivative matrices N(x) of a degree-<=3 phase polynomial at
    each word of the int array x, as packed rows (bit k-1 of row m-1 is
    entry (m, k)) of shape ``x.shape + (n,)``.  ``keep[..., t]``, when
    given, says whether the t-th sorted cubic monomial is in each matrix.

    Entry (m, k) is the parity over cubic monomials {i, m, k} of x_i (the
    bit of the displacement word at the third vertex).  Lower-degree
    monomials contribute nothing to the bilinear form.  Always hollow
    symmetric.
    """
    count, first, slot = _cubic_slots(n, tuple(map(tuple, monomials)))
    kept = np.ones(count, np.uint8) if keep is None else np.asarray(keep, np.uint8)
    # a repeated monomial (the sorted list holds its copies side by side)
    # counts by the parity of the copies kept
    kept = np.add.reduceat(kept, first, axis=-1, dtype=np.uint8) & 1
    kept = np.concatenate([kept, np.zeros(kept.shape[:-1] + (1,), np.uint8)], axis=-1)
    bits = _qubit_bits(n, x).astype(np.uint8)
    return _pack_rows(np.einsum("...i,...imk->...mk", bits, kept[..., slot]) & 1)


#: largest n of random3_sampled_bounds that the CLI runs: its default 2000
#: samples take ~0.6 s at n = 40 (O(n^3) array work each) on a 2-core Xeon
SAMPLED_RANK_QUBIT_CAP = 40

#: edge flags (n^3 per matrix) gathered at once by random3_sampled_bounds
RANK_BLOCK_ENTRIES = 1 << 22


def random3_sampled_bounds(n: int, samples: int,
                           rng: np.random.Generator) -> VarianceBounds:
    """Monte Carlo bracket 2^(E rank) <= E l1^2 <= E 2^rank on the mean
    1/2-DFE second moment over random third-order hypergraphs, the
    sampled counterpart of :func:`random3_variance_bounds`: each sample
    draws a fresh edge set (each cubic edge kept with probability 1/2)
    and a uniform x, and takes the rank of N(x).  The matrices are built
    and ranked in blocks of samples, so memory does not grow with them."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    triples = list(combinations(range(1, n + 1), 3))
    block = max(1, RANK_BLOCK_ENTRIES // n**3)
    ranks = np.empty(samples)
    for lo in range(0, samples, block):
        draws = [(rng.random(len(triples)) < 0.5, rng.integers(0, 1 << n))
                 for _ in range(min(block, samples - lo))]
        keep, x = map(np.array, zip(*draws))
        ranks[lo:lo + len(draws)] = f2_rank(hypergraph_derivative_matrix(n, triples, x, keep))
    return VarianceBounds(lower=float(2.0 ** ranks.mean()),
                          upper=float(np.mean(2.0**ranks)),
                          method="sampled-rank")


def hollow_symmetric_rank_count(n: int, rank: int):
    """Exact count N(n, rank) of n x n hollow-symmetric F2 matrices of the
    given rank.  Zero for odd ranks; exact integer arithmetic."""
    if rank < 0 or rank > n:
        raise ValueError(f"rank {rank} outside 0..{n}")
    if rank % 2 == 1:
        return 0
    h = rank // 2
    val = Fraction(1)
    for i in range(1, h + 1):
        val *= Fraction(2 ** (2 * i - 2), 2 ** (2 * i) - 1)
    for i in range(2 * h):
        val *= 2 ** (n - i) - 1
    if val.denominator != 1:
        raise ArithmeticError(f"N({n},{rank}) = {val} is not integral")
    return val.numerator


def hollow_rank_distribution(n: int) -> dict:
    """r(n, h) = N(n, 2h) / 2^(n(n-1)/2) as exact fractions, h = 0..n//2."""
    total = 1 << (n * (n - 1) // 2)
    r = {h: Fraction(hollow_symmetric_rank_count(n, 2 * h), total)
         for h in range(n // 2 + 1)}
    if sum(r.values()) != 1:
        raise ArithmeticError("rank distribution does not sum to 1")
    return r


def complete3_rank(n: int, x):
    """F2 rank of the complete 3-hypergraph derivative matrix at x (an int,
    giving an int, or an int array, giving an array), via the closed form
    N(x)_{m,k} = |x| + x_m + x_k mod 2 (m != k)."""
    bits = _qubit_bits(n, x)
    weight = bits.sum(axis=-1)[..., None, None]
    entries = (weight + bits[..., :, None] + bits[..., None, :]) & np.uint64(1)
    ranks = f2_rank(_pack_rows(entries * (1 - np.eye(n, dtype=np.uint64))))
    return int(ranks) if ranks.ndim == 0 else ranks


def _complete3_weight_classes(n: int) -> list[tuple[int, int]]:
    """(C(n, w), rank) for each Hamming weight w of x on the complete
    3-hypergraph, whose derivative-matrix rank depends on |x| alone."""
    if n < 3:
        raise ValueError("n >= 3 required")
    words = np.array([((1 << w) - 1) << (n - w) for w in range(n + 1)], dtype=np.uint64)
    return [(math.comb(n, w), rank)
            for w, rank in enumerate(complete3_rank(n, words).tolist())]


def complete3_l1_exact(n: int) -> float:
    """Pauli l1-norm of the complete 3-hypergraph state via the exact
    identity l1 = E_x 2^(rank N(x) / 2), grouping x by Hamming weight."""
    total = sum(count * 2.0 ** (rank / 2.0)
                for count, rank in _complete3_weight_classes(n))
    return total / (1 << n)


def complete3_variance_bounds(n: int) -> VarianceBounds:
    """Closed-form bracket 2^(E_x rank) <= l1^2 <= E_x 2^rank on the
    1/2-DFE second moment of the complete 3-hypergraph state, with the
    expectations taken exactly over the Hamming-weight classes of x."""
    classes = _complete3_weight_classes(n)
    mean_rank = Fraction(sum(c * r for c, r in classes), 1 << n)
    upper = Fraction(sum(c * (1 << r) for c, r in classes), 1 << n)
    return VarianceBounds(lower=2.0 ** float(mean_rank), upper=float(upper),
                          method="closed-form-complete")


def random3_variance_bounds(n: int) -> VarianceBounds:
    """Closed-form bracket 2^(E rank) <= E l1^2 <= E 2^rank on the mean
    1/2-DFE second moment over random third-order hypergraphs (each cubic
    edge kept with probability 1/2) and uniform x.

    x = 0 gives rank 0.  For x != 0, N(x) x = 0 and N(x) is uniform over
    the hollow-symmetric matrices with that kernel vector, so its rank law
    is r(n-1, h) of the (n-1)-dimensional quotient.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    p0 = Fraction(1, 1 << n)
    r = hollow_rank_distribution(n - 1)
    mean_rank = (1 - p0) * sum(2 * h * p for h, p in r.items())
    upper = p0 + (1 - p0) * sum(p * 4**h for h, p in r.items())
    return VarianceBounds(lower=2.0 ** float(mean_rank), upper=float(upper),
                          method="closed-form-random")


# ---------------------------------------------------------------------------
# Haar-average l1 closed form


#: coefficients c_k of Gamma(m + 1/2) / Gamma(m) ~ sqrt(m) sum_k c_k m^-k,
#: k = 1..5; the truncation error is below 1e-18 for m >= 256
_HALF_GAMMA_SERIES = (-1 / 8, 1 / 128, 5 / 1024, -21 / 32768, -399 / 262144)


def _log_half_gamma_ratio(m: int) -> float:
    """log(Gamma(m + 1/2) / Gamma(m)) for m = 2^(n-1): from exact gamma
    values while they fit in a float (m <= 128), else from the asymptotic
    series, which a few terms make exact to rounding there."""
    if m <= 128:
        return math.log(math.gamma(m + 0.5) / math.gamma(m))
    return 0.5 * math.log(m) + math.log1p(
        sum(c / m**k for k, c in enumerate(_HALF_GAMMA_SERIES, 1)))


def haar_l1_mean_log(n: int) -> float:
    """log of the exact Haar-average Pauli l1-norm.

    The incomplete-beta bracket
    2B(1/2; m, m) - 4B(1/2; m+1, m) - B(m, m) + 2B(m+1, m), m = 2^(n-1),
    reduces algebraically to 2^(1-2m)/m, so the mean is
    2^-n + (4^n - 1) Gamma(2^n) / (2^n Gamma(m)^2) * 2^(1-2m)/m.  The
    duplication formula Gamma(2m) 2^(1-2m) / Gamma(m)^2 =
    Gamma(m + 1/2) / (sqrt(pi) Gamma(m)) turns the second term into
    2 (1 - 4^-n) Gamma(m + 1/2) / (sqrt(pi) Gamma(m)), whose log sums a few
    terms of size ~log m instead of log-gammas of size ~m log m that
    cancel.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    log_main = (_LN2 + math.log1p(-(4.0**-n)) - 0.5 * math.log(math.pi)
                + _log_half_gamma_ratio(2 ** (n - 1)))
    return float(np.logaddexp(-n * _LN2, log_main))


def haar_l1_mean_closed_form(n: int) -> float:
    """Exact Haar-average Pauli l1-norm; approaches sqrt(2^(n+1)/pi)."""
    return math.exp(haar_l1_mean_log(n))


# ---------------------------------------------------------------------------
# Dirichlet estimator for the phase-stripped l1-norm

def stripped_l1_base_terms(n: int) -> float:
    """Closed small terms of the stripped-l1 estimator: identity class,
    Z-type class, and X-type class contributions."""
    d = 2.0**n
    return 1.0 / d + (d - 1.0) / d * math.sqrt(2.0 / (math.pi * d)) \
        + math.pi * (d - 1.0) / (4.0 * d)


#: Dirichlet entries drawn at once by haar_stripped_l1_estimate
DIRICHLET_BATCH = 1 << 22


def haar_stripped_l1_estimate(n: int, samples: int, rng: np.random.Generator):
    """Monte Carlo estimate (mean, stderr) of the Haar-average l1-norm of
    the phase-stripped state, via Dirichlet(1,...,1) probability vectors.

    Each draw evaluates base + (d-1)(d-2)/d * |S|, d = 2^n, where S sums
    sqrt(p0 p1) - sqrt(p2 p3) over consecutive quadruples of the sampled
    probability vector; the class-count prefactor (d-1)(d-2)/d is checked
    against brute-force stripping at n <= 6.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 2:
        raise ValueError("n >= 2 required (quadruple structure)")
    d = 1 << n
    base = stripped_l1_base_terms(n)
    pref = (d - 1.0) * (d - 2.0) / d
    per_batch = max(1, DIRICHLET_BATCH // d)
    vals = np.empty(samples, dtype=float)
    done = 0
    while done < samples:
        b = min(per_batch, samples - done)
        e = rng.standard_exponential((b, d))
        p = e / e.sum(axis=1, keepdims=True)
        q = np.sqrt(p).reshape(b, d // 4, 4)
        s = (q[:, :, 0] * q[:, :, 1] - q[:, :, 2] * q[:, :, 3]).sum(axis=1)
        vals[done:done + b] = base + pref * np.abs(s)
        done += b
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr
