"""Magic quantifiers and analytic bounds: Pauli l-norms and stabilizer
Renyi entropies, direct-fidelity-estimation variance bounds, the
hypergraph second-derivative rank machinery with its closed-form
complete-graph and random-hypergraph brackets, the Haar-average l1 closed
form, and the Haar-average phase-stripped l1 from one characteristic-
function quadrature (Dawson's integral and Gauss-Legendre rules built
here from numpy and the stdlib, the rules formed once per process).

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
    del coeffs  # free the 4^n coefficient table once |c| is formed
    nonzero = absc > COEFF_TOL
    count = int(np.count_nonzero(nonzero))
    l1 = float(absc.sum())
    l2 = float(np.sqrt((1 << n) * np.sum(absc**2)))
    texp = absc[nonzero]  # |<T_a>| on the support
    del absc, nonzero
    texp *= 1 << n
    sre = {}
    for alpha in alphas:
        alpha = float(alpha)
        if alpha == 1.0:
            p = texp**2
            p /= 1 << n
            lp = np.log2(p)
            lp *= p
            sre[alpha] = float(-lp.sum() - n)
            del p, lp  # not alive under the next alpha's power
        else:
            s = float(np.sum(texp ** (2 * alpha)))
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
# Haar-average phase-stripped l1-norm by quadrature

def stripped_l1_base_terms(n: int) -> float:
    """Closed small terms of the Haar-average stripped l1: identity class,
    Z-type class, and X-type class contributions."""
    d = 2.0**n
    return 1.0 / d + (d - 1.0) / d * math.sqrt(2.0 / (math.pi * d)) \
        + math.pi * (d - 1.0) / (4.0 * d)


#: Rybicki's step and term count for Dawson's integral; the step error is
#: ~exp(-(pi / 2h)^2) and the dropped terms ~exp(-((2N - 1) h)^2), both
#: below 1e-16
_DAWSON_STEP = 0.2
_DAWSON_TERMS = 16

#: the Maclaurin series of Dawson's integral, F(x) = sum_k c_k x^(2k+1)
#: with c_k = (-2)^k / (2k+1)!!, used for |x| < _DAWSON_STEP: ten terms
#: leave ~1e-17 relative there
_DAWSON_SERIES = tuple((-2.0) ** k / math.prod(range(1, 2 * k + 2, 2))
                       for k in range(10))


def dawson(x) -> np.ndarray:
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt of an array,
    to ~1e-15 relative: the Maclaurin series below |x| = 0.2, else
    Rybicki's sum over odd n of exp(-(x - nh)^2) / (n sqrt(pi))
    (Numerical Recipes, section 6.10), centred on the even n0 nearest x/h."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    x2 = x * x
    small = np.zeros_like(x)
    for c in reversed(_DAWSON_SERIES):
        small *= x2
        small += c
    small *= x
    n0 = 2.0 * np.floor(0.5 * ax / _DAWSON_STEP + 0.5)
    xp = ax - n0 * _DAWSON_STEP
    total = np.zeros_like(x)
    for i in range(1, _DAWSON_TERMS + 1):
        odd = 2 * i - 1
        grow = np.exp(2.0 * _DAWSON_STEP * odd * xp)
        total += math.exp(-(odd * _DAWSON_STEP) ** 2) * (
            grow / (n0 + odd) + 1.0 / ((n0 - odd) * grow))
    big = np.copysign(np.exp(-xp * xp) * total / math.sqrt(math.pi), x)
    return np.where(ax < _DAWSON_STEP, small, big)


def _gauss_legendre(nodes: int, panels: int, lo: float, hi: float):
    """Composite Gauss-Legendre rule on [lo, hi]: ``nodes`` points on each
    of ``panels`` equal panels, ascending, with their weights.  The nodes
    on [-1, 1] come from Newton's method on the three-term Legendre
    recurrence from the cosine initial guesses: no LAPACK call, so no
    eigensolver workspace stays mapped."""

    def legendre(z):  # P_nodes(z) and its derivative
        p0, p1 = np.ones_like(z), z
        for j in range(2, nodes + 1):
            p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
        return p1, nodes * (z * p1 - p0) / (z * z - 1.0)

    z = np.cos(math.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))
    for _ in range(20):  # quadratic convergence: ~5 steps from these guesses
        p, dp = legendre(z)
        step = p / dp
        z = z - step
        if np.max(np.abs(step)) < 1e-14:
            break
    _, dp = legendre(z)
    half = 0.5 * (hi - lo) / panels
    starts = lo + 2.0 * half * np.arange(panels)
    return ((starts[:, None] + half * (1.0 + z)).ravel(),
            np.tile(half * 2.0 / ((1.0 - z * z) * dp * dp), panels))


#: the stripped-l1 quadrature: v = sqrt(e0) on [0, _V_MAX] (the density
#: 2v exp(-v^2) is ~1e-20 there) and tau = t sqrt(m) on [0, _TAU_MAX], each
#: in panels of one 16-point Gauss-Legendre rule; half the panels already
#: give the same values to ~1e-14 relative
_GL_NODES = 16
_V_MAX, _V_PANELS = 7.0, 4
_TAU_MAX, _TAU_PANELS = 12.0, 6


@lru_cache(maxsize=1)
def _stripped_rules():
    """The v nodes with weights times the density 2v exp(-v^2) of
    v = sqrt(e0), e0 ~ Exp(1), and the tau nodes with weights / tau^2,
    formed once and read-only as the cache shares them."""
    v, wv = _gauss_legendre(_GL_NODES, _V_PANELS, 0.0, _V_MAX)
    wv *= 2.0 * v * np.exp(-v * v)
    tau, wtau = _gauss_legendre(_GL_NODES, _TAU_PANELS, 0.0, _TAU_MAX)
    wtau /= tau * tau
    for a in (v, wv, tau, wtau):
        a.flags.writeable = False
    return v, wv, tau, wtau


def haar_stripped_l1_mean(n: int) -> float:
    """Exact Haar-average l1-norm of the phase-stripped state, n >= 2.

    It is base + (d-1)(d-2)/d * E|S|, d = 2^n, where S sums
    sqrt(p0 p1) - sqrt(p2 p3) over the m = d/4 consecutive quadruples of
    a Dirichlet(1,...,1) vector p (the class-count prefactor is checked
    against brute-force stripping in the tests).  With p = e/T, e_i iid
    Exp(1), each term is homogeneous of degree 1, so E|S| = E|X| / d for
    X the sum of m iid Y = sqrt(e0 e1) - sqrt(e2 e3), and

        E|X| = (2/pi) int_0^inf (1 - |phi_A(t)|^(2m)) / t^2 dt,
        phi_A(t) = E_e0[1 - s F(s/2) + i s (sqrt(pi)/2) exp(-s^2/4)],

    s = t sqrt(e0), F Dawson's integral.  1 - |phi_A|^2 is formed as
    (1 - Re)(1 + Re) - Im^2 and the 2m-th power through log1p/expm1, so
    no digit cancels at large m; past _TAU_MAX the integrand is 1/tau^2
    to rounding, whose tail integral is 1/_TAU_MAX.  That tail is exact to
    ~1e-14 relative from n = 6 on; it leaves ~1e-9 at n = 4 and ~1e-5 at
    n = 2, where |phi_A|^(2m) has not yet decayed at tau = 12.
    """
    if n < 2:
        raise ValueError("n >= 2 required (quadruple structure)")
    d = 2.0**n
    m = d / 4.0
    v, wv, tau, wtau = _stripped_rules()
    s = np.multiply.outer(tau / math.sqrt(m), v)
    re_gap = (s * dawson(0.5 * s)) @ wv  # 1 - Re phi_A
    im = (s * np.exp(-0.25 * s * s)) @ wv * (0.5 * math.sqrt(math.pi))
    gap = re_gap * (2.0 - re_gap) - im * im  # 1 - |phi_A|^2
    inner = float(-np.expm1(m * np.log1p(-gap)) @ wtau) + 1.0 / _TAU_MAX
    mean_abs_x = 2.0 / math.pi * math.sqrt(m) * inner
    return stripped_l1_base_terms(n) + (d - 1.0) * (d - 2.0) / d * mean_abs_x / d
