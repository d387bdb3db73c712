"""Phase-point samplers: draw Pauli points a = (ax, az) following the
l_2a distribution |c(a)|^(2a) / sum_b |c(b)|^(2a) of a target state, with
structure-exploiting fast paths for phase states, Dicke states, Bell
sampling of real states, and real matrix-product states.

Every sampler has one protocol:
  n, alpha        -- system size and the sampling exponent
  norm_sum        -- sum_b |c(b)|^(2 alpha) (the estimator weight scale)
  draw(rng, size) -- (ax, az): two int64 arrays of `size` X- and Z-words
                     (qubit 1 = MSB), each point with nonzero coefficient
  distribution()  -- the law as a dense 4^n vector over (ax << n) | az
                     (Dicke: n <= 12, MPS: n <= 6)
The samplers that know c(a) (Exact, UniformX, Dicke) also give
coefficients(ax, az), the c(a) of each word pair; ExactSampler and
UniformXSampler also give support(), the (ax, az, c) of their support, and
draw_index(rng, size), positions into it, with draw the support read at
draw_index from the same generator state.  Every draw is one batch: the
MPS sampler counts, site by site, the cumulative conditionals at or below
each draw's uniform, UniformXSampler asks for uniform integers, and every
other sampler searches a CdfTable.  A CdfTable holds +inf for the
last sum of each row, so ``ExactSampler.distribution()`` reads its true
total from the table's ``total``.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DimensionError, NumericalHealthError
from .f2 import (COEFF_TOL, CoeffVector, fwht, pauli_phase, popcount_array,
                 row_chunks)
from .states import RealMPS, StateVector

BELL_TOTAL_QUBIT_CAP = 24
#: drawn words are int64, so Dicke draws hold n <= 63
DICKE_QUBIT_CAP = 63


#: guide buckets per table entry: a value's start lies a mean of about
#: 1 / BUCKETS_PER_ENTRY sums below its answer
BUCKETS_PER_ENTRY = 2


def _guides(cum: np.ndarray):
    """Scale buckets / total and guide of each row of cum, the total being
    the row's last sum, in O(size) per row: guide[j] for j = 0 .. buckets
    counts the sums s before the last with s * scale < j (as rounded),
    from a bincount of floor(s * scale) + 1, at most buckets + 1."""
    count, size = cum.shape
    width = BUCKETS_PER_ENTRY * size + 1
    scale = (width - 1) / cum[:, -1]
    edge = (cum[:, :-1] * scale[:, None]).astype(np.int64)  # the floor
    edge += 1
    edge += (width + 1) * np.arange(count)[:, None]
    counts = np.bincount(edge.reshape(-1), minlength=count * (width + 1))
    del edge  # the table can be large: keep one temporary at a time
    guide = counts.reshape(count, width + 1)[:, :width]
    np.cumsum(guide, axis=1, out=guide)
    return scale, guide.astype(np.min_scalar_type(size - 1))


def _step_up(cum: np.ndarray, pos: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Step each start pos up past the sums cum[pos] <= v, in place: the
    +inf last sum of a row stops every value there."""
    step = np.flatnonzero(cum[pos] <= v)
    while step.size:
        pos[step] += 1
        step = step[cum[pos[step]] <= v[step]]
    return pos


class CdfTable:
    """Inverse CDF over rows of ascending nonnegative cumulative sums, each
    `size` long: search(v, rows) is min(searchsorted(cum[rows[j]], v[j],
    side="right"), size - 1) for each value j with 0 <= v[j] < total
    (1 + 1 / buckets), the total being the row's last sum, in O(1)
    expected steps per value.  A 1-D cum is a table of one row, searched
    with rows = 0 and no row offsets.

    Each row has buckets = BUCKETS_PER_ENTRY * size buckets and
    scale = buckets / total.  Its guide is shifted by one bucket: for
    j = 0 .. buckets it holds the number of the sums before the last with
    s * scale < j, so a value v starts from guide[trunc(v * scale)] with
    no -1 and no clip, as v * scale truncates to at most buckets.  The
    start never passes v's answer: rounding x * scale is monotone in x,
    so each sum counted there has s * scale < v * scale as rounded, hence
    s < v; and the last sum is never counted, which caps the start at
    size - 1.  Each value then steps up to its own answer.

    The table holds its own copy of the sums, with each row's last sum
    set to +inf: no step tests for the row's end, and a value at or above
    the total stops at size - 1.  ``total`` keeps the true last sums.
    Guides are row-relative, in the smallest unsigned type that holds
    size - 1.  ``empty(count, size)`` makes a table whose rows ``fill``
    writes when they are first needed: rows never filled are never
    written, and never searched."""

    def __init__(self, cum: np.ndarray):
        cum = np.array(cum, dtype=float)  # a copy: its last sums become +inf
        self.cum = cum.reshape(-1, cum.shape[-1])
        self.scale, self.guide = _guides(self.cum)
        self.total = self.cum[:, -1].copy()
        self.cum[:, -1] = np.inf

    @classmethod
    def empty(cls, count: int, size: int) -> "CdfTable":
        table = cls.__new__(cls)
        table.cum = np.empty((count, size))
        table.total = np.empty(count)
        table.scale = np.empty(count)
        table.guide = np.empty((count, BUCKETS_PER_ENTRY * size + 1),
                               dtype=np.min_scalar_type(size - 1))
        return table

    def fill(self, rows: np.ndarray, cum: np.ndarray) -> None:
        """Set the given rows to cum, one row each, with their guides."""
        self.total[rows] = cum[:, -1]
        self.scale[rows], self.guide[rows] = _guides(cum)
        self.cum[rows] = cum
        self.cum[rows, -1] = np.inf

    def search(self, v: np.ndarray, rows=0) -> np.ndarray:
        if self.cum.shape[0] == 1:
            pos = self.guide[0][(v * self.scale[0]).astype(np.int64)]
            return _step_up(self.cum[0], pos.astype(np.int64), v)
        bucket = (v * self.scale[rows]).astype(np.int64)
        bucket += rows * self.guide.shape[1]
        first = rows * self.cum.shape[1]  # flat offset of each value's row
        pos = np.add(self.guide.reshape(-1)[bucket], first, dtype=np.int64)
        pos = _step_up(self.cum.reshape(-1), pos, v)
        pos -= first
        return pos


class ExactSampler:
    """Cumulative-table sampler over the dense coefficient vector.  Its
    support, the points with |c| > COEFF_TOL, is indexed in flat-index
    order: ``draw_index`` draws positions, so a caller can form tables
    once over ``support()`` and read them per shot."""

    def __init__(self, coeffs: CoeffVector, alpha: float):
        self.n = coeffs.n
        self.alpha = float(alpha)
        self.coeffs = coeffs
        self._support = np.nonzero(np.abs(coeffs.values) > COEFF_TOL)[0]
        if self._support.size == 0:
            raise NumericalHealthError("all coefficients are zero")
        self._support_c = coeffs.values[self._support]
        weights = np.abs(self._support_c) ** (2.0 * self.alpha)
        self.norm_sum = float(weights.sum())
        self._table = CdfTable(np.cumsum(weights / self.norm_sum))

    def support(self):
        """(ax, az, c) of every support point, in ``draw_index`` order."""
        return (self._support >> self.n, self._support & ((1 << self.n) - 1),
                self._support_c)

    def draw_index(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Positions in the support of `size` points drawn from the law."""
        return self._table.search(rng.random(size))

    def draw(self, rng: np.random.Generator, size: int):
        labels = self._support[self.draw_index(rng, size)]
        return labels >> self.n, labels & ((1 << self.n) - 1)

    def coefficients(self, ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        return self.coeffs.values[(ax << self.n) | az]

    def distribution(self) -> np.ndarray:
        out = np.zeros(1 << (2 * self.n))
        cum = self._table.cum[0].copy()
        cum[-1] = self._table.total[0]  # the table holds +inf there
        out[self._support] = np.diff(cum, prepend=0.0)
        return out


class UniformXSampler:
    """l_2a sampler for phase states: uniform over the 2^n X-type points,
    every coefficient exactly +2^-n.  Its support is indexed by ax itself
    (position k is the point (k, 0)), so ``draw`` is ``support()`` read at
    ``draw_index``, and a caller can form tables once over the support as
    for ``ExactSampler``."""

    def __init__(self, n: int, alpha: float = 0.5):
        self.n = n
        self.alpha = float(alpha)
        self.norm_sum = float((1 << n) * (2.0 ** (-n)) ** (2.0 * self.alpha))

    def support(self):
        """(ax, az, c) of the 2^n X-only points, in ``draw_index`` order."""
        size = 1 << self.n
        return (np.arange(size, dtype=np.int64), np.zeros(size, dtype=np.int64),
                np.full(size, 2.0 ** (-self.n)))

    def draw_index(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Positions in the support of `size` uniform draws."""
        return rng.integers(0, 1 << self.n, size=size)

    def draw(self, rng: np.random.Generator, size: int):
        return self.draw_index(rng, size), np.zeros(size, dtype=np.int64)

    def coefficients(self, ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        return np.where(az == 0, 2.0 ** (-self.n), 0.0)

    def distribution(self) -> np.ndarray:
        out = np.zeros(1 << (2 * self.n))
        out[np.arange(1 << self.n) << self.n] = 2.0 ** (-self.n)
        return out


# ---------------------------------------------------------------------------
# Dicke states


def _alt_binomial_sum(w: int, rest: int, half: int) -> int:
    """K(w, rest, half) = sum_l (-1)^l C(w, l) C(rest, half - l)."""
    return sum((-1) ** l * math.comb(w, l) * math.comb(rest, half - l)
               for l in range(max(0, half - rest), min(w, half) + 1))


@lru_cache(maxsize=None)
def _dicke_class_table(n: int, k: int):
    """Class decomposition of the l1 distribution of Dic(n, k).

    A class is (p, w1, w2): p = |a_x| (even), w1 = |a_z & a_x|,
    w2 = |a_z & ~a_x|.  All points of a class share |c| and sign; the
    class mass is count * |c|.  Returns (classes, masses, l1, keys,
    coeffs): the classes in ascending order as rows of an int array, their
    masses, their sum, and each class's key (p (n+1) + w1) (n+1) + w2 and
    signed coefficient.
    """
    classes = []
    masses = []
    coeffs = []
    denom = (1 << n) * math.comb(n, k)
    for p in range(0, min(2 * k, n) + 1, 2):
        for w1 in range(p + 1):
            k1 = _alt_binomial_sum(w1, p - w1, p // 2)
            for w2 in range(n - p + 1):
                k2 = _alt_binomial_sum(w2, n - p - w2, k - p // 2)
                val = k1 * k2
                if val == 0:
                    continue
                if w1 % 2 == 1:
                    raise AssertionError("odd w1 must yield K1 = 0")
                sign = (-1) ** (w1 // 2) * (1 if val > 0 else -1)
                c = abs(val) / denom
                coeffs.append(sign * c)
                count = math.comb(n, p) * math.comb(p, w1) * math.comb(n - p, w2)
                classes.append((p, w1, w2))
                masses.append(count * c)
    masses = np.array(masses)
    classes = np.array(classes, dtype=np.int64)
    keys = classes @ [(n + 1) ** 2, n + 1, 1]
    return classes, masses, float(masses.sum()), keys, np.array(coeffs)


class DickeSampler:
    """l1-sampler for Dicke states Dic(n, k) with k <= n/2, via the
    (p, w1, w2) class table.  A batch of draws is one class search and
    one argsort of a (draws, n) block of uniforms per CHUNK_BYTES of
    them: about 1 us per draw at n = 20 (2-core Xeon)."""

    alpha = 0.5

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n // 2:
            raise DimensionError(f"k={k} outside 0..{n//2}")
        self.n = n
        self.k = k
        (self._classes, masses, self.norm_sum, self._keys,
         self._coeffs) = _dicke_class_table(n, k)
        self._table = CdfTable(np.cumsum(masses / self.norm_sum))

    def coefficients(self, ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        """c(a) of each word pair: the entry of its class (p, w1, w2), read
        off the popcounts, or 0 for a class with no entry."""
        p, w1, w2 = (popcount_array(w.astype(np.uint64)).astype(np.int64)
                     for w in (ax, az & ax, az & ~ax))
        key = (p * (self.n + 1) + w1) * (self.n + 1) + w2
        pos = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
        return np.where(self._keys[pos] == key, self._coeffs[pos], 0.0)

    def draw(self, rng: np.random.Generator, size: int):
        """Each draw's class (p, w1, w2), then a uniform permutation of the
        qubits: its first p carry X, the first w1 and the w2 after p Z."""
        if self.n > DICKE_QUBIT_CAP:
            raise CapExceededError(
                f"Dicke draws capped at n <= {DICKE_QUBIT_CAP} (int64 words)")
        classes = self._classes[self._table.search(rng.random(size))]
        ax, az = np.empty((2, size), dtype=np.int64)
        at = np.arange(self.n)  # position in each draw's permutation
        for sl in row_chunks(size, 8 * self.n):  # n uniforms per draw
            p, w1, w2 = classes[sl].T[:, :, None]
            bit = np.int64(1) << np.argsort(rng.random((p.size, self.n)), axis=1)
            ax[sl] = np.where(at < p, bit, 0).sum(axis=1)
            z = (at < w1) | ((at >= p) & (at < p + w2))
            az[sl] = np.where(z, bit, 0).sum(axis=1)
        return ax, az

    def distribution(self) -> np.ndarray:
        if self.n > 12:
            raise CapExceededError("dense Dicke distribution capped at n <= 12")
        labels = np.arange(1 << (2 * self.n))
        c = self.coefficients(labels >> self.n, labels & ((1 << self.n) - 1))
        return np.abs(c) / self.norm_sum


# ---------------------------------------------------------------------------
# Bell-circuit sampling (l2, real states)


class BellCircuitSampler:
    """l2-sampler for a real state via Bell sampling on two copies:
    transversal CNOTs from register 1 to register 2, a Hadamard layer on
    register 1, then a full computational measurement (b1, b2) emits
    a = (a_x, a_z) = (b2, b1) with probability <T_a>^2 / 2^n."""

    alpha = 1.0

    def __init__(self, stripped: StateVector):
        if 2 * stripped.n > BELL_TOTAL_QUBIT_CAP:
            raise CapExceededError(
                f"Bell sampling capped at 2n <= {BELL_TOTAL_QUBIT_CAP}")
        if np.max(np.abs(stripped.amplitudes.imag)) > 1e-12:
            raise NumericalHealthError("Bell sampler requires a real state")
        self.n = n = stripped.n
        amps = stripped.amplitudes.real
        mat = np.outer(amps, amps)  # mat[x1, x2]
        x1 = np.arange(1 << n)
        # CNOTs: target register 2 becomes x2 ^ x1
        mat = mat[x1[:, None], x1[:, None] ^ np.arange(1 << n)[None, :]]
        mat = fwht(mat.T).T / math.sqrt(1 << n)  # H^n on register 1
        self._probs = (mat**2).ravel()  # index b1 * 2^n + b2
        self._probs /= self._probs.sum()
        self._table = CdfTable(np.cumsum(self._probs))
        self.norm_sum = 2.0 ** (-n)  # sum_a c_a^2 for a pure state

    def draw(self, rng: np.random.Generator, size: int):
        j = self._table.search(rng.random(size))
        return j & ((1 << self.n) - 1), j >> self.n  # (b2, b1)

    def distribution(self) -> np.ndarray:
        dim = 1 << self.n
        return self._probs.reshape(dim, dim).T.ravel()


# ---------------------------------------------------------------------------
# Real-MPS l2 sampling


class MPSL2Sampler:
    """Sequential conditional l2-sampler for real MPS, with O(chi^4)
    memory for the precomputed right environments.  A batch of draws
    moves site by site in lockstep: about 20 us per draw at n = 6,
    chi = 4, and 0.5 ms at n = 12, chi = 8 (2-core Xeon)."""

    alpha = 1.0
    DRIFT_TOL = 1e-6

    def __init__(self, mps: RealMPS):
        self.n = mps.n
        self.chi = mps.chi
        chi2 = mps.chi * mps.chi
        # doubled transfer operators g[site, ax, az] = gamma(0) (x) gamma(ax)
        # + (-1)^az gamma(1) (x) gamma(1 - ax), from kron[site, x, y]
        kron = np.einsum("ixab,iycd->ixyacbd", mps.gammas, mps.gammas)
        kron = kron.reshape(mps.n, 2, 2, chi2, chi2)
        same, swap = kron[:, 0], kron[:, 1, ::-1]
        self._g = np.stack([same + swap, same - swap], axis=2)
        # right environments as chi x chi matrices Hm_k (one copy each);
        # hvec_k = H^{k+1} ... H^{n} (R (x) R)
        hvec = np.kron(mps.right, mps.right)
        self._right = [None] * (mps.n + 1)
        self._right[mps.n] = hvec.reshape(mps.chi, mps.chi)
        for i in range(mps.n - 1, -1, -1):
            hvec = self._g[i, 0, 0] @ hvec
            self._right[i] = hvec.reshape(mps.chi, mps.chi)
        self._left = np.kron(mps.left, mps.left)
        self._l0 = np.outer(self._left, self._left)
        m0 = float(self._marginals(self._l0, 0))
        if abs(m0 - 1.0) > 1e-6:
            raise NumericalHealthError(f"k=0 marginal {m0}, expected 1")
        self.norm_sum = 2.0 ** (-self.n)

    def _marginals(self, lmat: np.ndarray, k: int) -> np.ndarray:
        """2^-k <l_k| SW23 |r_k> of each left environment in the stack
        lmat (..., chi^2, chi^2); equals P(a_1..a_k) of the l2 law."""
        hm = self._right[k]
        l4 = lmat.reshape(lmat.shape[:-2] + (self.chi,) * 4)
        return np.einsum("...abcd,ac,bd->...", l4, hm, hm) * 2.0 ** (-k)

    def draw(self, rng: np.random.Generator, size: int):
        """Site by site, each draw's letter j = 2 bx + bz from the four
        conditionals P(a_1..a_k) / P(a_1..a_(k-1)): the number of its
        first three cumulative conditionals at or below its uniform, which
        is min(searchsorted(cum, u, "right"), 3).  A drawn prefix's left
        environment is the outer square of the row vector
        (L (x) L) g_1 ... g_k: a draw carries that vector."""
        chi2 = self.chi ** 2
        # site i's four operators side by side, in letter order
        g = self._g.reshape(self.n, 4, chi2, chi2).transpose(0, 2, 1, 3)
        g = g.reshape(self.n, chi2, 4 * chi2)
        u = rng.random((size, self.n))
        ax, az = np.zeros((2, size), dtype=np.int64)
        # per draw: four chi^4 candidate environments
        for sl in row_chunks(size, 32 * self.chi ** 4):
            rows = np.arange(u[sl].shape[0])
            vec = np.broadcast_to(self._left, (rows.size, chi2))
            prev = self._marginals(self._l0, 0)
            for i in range(self.n):
                cands = (vec @ g[i]).reshape(-1, 4, chi2)
                outer = np.einsum("...i,...j->...ij", cands, cands)
                weights = np.maximum(self._marginals(outer, i + 1), 0.0)
                total = weights.sum(axis=1)
                drift = np.max(np.abs(total / prev - 1.0))
                if drift > self.DRIFT_TOL:
                    warnings.warn(f"MPS conditional drift {drift:.3e} "
                                  f"at site {i + 1}", RuntimeWarning)
                cum = np.cumsum(weights / total[:, None], axis=1)
                cum /= cum[:, -1:]
                j = (cum[:, :3] <= u[sl, i, None]).sum(axis=1)
                ax[sl] = (ax[sl] << 1) | (j >> 1)
                az[sl] = (az[sl] << 1) | (j & 1)
                vec = cands[rows, j]
                prev = weights[rows, j]
        return ax, az

    def _transfer(self, i: int, ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        """The doubled transfer operator of site i (qubit i + 1) for each
        word pair."""
        shift = self.n - 1 - i
        return self._g[i, (ax >> shift) & 1, (az >> shift) & 1]

    def expectation(self, ax, az) -> np.ndarray:
        """<T_(ax, az)> of each word pair by direct transfer contraction
        (real MPS): the contraction times the real part of i^|ax & az|."""
        ax, az = np.asarray(ax, dtype=np.int64), np.asarray(az, dtype=np.int64)
        right = self._right[self.n].ravel()
        out = np.empty(ax.size)
        for sl in row_chunks(ax.size, 8 * self.chi ** 4):
            vec = np.broadcast_to(self._left, (ax[sl].size, 1, self._left.size))
            for i in range(self.n):
                vec = vec @ self._transfer(i, ax[sl], az[sl])
            out[sl] = vec[:, 0] @ right
        return pauli_phase(ax, az).real * out

    def point_probability(self, ax, az) -> np.ndarray:
        """Chain-rule probability of each word pair (marginal telescoping)."""
        ax, az = np.asarray(ax, dtype=np.int64), np.asarray(az, dtype=np.int64)
        out = np.empty(ax.size)
        for sl in row_chunks(ax.size, 8 * self.chi ** 4):
            lmat = np.broadcast_to(self._l0, (ax[sl].size,) + self._l0.shape)
            for i in range(self.n):
                g = self._transfer(i, ax[sl], az[sl])
                lmat = g.transpose(0, 2, 1) @ lmat @ g
            out[sl] = self._marginals(lmat, self.n)
        return np.maximum(out, 0.0)

    def distribution(self) -> np.ndarray:
        if self.n > 6:
            raise CapExceededError("dense MPS distribution capped at n <= 6")
        ax, az = np.divmod(np.arange(1 << (2 * self.n)), 1 << self.n)
        out = self.point_probability(ax, az)
        return out / out.sum()
