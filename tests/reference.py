"""Test-input builders and reference formulas that `fidest` itself never
needs: the butterfly Walsh-Hadamard transform, gates applied to amplitude
arrays, a density matrix as the mixture of its eigenvectors, an MPS
amplitude read by direct contraction, dense <-> packed F2 matrices and
the dense F2 rank oracle, frame codes
from Z/X/Y labels, the Pauli claims of a QWC partition, the all-complex
Pauli expectation kernel, the inverse CDF by binary search, the exact
sampler's and the per-shot DFE, FOFE and MPS draws, a mixture's
entries as one sum, and two closed forms the Haar and Dirichlet tests compare
against."""

import math

import numpy as np

from fidest.errors import NumericalHealthError
from fidest.estimation import (QWC_TOL, _computational_law, _in_blocks,
                               _weights)
from fidest.f2 import (_REAL_POWERS_OF_I, CHUNK_BYTES, COEFF_TOL, fwht,
                       pauli_phase, popcount_array, xor_diagonals)
from fidest.samplers import CdfTable
from fidest.states import Mixture, PhaseFunction, RealMPS, StateVector


def fwht_butterfly(v) -> np.ndarray:
    """The Walsh-Hadamard transform along the last axis by radix-2
    butterflies over a C-ordered copy of v, two stages fused per pass
    where they fit: the oracle that ``f2.fwht``'s matrix products must
    match."""
    a = np.array(v, copy=True, order="C")
    size, h = a.shape[-1], 1
    while h < size:
        if 4 * h <= size:
            x = a.reshape(-1, 4, h)
            s0, d0 = x[:, 0] + x[:, 1], x[:, 0] - x[:, 1]
            s1, d1 = x[:, 2] + x[:, 3], x[:, 2] - x[:, 3]
            x[:, 0], x[:, 1] = s0 + s1, d0 + d1
            x[:, 2], x[:, 3] = s0 - s1, d0 - d1
            h *= 4
        else:
            x = a.reshape(-1, 2, h)
            top = x[:, 0].copy()
            x[:, 0] = top + x[:, 1]
            x[:, 1] = top - x[:, 1]
            h *= 2
    return a


def apply_phase(phi: PhaseFunction, psi: StateVector) -> StateVector:
    """D(phi)|psi>, the diagonal phase gate applied to a pure state."""
    return StateVector(psi.n, np.exp(1j * phi.table()) * psi.amplitudes)


def apply_single_qubit(amps: np.ndarray, n: int, i: int, gate: np.ndarray) -> np.ndarray:
    """A 2x2 gate applied to 1-based qubit i of an amplitude array."""
    shaped = amps.reshape((1 << (i - 1), 2, 1 << (n - i)))
    return np.einsum("st,atb->asb", gate, shaped).reshape(amps.shape)


def spectral_mixture(matrix) -> Mixture:
    """A density matrix as the Mixture of its eigenvectors, weighted by
    the positive part of its spectrum: the same rho as any other ensemble
    for it, from different members."""
    vals, vecs = np.linalg.eigh(matrix)
    keep = vals > 0.0
    n = matrix.shape[0].bit_length() - 1
    return Mixture(n, tuple(vals[keep] / vals[keep].sum()),
                   tuple(StateVector(n, v) for v in vecs[:, keep].T))


def mps_amplitude(mps: RealMPS, x: int) -> float:
    """left . gamma[1](x_1) ... gamma[n](x_n) . right, qubit 1 = MSB of x."""
    vec = mps.left
    for i in range(mps.n):
        vec = vec @ mps.gammas[i, (x >> (mps.n - 1 - i)) & 1]
    return float(vec @ mps.right)


def f2_pack(dense) -> np.ndarray:
    """Packed uint64 rows of a stack of 0/1 matrices (..., rows, cols),
    bit j of a row being its column j."""
    arr = np.asarray(dense, dtype=np.uint64) & np.uint64(1)
    return np.bitwise_or.reduce(arr << np.arange(arr.shape[-1], dtype=np.uint64),
                                axis=-1)


def f2_unpack(rows, cols: int) -> np.ndarray:
    """The 0/1 matrices (..., rows, cols) of packed uint64 rows."""
    words = np.asarray(rows, dtype=np.uint64)[..., None]
    return (words >> np.arange(cols, dtype=np.uint64) & np.uint64(1)).astype(np.int64)


def naive_rank(dense: np.ndarray) -> int:
    """Binary rank of one 0/1 matrix by dense Gauss-Jordan elimination,
    entry by entry: the oracle for ``f2.f2_rank``."""
    m = np.array(dense, dtype=np.int64) % 2
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
    return r


def label_codes(frames) -> np.ndarray:
    """Frames written as Z/X/Y label sequences (qubit 1 first), as the
    int64 code array (len(frames), n) that ``born_laws`` takes: 0, 1, 2
    for Z, X, Y."""
    return np.array([["ZXY".index(lab) for lab in frame] for frame in frames],
                    dtype=np.int64)


def partition_claims(part) -> list:
    """The Pauli indices each group of a QWC partition claims, in frame
    position order: the positions s where c^(S) = fwht(chat) / 2^n
    exceeds QWC_TOL / 2 in magnitude, as the Pauli (s & mx, s & mz) of
    the group's frame (qubit 1 = MSB)."""
    n = part.n
    place = 1 << np.arange(n - 1, -1, -1)
    s = np.arange(1 << n)
    claims = []
    for frame, chat in zip(part.groups.frame, part.groups.chat):
        mx, mz = int((frame != 0) @ place), int((frame != 1) @ place)
        keep = s[np.abs(fwht(chat) / (1 << n)) > QWC_TOL / 2]
        claims.append(tuple((((keep & mx) << n) | (keep & mz)).tolist()))
    return claims


def pauli_expectation_rows_complex(state, words) -> np.ndarray:
    """``f2.pauli_expectation_rows`` with every row in complex arithmetic:
    i^|ax & az| times the complex WHT of each XOR-diagonal row, real part
    kept, largest imaginary part checked.  The oracle for its real path."""
    words = np.asarray(words, dtype=np.int64)
    dim = 1 << state.n
    az = np.arange(dim)
    out = np.empty((words.size, dim))
    step = max(1, CHUNK_BYTES // (16 * dim))
    worst = 0.0
    for lo in range(0, words.size, step):
        ax = words[lo:lo + step]
        vals = pauli_phase(ax[:, None], az) * fwht(xor_diagonals(state, ax))
        worst = max(worst, float(np.max(np.abs(vals.imag))))
        out[lo:lo + ax.size] = vals.real
    if worst > 1e-9:
        raise NumericalHealthError(f"expectation has imaginary part {worst}")
    return out


def dfe_values_per_shot(sampler, shots: int, rng, expectations) -> np.ndarray:
    """alpha-DFE shot values formed shot by shot: each block draws its
    points as word pairs, then its outcome uniforms, and forms w(a) and
    <T_a> for every shot.  The oracle that ``estimation._dfe_values``, with
    its per-call support tables, must equal bit for bit."""
    def block(count: int) -> np.ndarray:
        ax, az = sampler.draw(rng, count)
        u = rng.random(count)
        w = _weights(sampler, ax, az)
        return np.where(u >= (1.0 + expectations(ax, az)) / 2.0, -w, w)
    return _in_blocks(shots, block)


def fofe_values_per_shot(rho, sampler, phases, shots: int, rng) -> np.ndarray:
    """FOFE shot values formed shot by shot: each block draws its points as
    word pairs, then each branch's outcome uniforms, and forms w(a) and the
    cross-term exponent m = |ax & az| + 2 |az & (b' ^ ax)| (+3 on the
    imaginary branch) for every shot, the Hadamard-test cross term being
    cross / 2 = Re i^m Re e + Re i^(m-1) Im e for e = rho[b', b' ^ ax].
    The oracle that ``estimation._fofe_values``, with its per-call support
    tables, must equal bit for bit."""
    d = np.clip(_computational_law(rho), 0.0, None)
    computational = CdfTable(np.cumsum(d))
    total = computational.total[0]

    def outcomes(ax, az, branch: str, u: np.ndarray):
        y = computational.search(u[0] * total)
        b = y ^ (ax & -(u[1] >= 0.5).astype(ax.dtype))
        flip = b ^ ax
        m = (popcount_array(ax & az) + 2 * popcount_array(az & flip)
             + (3 if branch == "imag" else 0))
        e = rho.entries(b, flip)
        half = _REAL_POWERS_OF_I[m & 3] * e.real
        if np.iscomplexobj(e):
            half += _REAL_POWERS_OF_I[(m + 3) & 3] * e.imag
        p0 = 0.5 + half / (d[b] + d[flip])
        return b, 1.0 - 2.0 * (u[2] >= p0)

    tables = [(np.cos(phi.table()), np.sin(phi.table())) for phi in phases]
    real = [phi.is_real() for phi in phases]
    branches = ("real",) if all(real) else ("real", "imag")

    def block(count: int) -> np.ndarray:
        ax, az = sampler.draw(rng, count)
        drawn = [outcomes(ax, az, branch, rng.random((3, count)))
                 for branch in branches]
        w = _weights(sampler, ax, az)
        values = np.empty((len(tables), count))
        for row, (cos, sin), real_phase in zip(values, tables, real):
            b, sign = drawn[0]
            flip = b ^ ax
            row[:] = w * sign * (cos[flip] * cos[b] + sin[flip] * sin[b])
            if not real_phase:
                b, sign = drawn[1]
                flip = b ^ ax
                row += w * sign * (sin[flip] * cos[b] - cos[flip] * sin[b])
        return values
    return _in_blocks(shots, block)


def inverse_cdf(cum, v) -> np.ndarray:
    """min(searchsorted(cum, v, side="right"), cum.size - 1): the position
    ``samplers.CdfTable.search`` must return for each value v, by binary
    search of the 1-D ascending sums cum."""
    return np.minimum(np.searchsorted(cum, v, side="right"), len(cum) - 1)


def exact_draws(coeffs, alpha: float, rng, size: int) -> np.ndarray:
    """Support positions of `size` draws from the l_2a law of coeffs: the
    support |c| > COEFF_TOL in flat-index order, its cumulative law as
    ``ExactSampler`` forms it, and ``inverse_cdf`` at `size` uniforms.
    The oracle that ``ExactSampler.draw_index`` must equal draw for draw."""
    c = coeffs.values[np.abs(coeffs.values) > COEFF_TOL]
    weights = np.abs(c) ** (2.0 * alpha)
    return inverse_cdf(np.cumsum(weights / weights.sum()), rng.random(size))


def mps_draws_per_shot(sampler, rng, size: int):
    """MPS l2 draws one at a time, site by site: the four candidate left
    environments g^T l g, their marginals, and ``inverse_cdf`` of their
    normalised cumulative law at the draw's uniform for that site, the
    uniforms drawn draw by draw as ``rng.choice`` would.  The oracle that
    ``MPSL2Sampler.draw``, with its draws in lockstep, must equal draw for
    draw."""
    u = rng.random((size, sampler.n))
    ax, az = np.zeros((2, size), dtype=np.int64)
    for s in range(size):
        lmat = sampler._l0
        for i in range(sampler.n):
            cands = np.array([g.T @ lmat @ g for g in sampler._g[i].reshape(
                (4,) + lmat.shape)])
            weights = np.maximum(sampler._marginals(cands, i + 1), 0.0)
            cum = np.cumsum(weights / weights.sum())
            j = int(inverse_cdf(cum / cum[-1], u[s, i]))
            ax[s] = (ax[s] << 1) | (j >> 1)
            az[s] = (az[s] << 1) | (j & 1)
            lmat = cands[j]
    return ax, az


def mixture_entries_sum(rho: Mixture, rows, cols) -> np.ndarray:
    """rho[rows, cols] as one sum, white noise first and then each member
    in turn: the value ``Mixture.entries`` must equal bit for bit."""
    white = rho.mixed * ((np.asarray(rows) == np.asarray(cols)) / (1 << rho.n))
    return sum((w * psi.entries(rows, cols)
                for w, psi in zip(rho.weights, rho.members)), white)


def haar_l1_asymptote(n: int) -> float:
    """Large-n limit sqrt(2^(n+1)/pi) of the Haar-average Pauli l1-norm."""
    return math.sqrt(2.0 ** (n + 1) / math.pi)


def dirichlet_sqrt_pair_moment(n: int) -> float:
    """E[sqrt(p_i p_j)] for distinct entries of Dirichlet(1,...,1) on 2^n
    cells: Gamma(2^n) Gamma(3/2)^2 / Gamma(2^n + 1)."""
    d = 2.0**n
    return math.exp(math.lgamma(d) + 2.0 * math.lgamma(1.5)
                    - math.lgamma(d + 1.0))
