"""Test-input builders and reference formulas that `fidest` itself never
needs: gates applied to amplitude arrays, a density matrix as the
mixture of its eigenvectors, an MPS amplitude read by direct contraction,
dense <-> packed F2 matrices and the dense F2 rank oracle, frame codes
from Z/X/Y labels, the Pauli claims of a QWC partition, the all-complex
Pauli expectation kernel, the per-shot DFE draw, a mixture's entries as
one sum, and two closed forms the Haar and Dirichlet tests compare
against."""

import math

import numpy as np

from fidest.errors import NumericalHealthError
from fidest.estimation import QWC_TOL, _in_blocks, _weights
from fidest.f2 import CHUNK_BYTES, fwht, pauli_phase, xor_diagonals
from fidest.states import Mixture, PhaseFunction, RealMPS, StateVector


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
