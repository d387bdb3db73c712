"""Binary-symplectic Pauli algebra, the batched F2 rank of packed-row
matrices, and the Walsh-Hadamard transform.

Conventions
-----------
An n-qubit Pauli operator (up to phase) is indexed by a point
a = (ax, az) in F2^(2n) and realized as

    T_a = prod_i  i^(ax_i az_i) X^(ax_i) Z^(az_i),

so its matrix elements are

    <y|T_a|x> = delta_(y, x XOR ax) * i^popcount(ax & az) * (-1)^popcount(az & x).

T_a is Hermitian and T_a^2 = I.

Qubit 1 is the *most significant* bit of every 2^n basis index and of the
n-bit words ax, az, so qubit i sits at bit n - i; every module shifts
bits by this rule directly.

Every Pauli is a word pair (ax, az): Python ints, or two int64 arrays for
a batch, as the samplers hand them to the shot engine.  The flat index
(ax << n) | az only addresses dense 4^n arrays, such as
``CoeffVector.values`` or a sampler's ``distribution()``.

Every Pauli expectation comes from :func:`pauli_expectation_rows`, one
Walsh-Hadamard transform per XOR-diagonal row.  A real-amplitude state's
``entries`` are float64, so its rows take a real transform; complex rows
take the complex one.  Both give the same values.

Every Walsh-Hadamard transform (coefficient tables, a QWC partition's
``chat``, NLDFE's group laws, the Bell sampler) is :func:`fwht`: each row
of 2^n entries, viewed as a 2^(n//2) x 2^(n - n//2) matrix X, becomes
H X H' with cached +-1 Sylvester matrices H and H', two small BLAS
matrix products per block of rows in O(2^n (2^(n//2) + 2^(n - n//2)))
work per row.

Every F2 rank (``magic``'s derivative matrices, ``tomography``'s MUB
generators) comes from :func:`f2_rank`, one batched elimination over
packed uint64 rows of up to 64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DimensionError, NumericalHealthError

#: coefficients with |c| below this threshold count as zero everywhere
COEFF_TOL = 1e-10

#: hard cap for dense 4^n coefficient vectors (cost O(8^n))
COEFF_CAP = 10


#: i^k for k = 0..3, so that i^w is an exact table lookup
_POWERS_OF_I = np.array([1, 1j, -1, -1j])
#: the real part of i^k, the factor a real transform takes
_REAL_POWERS_OF_I = _POWERS_OF_I.real.copy()

if hasattr(np, "bitwise_count"):

    def popcount_array(arr: np.ndarray) -> np.ndarray:
        """Per-element population count of an unsigned integer array."""
        return np.bitwise_count(arr)

else:  # pragma: no cover - numpy < 2.0 fallback

    def popcount_array(arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=np.uint64)
        out = np.zeros(arr.shape, dtype=np.uint64)
        while arr.any():
            out += arr & 1
            arr = arr >> 1
        return out


def symplectic_product(ax1, az1, ax2, az2):
    """Symplectic form <a, b> mod 2 of word pairs a = (ax1, az1) and
    b = (ax2, az2), broadcast; zero iff T_a and T_b commute."""
    return popcount_array(np.asarray(ax1 & az2 ^ az1 & ax2, dtype=np.uint64)) & 1


# ---------------------------------------------------------------------------
# Pauli action and expectations


def _apply_pauli_amps(n: int, ax: int, az: int, amps: np.ndarray) -> np.ndarray:
    """T_a applied to an amplitude array, a = (ax, az)."""
    idx = np.arange(1 << n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (popcount_array(idx & np.uint64(az)) & np.uint64(1)).astype(float)
    phase = 1j ** ((ax & az).bit_count() & 3)
    out = np.empty(1 << n, dtype=complex)
    out[idx ^ np.uint64(ax)] = phase * signs * amps
    return out


def pauli_phase(ax, az) -> np.ndarray:
    """i^|ax & az| of integer word arrays (broadcast)."""
    return _POWERS_OF_I[popcount_array((ax & az).astype(np.uint64)) & 3]


#: size of each block of XOR diagonals transformed at once
CHUNK_BYTES = 1 << 20


def row_chunks(count: int, row_bytes: int) -> list:
    """Slices over `count` rows of `row_bytes` each, CHUNK_BYTES a slice."""
    step = max(1, CHUNK_BYTES // row_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def xor_diagonals(state, ax) -> np.ndarray:
    """Rows rho[x, x ^ ax_j] over every x, one per word ax_j, read through
    the state's ``entries``: every Pauli expectation and Hadamard-test law
    is built from them."""
    x = np.arange(1 << state.n)
    return state.entries(x, x ^ np.asarray(ax, dtype=np.int64)[:, None])


def pauli_expectation_rows(state, words) -> np.ndarray:
    """<T_(ax, az)> of any state for each X-word ax in ``words`` (rows)
    and every Z-word az (columns):

        <T_a> = i^|ax & az| sum_x rho[x, x ^ ax] (-1)^(az.x),

    one Walsh-Hadamard transform of the ``xor_diagonals`` row of each
    word, in blocks of about CHUNK_BYTES.  The values are real for any
    valid state; the largest imaginary residual is checked.

    A real-amplitude state has float64 rows (see ``states.StateVector``),
    and their transform F is real too: i^|ax & az| F is then F, 0 or -F as
    the exponent is 0, odd or 2 mod 4, and the imaginary residual is the
    largest |F| at an odd exponent.  That is what the complex transform of
    the same rows gives, value for value, at about half its cost."""
    words = np.asarray(words, dtype=np.int64)
    dim = 1 << state.n
    az = np.arange(dim, dtype=np.uint64)
    out = np.empty((words.size, dim))
    step = max(1, CHUNK_BYTES // (16 * dim))
    worst = 0.0
    for lo in range(0, words.size, step):
        ax = words[lo:lo + step]
        power = popcount_array(ax.astype(np.uint64)[:, None] & az) & 3
        rows = xor_diagonals(state, ax)
        block = out[lo:lo + ax.size]
        if rows.dtype.kind == "c":
            vals = _POWERS_OF_I[power] * fwht(rows)
            worst = max(worst, float(np.max(np.abs(vals.imag))))
            block[...] = vals.real
        else:
            block[...] = rows
            _fwht_stages(block)
            worst = max(worst, float(np.max(np.abs(np.where(power & 1, block, 0.0)))))
            block *= _REAL_POWERS_OF_I[power]
    if worst > 1e-9:
        raise NumericalHealthError(f"expectation has imaginary part {worst}")
    return out


# ---------------------------------------------------------------------------
# Dense coefficient vectors


@dataclass(frozen=True, eq=False)
class CoeffVector:
    """Dense vector of Pauli coefficients c(a) = 2^-n <psi|T_a|psi>,
    indexed by (ax << n) | az."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (4**self.n,):
            raise DimensionError(f"expected 4^{self.n} values, got {vals.shape}")
        purity = float(np.sum(vals**2)) * 2**self.n
        if purity > 1.0 + 1e-6:
            raise NumericalHealthError(f"purity 2^n sum c^2 = {purity} exceeds 1")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def pauli_coefficients(psi) -> CoeffVector:
    """All 4^n Pauli coefficients c(a) = 2^-n <T_a> of a state (2^n
    transforms of 2^n entries, O(4^n 2^(n/2)) in all), capped at
    n <= COEFF_CAP."""
    n = psi.n
    if n > COEFF_CAP:
        raise CapExceededError(
            f"n={n} exceeds coefficient cap {COEFF_CAP} (would cost ~{8**n:.2e} flops)")
    values = pauli_expectation_rows(psi, np.arange(1 << n))
    values /= 1 << n
    return CoeffVector(n, values.reshape(-1))


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform


def fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis,
    ``out[..., b] = sum_a v[..., a] (-1)^(a.b)`` with no normalization
    (so fwht(fwht(v)) = len(v) v), over a C-ordered float64 (or
    complex128) copy of v; two small matrix products per row
    (``_fwht_stages``)."""
    a = np.array(v, dtype=complex if np.iscomplexobj(v) else float, order="C")
    _fwht_stages(a)
    return a


@lru_cache(maxsize=None)
def _sylvester(k: int, inner: int = 1) -> np.ndarray:
    """H_(2^k) (x) I_inner, H_(2^k)[a, b] = (-1)^(a.b) the +-1 Sylvester
    matrix; cached and read-only."""
    idx = np.arange(1 << k, dtype=np.uint64)
    h = 1.0 - 2.0 * (popcount_array(idx[:, None] & idx) & 1)
    h = np.kron(h, np.eye(inner))
    h.flags.writeable = False
    return h


#: the most multiply-adds in one matrix product of the transform (a single
#: row may exceed it): its operands stay in cache, and OpenBLAS runs a
#: product this small on one thread, with no hand-off to a second one (which
#: stalled for milliseconds when the other core was busy)
FWHT_PRODUCT = 1 << 18


def _fwht_stages(a: np.ndarray) -> None:
    """The transform of ``fwht``, in place on a C-contiguous float64 or
    complex128 array, by the Kronecker factoring H_(2^n) = H_(2^hi) (x)
    H_(2^lo), hi = n // 2: each row, viewed as a 2^hi x 2^lo matrix X,
    becomes H_hi X H_lo.  A block of rows takes one matrix product for the
    X H_lo of all its rows, into one scratch block, and one batched
    product for H_hi (X H_lo), written back through ``out=``; a block's
    first product takes at most FWHT_PRODUCT multiply-adds (or one row).
    A complex row is its real and imaginary parts side by side,
    transformed by H_lo (x) I_2.  The products only add and subtract
    entries, so entries that are multiples of 2^-m, with sums in float
    range, transform exactly, as in any order; other rows agree with a
    butterfly to rounding."""
    size = a.shape[-1] if a.shape else 0
    if size & (size - 1) or size == 0:
        raise DimensionError(f"length {size} is not a power of two")
    n = size.bit_length() - 1
    hi, lo = n // 2, n - n // 2
    inner = 2 if a.dtype.kind == "c" else 1
    rows = a.reshape(-1, size).view(np.float64)
    h_hi, h_lo = _sylvester(hi), _sylvester(lo, inner)
    step = max(1, (FWHT_PRODUCT // h_lo.size) >> hi)
    scratch = np.empty((min(step, rows.shape[0]) << hi, h_lo.shape[0]))
    for start in range(0, rows.shape[0], step):
        x = rows[start:start + step].reshape(-1, 1 << hi, h_lo.shape[0])
        s = scratch[:x.shape[0] << hi]
        np.matmul(x.reshape(s.shape), h_lo, out=s)
        np.matmul(h_hi, s.reshape(x.shape), out=x)


# ---------------------------------------------------------------------------
# Packed F2 rank


def f2_rank(rows) -> np.ndarray:
    """Binary ranks of a stack of matrices of packed rows: ``rows`` has
    shape (..., m), one uint64 word per row with column j at bit j, and
    the int64 ranks have shape ``rows.shape[:-1]``.  One vectorised pass
    per column over the whole stack: XOR-ing each matrix's first row
    holding the column into every row holding it clears the column and
    the pivot row itself, so the rank counts the pivots."""
    rows = np.array(rows, dtype=np.uint64)
    if rows.ndim < 1:
        raise DimensionError("f2_rank needs an array of packed rows")
    ranks = np.zeros(rows.shape[:-1], dtype=np.int64)
    for col in range(int(np.bitwise_or.reduce(rows, axis=None)).bit_length()):
        hit = rows & np.uint64(1 << col) != 0
        pivot = np.take_along_axis(rows, hit.argmax(axis=-1, keepdims=True), axis=-1)
        rows ^= np.where(hit, pivot, np.uint64(0))
        ranks += hit.any(axis=-1)
    return ranks
