"""Binary-symplectic Pauli algebra, the batched F2 rank of packed-row
matrices, and the fast Walsh-Hadamard transform.

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

Every F2 rank (``magic``'s derivative matrices, ``tomography``'s MUB
generators) comes from :func:`f2_rank`, one batched elimination over
packed uint64 rows of up to 64 columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """All 4^n Pauli coefficients c(a) = 2^-n <T_a> of a state (total cost
    O(n 8^n)), capped at n <= COEFF_CAP."""
    n = psi.n
    if n > COEFF_CAP:
        raise CapExceededError(
            f"n={n} exceeds coefficient cap {COEFF_CAP} (would cost ~{8**n:.2e} flops)")
    values = pauli_expectation_rows(psi, np.arange(1 << n))
    values /= 1 << n
    return CoeffVector(n, values.reshape(-1))


# ---------------------------------------------------------------------------
# Fast Walsh-Hadamard transform


def fwht(v: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis,
    ``out[..., b] = sum_a v[..., a] (-1)^(a.b)`` with no normalization
    (so fwht(fwht(v)) = len(v) v), over a C-ordered copy of v; O(n 2^n)
    per row."""
    a = np.array(v, copy=True, order="C")
    _fwht_stages(a)
    return a


def _fwht_stages(a: np.ndarray) -> None:
    """The transform of ``fwht``, in place on a C-contiguous array (the
    stages write through reshaped views)."""
    size = a.shape[-1] if a.shape else 0
    if size & (size - 1) or size == 0:
        raise DimensionError(f"length {size} is not a power of two")
    h = 1
    while h < size:
        if 4 * h <= size:
            # two radix-2 stages fused: half the passes over the data, and
            # the same sums in the same order
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
