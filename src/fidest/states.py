"""State construction and manipulation: phase/hypergraph/Dicke/Haar/MPS
states, phase stripping, depolarizing noise, exact fidelity, and Born
laws in product measurement frames.

Two immutable state types exist: a pure ``StateVector``, and a
``Mixture`` sum_k w_k |psi_k><psi_k| + u I/2^n of pure members plus white
noise, which holds trajectory mixtures, spectral decompositions and
depolarizing noise alike.  Both share one interface, so no other module
branches on the type:

  n                  -- qubit count
  entries(rows, cols) -- the matrix elements rho[rows, cols] (broadcast);
                        ``f2.xor_diagonals`` and ``density_matrix`` read
                        rho through them.  They are float64 when every
                        pure part has exactly real amplitudes, and then
                        ``f2.pauli_expectation_rows`` transforms them in
                        real arithmetic
  born_laws(frames)  -- computational outcome law after each frame rotation
                        (frames as ``frame_codes`` arrays)
  fidelity(psi)      -- <psi|rho|psi>
  pure_ensemble()    -- (w, amps, u): rho = sum_k w_k |amps_k><amps_k|
                        + u I/2^n, the form the shot engine samples from
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CapExceededError, DimensionError, NumericalHealthError
from .f2 import popcount_array

_SQRT2 = np.sqrt(2.0)

#: single-qubit rotations taking the requested eigenbasis to the
#: computational basis (applied to the state before a Z measurement).
#: Y convention: eigenvalue +1 of Y maps to bit 0, i.e. V Z V^dag = Y with
#: V = [[1, 1], [i, -i]]/sqrt(2); we apply V^dag.
_FRAME_GATES = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "Y": np.array([[1, -1j], [1, 1j]], dtype=complex) / _SQRT2,
}
_FRAME_LABELS = "ZXY"  # frame code k is the label _FRAME_LABELS[k]
_CODE_GATES = np.array([_FRAME_GATES[lab] for lab in _FRAME_LABELS])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of n qubits; 2^n complex amplitudes, unit norm.

    When every imaginary part is exactly zero (phase states with phases
    0 and pi, Dicke, MPS and phase-stripped states), ``entries`` returns
    float64 products of the real parts: the same values as the complex
    products, so Pauli transforms of its rows run in real arithmetic."""

    n: int
    amplitudes: np.ndarray = field(repr=False)
    #: the real parts as float64 when every imaginary part is 0, else None
    _real: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise DimensionError(f"expected 2^{self.n} amplitudes, got {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-9:
            raise NumericalHealthError(f"norm^2 = {norm}, state not normalized")
        amps = amps.copy()
        amps.flags.writeable = False
        real = None if amps.imag.any() else amps.real.copy()
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_real", real)

    @classmethod
    def normalized(cls, amps) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        n = amps.shape[0].bit_length() - 1
        if amps.shape[0] != 1 << n:
            raise DimensionError(f"length {amps.shape[0]} is not a power of two")
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise NumericalHealthError("cannot normalize the zero vector")
        return cls(n, amps / norm)

    def entries(self, rows, cols) -> np.ndarray:
        if self._real is not None:
            return self._real[rows] * self._real[cols]
        return self.amplitudes[rows] * np.conj(self.amplitudes[cols])

    def born_laws(self, frames) -> np.ndarray:
        rows = _rotate_leading(self.amplitudes, frame_codes(frames, self.n))
        return np.abs(rows) ** 2

    def fidelity(self, psi: "StateVector") -> float:
        return float(abs(np.vdot(psi.amplitudes, self.amplitudes)) ** 2)

    def pure_ensemble(self):
        return np.ones(1), self.amplitudes[None, :], 0.0


class PhaseFunction:
    """A phase function phi: F2^n -> [0, 2pi), as a dense table or a
    Boolean multilinear polynomial (monomials carry phase pi each)."""

    def __init__(self, n: int, *, table=None, monomials=None):
        if (table is None) == (monomials is None):
            raise ValueError("exactly one of table/monomials required")
        self.n = n
        self._table = None
        self.monomials = None
        if table is not None:
            table = np.mod(np.asarray(table, dtype=float), 2 * np.pi)
            if table.shape != (1 << n,):
                raise DimensionError(f"expected 2^{n} angles, got {table.shape}")
            table.flags.writeable = False
            self._table = table
        else:
            canon = []
            for mono in monomials:
                idxs = tuple(sorted(set(int(i) for i in mono)))
                if len(idxs) != len(tuple(mono)):
                    raise ValueError(f"monomial {mono} repeats an index")
                if not idxs:
                    raise ValueError("empty monomial")
                if idxs[0] < 1 or idxs[-1] > n:
                    raise DimensionError(f"monomial {mono} outside qubits 1..{n}")
                canon.append(idxs)
            self.monomials = tuple(sorted(canon))

    @classmethod
    def from_table(cls, n: int, table) -> "PhaseFunction":
        return cls(n, table=table)

    @classmethod
    def from_polynomial(cls, n: int, monomials) -> "PhaseFunction":
        return cls(n, monomials=monomials)

    def table(self) -> np.ndarray:
        """Dense table of all 2^n angles (computed once and cached)."""
        if self._table is None:
            x = np.arange(1 << self.n, dtype=np.uint64)
            parity = np.zeros(1 << self.n, dtype=np.uint64)
            for mono in self.monomials:
                mask = np.uint64(sum(1 << (self.n - i) for i in mono))
                parity ^= ((x & mask) == mask).astype(np.uint64)
            table = np.mod(np.pi * parity.astype(float), 2 * np.pi)
            table.flags.writeable = False
            self._table = table
        return self._table

    def is_real(self, tol: float = 1e-12) -> bool:
        """True when every phase lies within tol of 0, pi or 2pi, i.e.
        e^(i phi) is real."""
        if self.monomials is not None:
            return True
        table = self.table()
        return bool(np.all(np.minimum.reduce([np.abs(table), np.abs(table - np.pi),
                                              np.abs(table - 2 * np.pi)]) <= tol))


@dataclass(frozen=True, eq=False)
class Mixture:
    """sum_k weights[k] |members[k]><members[k]| + mixed I/2^n, with pure
    members, in O(len(members) 2^n) memory: every law below is the
    weighted sum of the members' laws plus ``mixed`` times that of I/2^n."""

    n: int
    weights: tuple
    members: tuple
    mixed: float = 0.0

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        members = tuple(self.members)
        mixed = float(self.mixed)
        if len(weights) != len(members):
            raise DimensionError(f"{len(weights)} weights for {len(members)} members")
        if not 0.0 <= mixed <= 1.0:
            raise ValueError(f"mixed={mixed} outside [0, 1]")
        if any(w < -1e-12 for w in weights):
            raise NumericalHealthError("negative mixture weight")
        if any(psi.n != self.n for psi in members):
            raise DimensionError("member qubit count mismatch")
        total = sum(weights) + mixed
        if abs(total - 1.0) > 1e-9:
            raise NumericalHealthError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mixed", mixed)

    def entries(self, rows, cols) -> np.ndarray:
        # white + member 1 + member 2 + ..., in that order, white being
        # [row = col] mixed / 2^n.  A float sum is the same either way
        # round, so the sum runs in place in the members' terms, and white
        # costs no array: +0.0 everywhere (turning -0.0 into +0.0), then
        # mixed / 2^n where row = col.
        rows, cols = np.asarray(rows), np.asarray(cols)
        white = self.mixed / (1 << self.n)
        if not self.members:
            return (rows == cols) * white
        total = np.asarray(self.weights[0] * self.members[0].entries(rows, cols))
        total += 0.0
        total.reshape(-1)[np.flatnonzero(rows == cols)] += white
        for w, psi in zip(self.weights[1:], self.members[1:]):
            term = w * psi.entries(rows, cols)
            if np.iscomplexobj(term) and not np.iscomplexobj(total):
                term += total
                total = term
            else:
                total += term
        return total

    def born_laws(self, frames) -> np.ndarray:
        codes = frame_codes(frames, self.n)
        white = np.full((len(codes), 1 << self.n), self.mixed / (1 << self.n))
        return sum((w * psi.born_laws(codes)
                    for w, psi in zip(self.weights, self.members)), white)

    def fidelity(self, psi: StateVector) -> float:
        return float(sum((w * member.fidelity(psi)
                          for w, member in zip(self.weights, self.members)),
                         self.mixed / (1 << self.n)))

    def pure_ensemble(self):
        amps = np.array([psi.amplitudes for psi in self.members],
                        dtype=complex).reshape(-1, 1 << self.n)
        return np.array(self.weights), amps, self.mixed


def density_matrix(state) -> np.ndarray:
    """The 2^n x 2^n density matrix of any state: entries over all (x, y)."""
    x = np.arange(1 << state.n)
    return state.entries(x[:, None], x[None, :])


# ---------------------------------------------------------------------------
# Constructors


def phase_state(phi: PhaseFunction) -> StateVector:
    """D(phi)|+>^n, i.e. amplitudes 2^(-n/2) e^(i phi(x))."""
    n = phi.n
    table = phi.table()
    amps = np.exp(1j * table) / np.sqrt(1 << n)
    # e^(i pi) evaluates to -1 + 1.2e-16 i: a phase of exactly pi is -1,
    # so Boolean-polynomial phases give exactly real amplitudes
    amps.imag[table == np.pi] = 0.0
    return StateVector(n, amps)


def hypergraph_state(n: int, hyperedges: Sequence[Sequence[int]]):
    """prod_A C_A Z |+>^n and its {0, pi} Boolean-polynomial phase.

    Each hyperedge is a subset of qubits 1..n (size >= 1); size-1 edges are
    Z gates, size-2 edges CZ gates, size-3 edges CCZ gates, and so on.
    """
    phi = PhaseFunction.from_polynomial(n, [tuple(edge) for edge in hyperedges])
    return phase_state(phi), phi


def complete_3_hypergraph_edges(n: int) -> list[tuple[int, int, int]]:
    """All (n choose 3) triples: edges of the complete 3-hypergraph K_n."""
    return list(combinations(range(1, n + 1), 3))


def dicke_state(n: int, k: int) -> StateVector:
    """Uniform superposition over weight-k computational strings."""
    if not 0 <= k <= n:
        raise DimensionError(f"k={k} outside 0..{n}")
    idx = np.arange(1 << n, dtype=np.uint64)
    amps = (popcount_array(idx) == k).astype(complex)
    return StateVector.normalized(amps)


def haar_random(n: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state via normalized i.i.d. complex Gaussians."""
    z = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector.normalized(z)


def phase_strip(psi: StateVector):
    """Split psi into its modulus state and phase function, psi = D(phi)|psi_strip>.

    Zero amplitudes get phase 0 by convention.
    """
    amps = psi.amplitudes
    moduli = np.abs(amps)
    angles = np.where(moduli > 0, np.angle(amps), 0.0)
    phi = PhaseFunction.from_table(psi.n, np.mod(angles, 2 * np.pi))
    return StateVector(psi.n, moduli.astype(complex)), phi


def depolarize(psi: StateVector, p: float) -> Mixture:
    """(1-p)|psi><psi| + p I/2^n, held in closed form."""
    return Mixture(psi.n, (1.0 - p,), (psi,), p)


def depolarizing_p_for_fidelity(n: int, fidelity: float) -> float:
    """Depolarizing strength giving the requested fidelity with a pure target:
    solve (1-p) + p/2^n = fidelity."""
    return (1.0 - fidelity) / (1.0 - 2.0**-n)


def exact_fidelity(rho, psi: StateVector) -> float:
    """<psi|rho|psi>, the ground truth all estimators target."""
    if rho.n != psi.n:
        raise DimensionError("qubit count mismatch")
    return float(rho.fidelity(psi))


# ---------------------------------------------------------------------------
# Real matrix-product states


@dataclass(frozen=True, eq=False)
class RealMPS:
    """Real MPS: per-site chi x chi tensors gammas[i, x] with boundary
    row vector ``left`` and column vector ``right``; the amplitude of x
    is left . gamma[1](x_1) ... gamma[n](x_n) . right."""

    n: int
    chi: int
    gammas: np.ndarray = field(repr=False)  # (n, 2, chi, chi)
    left: np.ndarray = field(repr=False)  # (chi,)
    right: np.ndarray = field(repr=False)  # (chi,)

    def __post_init__(self) -> None:
        gam = np.asarray(self.gammas, dtype=float)
        left = np.asarray(self.left, dtype=float)
        right = np.asarray(self.right, dtype=float)
        if gam.shape != (self.n, 2, self.chi, self.chi):
            raise DimensionError(f"gammas shape {gam.shape}")
        if left.shape != (self.chi,) or right.shape != (self.chi,):
            raise DimensionError("boundary vector shape mismatch")
        for arr in (gam, left, right):
            arr.flags.writeable = False
        object.__setattr__(self, "gammas", gam)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def norm_squared(self) -> float:
        env = np.outer(self.left, self.left).reshape(-1)
        for i in range(self.n):
            h = sum(np.kron(self.gammas[i, x], self.gammas[i, x]) for x in range(2))
            env = env @ h
        return float(env @ np.outer(self.right, self.right).reshape(-1))


def random_real_mps(n: int, chi: int, rng: np.random.Generator) -> RealMPS:
    """Random real Gaussian MPS, rescaled to unit norm."""
    gammas = rng.standard_normal((n, 2, chi, chi))
    left = rng.standard_normal(chi)
    right = rng.standard_normal(chi)
    mps = RealMPS(n, chi, gammas, left, right)
    norm2 = mps.norm_squared()
    if norm2 <= 0:
        raise NumericalHealthError("degenerate random MPS (zero norm)")
    return RealMPS(n, chi, gammas * norm2 ** (-0.5 / n), left, right)


#: largest qubit count and bond dimension contracted to a dense vector
MPS_QUBIT_CAP = 12
MPS_BOND_CAP = 8


def mps_to_statevector(m: RealMPS) -> StateVector:
    """Contract an MPS to a dense (real) state vector, left to right."""
    if m.n > MPS_QUBIT_CAP or m.chi > MPS_BOND_CAP:
        raise CapExceededError(
            f"conversion capped at n<={MPS_QUBIT_CAP}, chi<={MPS_BOND_CAP}")
    acc = m.left.reshape(1, m.chi)  # (#prefixes, chi)
    for i in range(m.n):
        acc = np.einsum("pa,xab->pxb", acc, m.gammas[i]).reshape(-1, m.chi)
    amps = acc @ m.right
    return StateVector.normalized(amps.astype(complex))


# ---------------------------------------------------------------------------
# Measurement


def frame_codes(frames, n: int) -> np.ndarray:
    """Frames as an integer array (len(frames), n) of per-qubit codes 0, 1
    or 2 for a Z, X or Y measurement (qubit 1 first)."""
    codes = np.asarray(frames, dtype=np.int64).reshape(len(frames), n)
    if codes.size and (codes.min() < 0 or codes.max() > 2):
        raise ValueError("frame codes must be 0, 1 or 2")
    return codes


def _rotate_leading(amps: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Row j of amps (broadcast) with the frame gates of codes[j] applied
    to qubits 1..k, k = codes.shape[1]: shape (len(codes), 2^n)."""
    count = codes.shape[0]
    rows = np.broadcast_to(amps, (count, amps.shape[-1]))
    for q in range(codes.shape[1]):
        g = _CODE_GATES[codes[:, q]][:, :, :, None, None]
        shaped = rows.reshape(count, 1 << q, 2, -1)
        low, high = shaped[:, :, 0], shaped[:, :, 1]
        rows = np.stack([g[:, 0, 0] * low + g[:, 0, 1] * high,
                         g[:, 1, 0] * low + g[:, 1, 1] * high], axis=2)
    return rows.reshape(count, -1)
