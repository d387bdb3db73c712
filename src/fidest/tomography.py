"""l2 state tomography via mutually unbiased bases: MUB construction
from GF(2^n) symplectic spreads (n <= 4), per-basis coefficient
estimation, simplex projection, the linear reconstruction identity, and
projection back onto the density-matrix cone.  States in and out are
density matrices (``np.ndarray``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import CapExceededError, DimensionError, NumericalHealthError
from .f2 import f2_rank, pauli_phase, popcount_array, symplectic_product

MUB_QUBIT_CAP = 4

#: primitive polynomials for GF(2^n), bit i = coefficient of x^i
_GF_POLY = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}


def _gf_mul(a: int, b: int, n: int) -> int:
    poly = _GF_POLY[n]
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= poly
    return res


def _gf_trace(a: int, n: int) -> int:
    t = 0
    x = a
    for _ in range(n):
        t ^= x
        x = _gf_mul(x, x, n)
    return t & 1


def _self_dual_basis(n: int) -> tuple:
    """A basis (b_1..b_n) of GF(2^n) with Tr(b_i b_j) = delta_ij."""
    elems = range(1, 1 << n)
    for cand in combinations(elems, n):
        ok = all(
            _gf_trace(_gf_mul(cand[i], cand[j], n), n) == (1 if i == j else 0)
            for i in range(n) for j in range(i, n))
        if ok:
            return cand
    raise NumericalHealthError(f"no self-dual basis found for n={n}")


@dataclass(frozen=True, eq=False)
class MUBBasis:
    """One MUB: the commuting Pauli class and its common eigenbasis
    (columns of `vectors`, ordered by descending sorting eigenvalue)."""

    n: int
    paulis: np.ndarray = field(repr=False)  # (2, 2^n - 1): the class's words ax, az
    vectors: np.ndarray = field(repr=False)  # (2^n, 2^n), columns orthonormal

    def __post_init__(self) -> None:
        # read-only: one cached family is shared by every caller
        self.paulis.flags.writeable = False
        self.vectors.flags.writeable = False


@dataclass(frozen=True, eq=False)
class MUBFamily:
    n: int
    bases: tuple  # 2^n + 1 MUBBasis entries; the first is the Z class


def _dense_pauli(n: int, ax, az) -> np.ndarray:
    """The matrix of T_(ax, az): column x holds i^|ax & az| (-1)^|az & x|
    in row x ^ ax."""
    x = np.arange(1 << n, dtype=np.uint64)
    ax, az = np.uint64(ax), np.uint64(az)
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    mat[x ^ ax, x] = pauli_phase(ax, az) * (1.0 - 2.0 * (popcount_array(az & x) & 1))
    return mat


def _f2_independent_generators(paulis: np.ndarray, n: int) -> np.ndarray:
    """The class members, in class order, that raise the F2 rank of the
    members before them: a maximal independent subset (n generators),
    from the ranks of every prefix of the flat indices (ax << n) | az."""
    ax, az = paulis
    words = (ax << n | az).astype(np.uint64)
    prefixes = np.tril(np.broadcast_to(words, (words.size, words.size)))
    gens = np.flatnonzero(np.diff(f2_rank(prefixes), prepend=0))
    if gens.size != n:
        raise NumericalHealthError("commuting class is not maximal")
    return paulis[:, gens]


def _class_eigenbasis(paulis: np.ndarray, n: int) -> np.ndarray:
    """Common eigenbasis of a commuting Pauli class via one Hermitian
    combination of n independent generators with injective eigenvalues
    (weights 3^j keep the spectrum well separated)."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for j, (ax, az) in enumerate(_f2_independent_generators(paulis, n).T):
        h += (3.0 ** (j + 1)) * _dense_pauli(n, ax, az)
    # The spectrum is simple, so each eigenvector is unique up to phase.
    vecs = np.linalg.eigh(h)[1][:, ::-1]
    # deterministic global phase: the first entry of largest magnitude (up
    # to rounding; every entry of a non-Z MUB vector has modulus 2^(-n/2))
    # made real positive
    mags = np.abs(vecs)
    k = np.argmax(mags > mags.max(axis=0) - 1e-9, axis=0)
    ph = vecs[k, np.arange(dim)]
    return vecs / (ph / np.abs(ph))


@lru_cache(maxsize=None)
def mub_family(n: int) -> MUBFamily:
    """2^n + 1 mutually unbiased bases partitioning the nontrivial Paulis
    into maximal commuting classes (GF(2^n) spread in a self-dual basis)."""
    if n > MUB_QUBIT_CAP:
        raise CapExceededError(f"MUB construction capped at n <= {MUB_QUBIT_CAP}")
    basis = _self_dual_basis(n)

    def coords(e: int) -> int:
        # bit for qubit i (MSB first) from Tr(e * b_i)
        w = 0
        for i in range(n):
            w = (w << 1) | _gf_trace(_gf_mul(e, basis[i], n), n)
        return w

    coord = np.array([coords(e) for e in range(1 << n)], dtype=np.int64)
    x = np.arange(1, 1 << n)
    # Z class {(0, z)} first, then {(x, lam x)} for each lam in GF(2^n)
    classes = [np.stack([np.zeros_like(x), coord[x]])]
    for lam in range(1 << n):
        prod = [_gf_mul(lam, e, n) for e in range(1, 1 << n)]
        classes.append(np.stack([coord[x], coord[prod]]))
    # verify commutation and the partition
    for ax, az in classes:
        if symplectic_product(ax[:, None], az[:, None], ax, az).any():
            raise NumericalHealthError("MUB class fails to commute")
    # every nonzero label exactly once, and the identity never
    flat = np.concatenate([ax << n | az for ax, az in classes])
    if not np.array_equal(np.bincount(flat, minlength=4**n),
                          np.arange(4**n) > 0):
        raise NumericalHealthError("MUB classes do not partition the Paulis")
    bases = []
    for j, cls in enumerate(classes):
        if j == 0:
            vecs = np.eye(1 << n, dtype=complex)
        else:
            vecs = _class_eigenbasis(cls, n)
        bases.append(MUBBasis(n=n, paulis=cls, vectors=vecs))
    return MUBFamily(n=n, bases=tuple(bases))


# ---------------------------------------------------------------------------
# Estimation and projections


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    n: int
    raw: np.ndarray = field(repr=False)  # (2^n + 1, 2^n) estimated rows
    projected: np.ndarray = field(repr=False)  # simplex-projected rows


def exact_rows(rho: np.ndarray, fam: MUBFamily) -> np.ndarray:
    """Exact Born rows <phi|rho|phi> for every basis (test/limit oracle)."""
    rows = np.empty((len(fam.bases), 1 << fam.n))
    for j, b in enumerate(fam.bases):
        rows[j] = np.real(np.einsum("ik,ij,jk->k", np.conj(b.vectors),
                                    rho, b.vectors))
    return np.clip(rows, 0.0, None)


def estimate_coefficients(rho: np.ndarray, fam: MUBFamily, shots: int,
                          rng: np.random.Generator) -> CoefficientTable:
    """Measure `shots` copies in each basis; empirical frequencies per
    row, simplex-projected.  shots=0 returns the exact rows."""
    rows = exact_rows(rho, fam)
    if shots > 0:
        sampled = np.empty_like(rows)
        for j in range(rows.shape[0]):
            p = rows[j] / rows[j].sum()
            sampled[j] = rng.multinomial(shots, p) / shots
        rows = sampled
    projected = np.vstack([simplex_project(r) for r in rows])
    return CoefficientTable(n=fam.n, raw=rows, projected=projected)


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise DimensionError("empty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, v.size + 1)
    cond = u - css / k > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def reconstruct(table: CoefficientTable, fam: MUBFamily) -> np.ndarray:
    """Linear inversion rho_hat = sum_phi b_phi |phi><phi| - I (the MUB
    2-design identity); Hermitian with unit trace by construction."""
    if table.n != fam.n:
        raise DimensionError("table/family size mismatch")
    dim = 1 << fam.n
    acc = np.zeros((dim, dim), dtype=complex)
    for j, b in enumerate(fam.bases):
        acc += (b.vectors * table.projected[j][None, :]) @ b.vectors.conj().T
    return acc - np.eye(dim)


def psd_project(h: np.ndarray) -> np.ndarray:
    """The l2-closest density matrix: project the spectrum onto the
    simplex, keep the eigenvectors."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-9:
        raise NumericalHealthError("psd_project requires a Hermitian matrix")
    # Equal eigenvalues stay equal under the simplex projection, so the
    # result does not depend on the basis chosen in a degenerate eigenspace.
    vals, vecs = np.linalg.eigh(h)
    pvals = simplex_project(vals)
    return (vecs * pvals[None, :]) @ vecs.conj().T


def tomography_pipeline(rho: np.ndarray, n: int, shots: int, seed: int = 0):
    """Full chain mub -> estimate -> project -> reconstruct -> psd_project.
    Returns (density-matrix estimate, l2 error against the known input)."""
    fam = mub_family(n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    table = estimate_coefficients(rho, fam, shots, rng)
    est = psd_project(reconstruct(table, fam))
    return est, float(np.linalg.norm(est - rho))

