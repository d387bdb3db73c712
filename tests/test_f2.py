"""Tests for the binary-symplectic Pauli layer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import estimation, f2, magic
from fidest.errors import CapExceededError, DimensionError, NumericalHealthError
from fidest.states import (PhaseFunction, StateVector, complete_3_hypergraph_edges,
                           density_matrix, depolarize, dicke_state, haar_random,
                           hypergraph_state, mps_to_statevector, phase_state,
                           phase_strip, random_real_mps)
from reference import (f2_pack, f2_unpack, fwht_butterfly, label_codes,
                       naive_rank, pauli_expectation_rows_complex)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_pauli(n: int, ax: int, az: int) -> np.ndarray:
    """Independent dense oracle: T_a = tensor_i i^(axi azi) X^axi Z^azi."""
    mat = np.eye(1, dtype=complex)
    for shift in range(n - 1, -1, -1):
        bx, bz = (ax >> shift) & 1, (az >> shift) & 1
        local = (1j ** (bx * bz)) * (np.linalg.matrix_power(X, bx)
                                     @ np.linalg.matrix_power(Z, bz))
        mat = np.kron(mat, local)
    return mat


def random_point(n, rng):
    return int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        assert f2.symplectic_product(1, 0, 0, 1) == 1

    def test_self_commutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ax, az = random_point(3, rng)
            assert f2.symplectic_product(ax, az, ax, az) == 0

    def test_xx_zz_commute(self):
        assert f2.symplectic_product(0b11, 0, 0, 0b11) == 0

    def test_matches_dense_commutator_exhaustive(self):
        for n in (1, 2):
            words = np.arange(1 << n)
            axa, aza, axb, azb = np.meshgrid(words, words, words, words,
                                             indexing="ij")
            got = f2.symplectic_product(axa, aza, axb, azb)
            for idx in itertools.product(range(1 << n), repeat=4):
                ta = dense_pauli(n, idx[0], idx[1])
                tb = dense_pauli(n, idx[2], idx[3])
                commute = np.allclose(ta @ tb, tb @ ta)
                assert got[idx] == (0 if commute else 1)


def apply_pauli(n: int, ax: int, az: int, amps: np.ndarray) -> np.ndarray:
    return f2._apply_pauli_amps(n, ax, az, amps)


class TestApplyPauli:
    def test_plus_is_x_eigenstate(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(apply_pauli(1, 1, 0, plus), plus)

    def test_y_on_zero(self):
        zero = np.array([1, 0], dtype=complex)
        assert np.allclose(apply_pauli(1, 1, 1, zero), [0, 1j])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ax, az = random_point(3, rng)
            amps = haar_random(3, rng).amplitudes
            assert np.allclose(apply_pauli(3, ax, az, amps),
                               dense_pauli(3, ax, az) @ amps)

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ax, az = random_point(3, rng)
            amps = haar_random(3, rng).amplitudes
            assert np.allclose(apply_pauli(3, ax, az, apply_pauli(3, ax, az, amps)),
                               amps)


def expectation(state, ax: int, az: int) -> float:
    """<T_(ax, az)> of a state: one entry of the kernel's row for ax."""
    return float(f2.pauli_expectation_rows(state, [ax])[0, az])


class TestPauliExpectation:
    def test_all_plus_all_x(self):
        n = 3
        plus = StateVector(n, np.full(1 << n, 2 ** (-n / 2), dtype=complex))
        assert expectation(plus, (1 << n) - 1, 0) == pytest.approx(1.0)

    def test_real_state_imaginary_operator(self):
        zero = StateVector(1, np.array([1, 0], dtype=complex))
        assert expectation(zero, 1, 1) == pytest.approx(0.0)

    def test_t_state_x(self):
        t = StateVector.normalized([1, np.exp(1j * np.pi / 4)])
        assert expectation(t, 1, 0) == pytest.approx(0.70710678, abs=1e-8)

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(3)
        psi = haar_random(2, rng)
        rho = density_matrix(psi)
        for ax, az in itertools.product(range(4), repeat=2):
            want = np.trace(rho @ dense_pauli(2, ax, az)).real
            assert expectation(psi, ax, az) == pytest.approx(want, abs=1e-12)

    def test_imaginary_residual_is_checked(self):
        class Skewed:  # XOR diagonals of a matrix that is not Hermitian
            n = 1

            def entries(self, rows, cols):
                return np.array([[0.5, 0.5 + 1e-6j]] * len(cols))

        with pytest.raises(NumericalHealthError):
            f2.pauli_expectation_rows(Skewed(), [1])

    def test_real_residual_is_checked(self):
        class Asymmetric:  # real XOR diagonal not symmetric under x -> x ^ ax
            n = 1

            def entries(self, rows, cols):
                return np.array([[0.5, 0.3]] * len(cols))

        with pytest.raises(NumericalHealthError):
            f2.pauli_expectation_rows(Asymmetric(), [1])


def _real_states():
    rng = np.random.default_rng(11)
    out = {f"hypergraph{n}": hypergraph_state(n, complete_3_hypergraph_edges(n))[0]
           for n in range(1, 9)}
    out["dicke"] = dicke_state(6, 2)
    out["mps"] = mps_to_statevector(random_real_mps(6, 3, rng))
    out["stripped-haar"] = phase_strip(haar_random(6, rng))[0]
    out["depolarized-hypergraph"] = depolarize(out["hypergraph6"], 0.2)
    return out


def _complex_states():
    rng = np.random.default_rng(12)
    return {"haar": haar_random(6, rng),
            "phase-random": phase_state(PhaseFunction.from_table(
                6, rng.uniform(0.0, 2.0 * np.pi, 1 << 6)))}


class TestRealTransform:
    """The real path of ``pauli_expectation_rows`` gives the complex
    kernel's values exactly (signed zeros count as equal)."""

    @pytest.mark.parametrize("name", sorted(_real_states()))
    def test_real_states_match_complex_kernel(self, name):
        state = _real_states()[name]
        assert f2.xor_diagonals(state, [0]).dtype == np.float64
        self._check(state)

    @pytest.mark.parametrize("name", sorted(_complex_states()))
    def test_complex_states_match_complex_kernel(self, name):
        state = _complex_states()[name]
        assert f2.xor_diagonals(state, [0]).dtype == np.complex128
        self._check(state)

    @staticmethod
    def _check(state):
        dim = 1 << state.n
        rng = np.random.default_rng(state.n)
        subset = rng.permutation(dim)[:max(1, dim // 3)]
        for words in (np.arange(dim), subset):
            assert np.array_equal(f2.pauli_expectation_rows(state, words),
                                  pauli_expectation_rows_complex(state, words))


class TestPauliCoefficients:
    def test_stabilizer_zero_state(self):
        n = 3
        zero = StateVector(n, np.eye(1 << n, dtype=complex)[0])
        c = f2.pauli_coefficients(zero)
        nz = c.values[np.abs(c.values) > 1e-12]
        assert nz.size == 1 << n
        assert np.allclose(np.abs(nz), 2.0 ** (-n))
        assert np.abs(c.values).sum() == pytest.approx(1.0)

    def test_purity(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 4):
            c = f2.pauli_coefficients(haar_random(n, rng))
            assert (1 << n) * np.sum(c.values**2) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        psi = haar_random(2, rng)
        c = f2.pauli_coefficients(psi)
        rho = density_matrix(psi)
        for ax, az in itertools.product(range(4), repeat=2):
            want = np.trace(rho @ dense_pauli(2, ax, az)).real / 4
            assert c.values[ax << 2 | az] == pytest.approx(want, abs=1e-12)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            f2.pauli_coefficients(
                StateVector(11, np.eye(1 << 11, dtype=complex)[0]))


class TestFWHT:
    def test_delta(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert np.allclose(f2.fwht(v), np.ones(8))

    def test_involution_scaling(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(16)
        assert np.allclose(f2.fwht(f2.fwht(v)), 16 * v)

    def test_naive_oracle(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(16)
        naive = np.array([sum(v[a] * (-1) ** bin(a & b).count("1")
                              for a in range(16)) for b in range(16)])
        assert np.allclose(f2.fwht(v), naive)

    def test_non_power_of_two(self):
        with pytest.raises(DimensionError):
            f2.fwht(np.zeros(6))

    def test_transposed_input(self):
        # the columns of a matrix, transformed through its transpose view
        mat = np.random.default_rng(9).standard_normal((8, 5))
        got = f2.fwht(mat.T).T
        for col in range(5):
            assert np.allclose(got[:, col], f2.fwht(mat[:, col]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**31 - 1))
    def test_roundtrip_property(self, n, seed):
        v = np.random.default_rng(seed).standard_normal(1 << n)
        back = f2.fwht(f2.fwht(v)) / len(v)
        assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.abs(v).max())


@st.composite
def transform_inputs(draw):
    """(n, v) for the transform: real or complex rows of 2^n, n = 0..12,
    as one row, a 2-D block, or a transposed (non-contiguous) view, with
    entries from the standard normal at a random scale."""
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    layout = draw(st.sampled_from(["row", "block", "transposed"]))
    shape = {"row": (1 << n,), "block": (3, 1 << n),
             "transposed": (1 << n, 3)}[layout]
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    if draw(st.booleans()):
        v = v + 1j * rng.standard_normal(shape)
    return n, (v.T if layout == "transposed" else v)


class TestMatmulTransform:
    """``f2.fwht``'s matrix products against the butterfly oracle
    (``reference.fwht_butterfly``)."""

    @settings(max_examples=60, deadline=None)
    @given(transform_inputs())
    def test_matches_the_butterfly(self, case):
        # Both sum 2^n terms in different orders.  Against the largest
        # output, their difference was at most 1.1e-15 over 6,000 random
        # rows at n = 12 (99.9% below 1.02e-15), 7.0e-16 at n = 10.
        n, v = case
        got, want = f2.fwht(v), fwht_butterfly(v)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.booleans(), st.integers(0, 2**31 - 1))
    def test_dyadic_rows_bit_equal(self, n, complex_rows, seed):
        # integers / 2^n: every partial sum is exact, so any order agrees
        rng = np.random.default_rng(seed)
        v = rng.integers(-2**20, 2**20, (3, 1 << n)) / 2.0**n
        if complex_rows:
            v = v + 1j * rng.integers(-2**20, 2**20, (3, 1 << n)) / 2.0**n
        assert np.array_equal(f2.fwht(v), fwht_butterfly(v))
        assert np.array_equal(f2.fwht(v.T.copy().T), fwht_butterfly(v))

    def test_rows_independent_of_their_block(self):
        # a row transforms to the same bits alone, in a block, or past the
        # first FWHT_PRODUCT block of a long array
        rng = np.random.default_rng(10)
        for n in (3, 8, 10):
            rows = rng.standard_normal((2 * (f2.FWHT_PRODUCT >> n) + 3, 1 << n))
            whole = f2.fwht(rows)
            for r in (0, rows.shape[0] // 2, rows.shape[0] - 1):
                assert np.array_equal(f2.fwht(rows[r]), whole[r])

    def test_does_not_touch_its_input(self):
        v = np.arange(16.0)
        f2.fwht(v)
        assert np.array_equal(v, np.arange(16.0))


@st.composite
def packed_stacks(draw):
    """A stack of 0/1 matrices, up to two batch axes and 64 columns, as
    (kind, dense, packed rows): rectangular products A B of random inner
    dimension (rank at most that), hollow-symmetric matrices, or
    hypergraph derivative matrices N(x) (hollow symmetric as well)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    kind = draw(st.sampled_from(("rectangular", "hollow", "hypergraph")))
    if kind == "rectangular":
        rows, inner, cols = (draw(st.integers(1, 64)) for _ in range(3))
        dense = (rng.integers(0, 2, batch + (rows, inner))
                 @ rng.integers(0, 2, (inner, cols))) % 2
    elif kind == "hollow":
        n = draw(st.integers(1, 64))
        upper = np.triu(rng.integers(0, 2, batch + (n, n)), k=1)
        dense = upper + np.swapaxes(upper, -1, -2)
    else:
        n = draw(st.integers(3, 64))
        monos = [tuple(rng.choice(n, 3, replace=False) + 1)
                 for _ in range(draw(st.integers(0, 4 * n)))]
        x = rng.integers(0, 1 << n, batch, dtype=np.uint64)
        dense = f2_unpack(magic.hypergraph_derivative_matrix(n, monos, x), n)
    return kind, dense, f2_pack(dense)


class TestF2Rank:
    def test_identity(self):
        assert f2.f2_rank(f2_pack(np.eye(5, dtype=int))) == 5

    def test_all_ones(self):
        assert f2.f2_rank(f2_pack(np.ones((2, 2), dtype=int))) == 1

    def test_random_vs_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dense = rng.integers(0, 2, (20, 20))
            assert f2.f2_rank(f2_pack(dense)) == naive_rank(dense)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_hollow_symmetric_rank_even(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, (n, n)), k=1)
        dense = upper + upper.T
        assert f2.f2_rank(f2_pack(dense)) % 2 == 0

    @settings(max_examples=60, deadline=None)
    @given(packed_stacks())
    def test_stack_matches_naive_matrix_by_matrix(self, stack):
        kind, dense, rows = stack
        ranks = f2.f2_rank(rows)
        assert ranks.shape == rows.shape[:-1] == dense.shape[:-2]
        want = [naive_rank(m) for m in dense.reshape(-1, *dense.shape[-2:])]
        assert ranks.reshape(-1).tolist() == want
        if kind != "rectangular":
            assert (ranks % 2 == 0).all()

    def test_full_width(self):
        # column 63 is the sign bit of an int64: the words stay uint64
        rng = np.random.default_rng(11)
        dense = rng.integers(0, 2, (4, 64, 64))
        dense[:, :, 63] = 1
        assert f2.f2_rank(f2_pack(dense)).tolist() == [naive_rank(m) for m in dense]

    def test_empty_shapes(self):
        assert f2.f2_rank(np.zeros((0, 4))).shape == (0,)
        assert f2.f2_rank(np.zeros((2, 3, 0))).tolist() == [[0] * 3] * 2
        with pytest.raises(DimensionError):
            f2.f2_rank(np.uint64(5))


class TestDiagonalizingFrame:
    """``estimation._frame_expectations`` measures T_a in the frame whose
    code on each qubit is bx (1 + bz) (Z, X, Y = 0, 1, 2) and reads the
    parity of the qubits in ax | az."""

    def test_all_z(self):
        # computational states are Z eigenstates: only an all-Z frame
        # reads <Z^az> = (-1)^(az.b) exactly
        n = 3
        for b in range(1 << n):
            psi = StateVector(n, np.eye(1 << n, dtype=complex)[b])
            az = np.arange(1 << n)
            got = estimation._frame_expectations(psi, np.zeros_like(az), az, n)
            assert np.array_equal(got, 1.0 - 2.0 * (f2.popcount_array(
                (az & b).astype(np.uint64)) & 1))

    def test_x_on_first_qubit(self):
        # |+>|0> and |->|1>: X on qubit 1 reads +1 and -1, X on qubit 2 reads 0
        plus_zero = StateVector.normalized([1, 0, 1, 0])
        minus_one = StateVector.normalized([0, 1, 0, -1])
        ax, az = np.array([0b10, 0b01]), np.zeros(2, dtype=np.int64)
        assert np.allclose(estimation._frame_expectations(plus_zero, ax, az, 2),
                           [1.0, 0.0], atol=1e-12)
        assert np.allclose(estimation._frame_expectations(minus_one, ax, az, 2),
                           [-1.0, 0.0], atol=1e-12)

    def test_parity_statistics_match_expectation(self):
        # every word at n = 3: the Born law in the frame read from the
        # labels of (bx, bz), and the parity over ax | az, give <T_a>
        n = 3
        ax, az = np.divmod(np.arange(4**n), 1 << n)
        shifts = range(n - 1, -1, -1)
        labels = [["ZXZY"[(x >> s & 1) + 2 * (z >> s & 1)] for s in shifts]
                  for x, z in zip(ax.tolist(), az.tolist())]
        psi = haar_random(n, np.random.default_rng(9))
        laws = psi.born_laws(label_codes(labels))
        parity = f2.popcount_array(((ax | az)[:, None] & np.arange(1 << n))
                                   .astype(np.uint64)) & 1
        want = f2.pauli_expectation_rows(psi, np.arange(1 << n)).reshape(-1)
        assert np.allclose(np.sum(laws * (1.0 - 2.0 * parity), axis=1), want,
                           atol=1e-10)
        assert np.allclose(estimation._frame_expectations(psi, ax, az, n), want,
                           atol=1e-10)
