"""Tests for the binary-symplectic Pauli layer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import f2
from fidest.errors import CapExceededError, DimensionError, NumericalHealthError
from fidest.states import (PhaseFunction, StateVector, complete_3_hypergraph_edges,
                           density_matrix, depolarize, dicke_state, haar_random,
                           hypergraph_state, mps_to_statevector, phase_state,
                           phase_strip, random_real_mps)
from reference import f2_from_dense, pauli_expectation_rows_complex

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_pauli(a: f2.PauliPoint) -> np.ndarray:
    """Independent dense oracle: T_a = tensor_i i^(axi azi) X^axi Z^azi."""
    mat = np.eye(1, dtype=complex)
    for i in range(1, a.n + 1):
        bx = f2.qubit_bit(a.ax, i, a.n)
        bz = f2.qubit_bit(a.az, i, a.n)
        local = (1j ** (bx * bz)) * (np.linalg.matrix_power(X, bx)
                                     @ np.linalg.matrix_power(Z, bz))
        mat = np.kron(mat, local)
    return mat


def random_point(n, rng):
    return f2.PauliPoint(n, int(rng.integers(0, 1 << n)),
                         int(rng.integers(0, 1 << n)))


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        a = f2.PauliPoint(1, 1, 0)
        b = f2.PauliPoint(1, 0, 1)
        assert f2.symplectic_product(a, b) == 1

    def test_self_commutation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = random_point(3, rng)
            assert f2.symplectic_product(a, a) == 0

    def test_xx_zz_commute(self):
        a = f2.PauliPoint(2, 0b11, 0)
        b = f2.PauliPoint(2, 0, 0b11)
        assert f2.symplectic_product(a, b) == 0

    def test_matches_dense_commutator_exhaustive(self):
        for n in (1, 2):
            for axa, aza, axb, azb in itertools.product(range(1 << n), repeat=4):
                a = f2.PauliPoint(n, axa, aza)
                b = f2.PauliPoint(n, axb, azb)
                ta, tb = dense_pauli(a), dense_pauli(b)
                commute = np.allclose(ta @ tb, tb @ ta)
                assert f2.symplectic_product(a, b) == (0 if commute else 1)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            f2.symplectic_product(f2.PauliPoint(1, 0, 1), f2.PauliPoint(2, 0, 1))


def apply_pauli(a: f2.PauliPoint, amps: np.ndarray) -> np.ndarray:
    return f2._apply_pauli_amps(a.n, a.ax, a.az, amps)


class TestApplyPauli:
    def test_plus_is_x_eigenstate(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(apply_pauli(f2.PauliPoint(1, 1, 0), plus), plus)

    def test_y_on_zero(self):
        zero = np.array([1, 0], dtype=complex)
        assert np.allclose(apply_pauli(f2.PauliPoint(1, 1, 1), zero), [0, 1j])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_point(3, rng)
            amps = haar_random(3, rng).amplitudes
            assert np.allclose(apply_pauli(a, amps), dense_pauli(a) @ amps)

    def test_involution(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_point(3, rng)
            amps = haar_random(3, rng).amplitudes
            assert np.allclose(apply_pauli(a, apply_pauli(a, amps)), amps)


class TestPauliExpectation:
    def test_all_plus_all_x(self):
        n = 3
        plus = StateVector(n, np.full(1 << n, 2 ** (-n / 2), dtype=complex))
        assert f2.pauli_expectation(plus, f2.PauliPoint(n, (1 << n) - 1, 0)) \
            == pytest.approx(1.0)

    def test_real_state_imaginary_operator(self):
        zero = StateVector(1, np.array([1, 0], dtype=complex))
        assert f2.pauli_expectation(zero, f2.PauliPoint(1, 1, 1)) \
            == pytest.approx(0.0)

    def test_t_state_x(self):
        t = StateVector.normalized([1, np.exp(1j * np.pi / 4)])
        assert f2.pauli_expectation(t, f2.PauliPoint(1, 1, 0)) \
            == pytest.approx(0.70710678, abs=1e-8)

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(3)
        psi = haar_random(2, rng)
        rho = density_matrix(psi)
        for idx in range(16):
            a = f2.PauliPoint.from_index(2, idx)
            want = np.trace(rho @ dense_pauli(a)).real
            assert f2.pauli_expectation(psi, a) == pytest.approx(want, abs=1e-12)

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
        for idx in range(16):
            a = f2.PauliPoint.from_index(2, idx)
            want = np.trace(rho @ dense_pauli(a)).real / 4
            assert c.values[a.index] == pytest.approx(want, abs=1e-12)

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


def naive_rank(dense: np.ndarray) -> int:
    m = dense.copy() % 2
    rank = 0
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
        rank += 1
    return rank


class TestF2Rank:
    def test_identity(self):
        m = f2_from_dense(np.eye(5, dtype=int))
        assert f2.f2_rank(m) == 5

    def test_all_ones(self):
        m = f2_from_dense(np.ones((2, 2), dtype=int))
        assert f2.f2_rank(m) == 1

    def test_random_vs_naive(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dense = rng.integers(0, 2, (20, 20))
            assert f2.f2_rank(f2_from_dense(dense)) == naive_rank(dense)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 2**31 - 1))
    def test_hollow_symmetric_rank_even(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 2, (n, n)), k=1)
        dense = upper + upper.T
        m = f2_from_dense(dense, hollow_symmetric=True)
        assert f2.f2_rank(m) % 2 == 0


class TestDiagonalizingFrame:
    def test_all_z(self):
        labels, aprime = f2.diagonalizing_frame(f2.PauliPoint(3, 0, 0b111))
        assert labels == ("Z", "Z", "Z")
        assert aprime == 0b111

    def test_x_on_first_qubit(self):
        labels, aprime = f2.diagonalizing_frame(f2.PauliPoint(2, 0b10, 0))
        assert labels == ("X", "Z")
        assert aprime == 0b10

    def test_parity_statistics_match_expectation(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_point(2, rng)
            psi = haar_random(2, rng)
            labels, aprime = f2.diagonalizing_frame(a)
            probs = psi.born_laws([labels])[0]
            parity_expect = sum(
                p * (-1) ** (bin(aprime & b).count("1") & 1)
                for b, p in enumerate(probs))
            assert parity_expect == pytest.approx(
                f2.pauli_expectation(psi, a), abs=1e-10)
