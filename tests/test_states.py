"""Tests for state construction, noise, phase handling, and MPS utilities."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import estimation, f2, samplers, states, tomography
from fidest.errors import CapExceededError, DimensionError, NumericalHealthError
from reference import (apply_phase, label_codes, mixture_entries_sum,
                       mps_amplitude, spectral_mixture)


class TestStateVector:
    def test_norm_check(self):
        with pytest.raises(NumericalHealthError):
            states.StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_normalized_constructor(self):
        psi = states.StateVector.normalized([3, 4])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])

    def test_projector_is_rank_one(self):
        psi = states.haar_random(2, np.random.default_rng(0))
        rho = states.density_matrix(psi)
        assert np.allclose(rho, rho.conj().T)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.allclose(rho @ rho, rho)


class TestPhaseFunction:
    def test_table_roundtrip(self):
        rng = np.random.default_rng(1)
        table = rng.uniform(0, 2 * np.pi, 8)
        phase = states.PhaseFunction.from_table(3, table)
        assert np.allclose(phase.table(), table)

    def test_monomials_single_edge(self):
        # One cubic monomial {1,2,3}: phase pi exactly when x1=x2=x3=1.
        phase = states.PhaseFunction.from_polynomial(3, [(1, 2, 3)])
        table = phase.table()
        want = np.zeros(8)
        want[0b111] = np.pi
        assert np.allclose(table, want)

    def test_is_real(self):
        real = states.PhaseFunction.from_polynomial(2, [(1, 2)])
        assert real.is_real()
        generic = states.PhaseFunction.from_table(1, np.array([0.0, 1.3]))
        assert not generic.is_real()
        # phases within rounding of 0, pi or 2pi
        near = states.PhaseFunction.from_table(
            3, np.array([0, np.pi, 2 * np.pi - 1e-13, 1e-13, np.pi + 1e-13, 0, 0, 0]))
        assert near.is_real()
        assert not states.PhaseFunction.from_table(1, [0, np.pi + 1e-9]).is_real()


class TestPhaseStates:
    def test_phase_state_amplitudes(self):
        phase = states.PhaseFunction.from_polynomial(2, [(1, 2)])
        psi = states.phase_state(phase)
        assert np.allclose(psi.amplitudes, np.array([1, 1, 1, -1]) / 2)

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_boolean_phases_give_exactly_real_amplitudes(self, n):
        phase = states.PhaseFunction.from_polynomial(
            n, [(1,), *states.complete_3_hypergraph_edges(n)])
        psi = states.phase_state(phase)
        assert np.all(psi.amplitudes.imag == 0.0)
        assert np.any(psi.amplitudes.real < 0.0)
        want = np.exp(1j * phase.table()) / 2 ** (n / 2)
        assert np.max(np.abs(psi.amplitudes - want)) <= 2 ** (-n / 2) * 2.3e-16

    def test_continuous_phases_are_unchanged(self):
        table = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 32)
        psi = states.phase_state(states.PhaseFunction.from_table(5, table))
        assert np.array_equal(psi.amplitudes, np.exp(1j * table) / np.sqrt(32))

    def test_apply_phase_matches_diagonal_unitary(self):
        rng = np.random.default_rng(2)
        table = rng.uniform(0, 2 * np.pi, 8)
        phase = states.PhaseFunction.from_table(3, table)
        psi = states.haar_random(3, rng)
        out = apply_phase(phase, psi)
        assert np.allclose(out.amplitudes, np.exp(1j * table) * psi.amplitudes)

    def test_phase_strip(self):
        rng = np.random.default_rng(3)
        psi = states.haar_random(3, rng)
        stripped, phi = states.phase_strip(psi)
        assert np.allclose(stripped.amplitudes, np.abs(psi.amplitudes))
        rebuilt = apply_phase(phi, stripped)
        assert np.allclose(rebuilt.amplitudes, psi.amplitudes)

    def test_phase_strip_preserves_coefficient_magnitude_distribution(self):
        # Stripping phases cannot change |amplitudes|, hence the stripped
        # state is again normalized.
        psi = states.haar_random(4, np.random.default_rng(4))
        stripped, _ = states.phase_strip(psi)
        assert np.linalg.norm(stripped.amplitudes) == pytest.approx(1.0)


class TestHypergraphState:
    def test_complete3_small(self):
        n = 4
        edges = states.complete_3_hypergraph_edges(n)
        assert len(edges) == 4  # C(4,3)
        psi, phase = states.hypergraph_state(n, edges)
        # Amplitudes are +-2^{-n/2}; sign flips iff x has an odd number of
        # all-ones triples among its support.
        for x in range(1 << n):
            w = bin(x).count("1")
            parity = (w * (w - 1) * (w - 2) // 6) & 1
            want = (-1) ** parity / 4.0
            assert psi.amplitudes[x] == pytest.approx(want)

    def test_phase_is_real(self):
        psi, phase = states.hypergraph_state(3, [(1, 2, 3), (1, 2)])
        assert phase.is_real()
        assert np.allclose(np.abs(psi.amplitudes), 2 ** -1.5)


class TestDicke:
    def test_n2_k1_is_bell_like(self):
        psi = states.dicke_state(2, 1)
        assert np.allclose(psi.amplitudes,
                           np.array([0, 1, 1, 0]) / np.sqrt(2))

    def test_support_weights(self):
        psi = states.dicke_state(6, 2)
        for x in range(64):
            amp = psi.amplitudes[x]
            if bin(x).count("1") == 2:
                assert amp == pytest.approx(1 / np.sqrt(15))
            else:
                assert amp == 0.0


class TestDepolarize:
    def test_mixture_weights(self):
        # The closed form equals the trajectory mixture of psi (weight 1-p)
        # and every computational basis state (weight p/2^n).
        psi = states.haar_random(2, np.random.default_rng(5))
        mix = states.depolarize(psi, 0.2)
        assert mix.mixed == pytest.approx(0.2) and mix.members[0] is psi
        explicit = states.Mixture(2, (0.8,) + (0.05,) * 4, (psi,) + tuple(
            states.StateVector(2, np.eye(4, dtype=complex)[x])
            for x in range(4)))
        assert np.allclose(states.density_matrix(mix),
                           states.density_matrix(explicit), atol=1e-15)

    def test_to_dense_matches_channel(self):
        rng = np.random.default_rng(6)
        psi = states.haar_random(2, rng)
        p = 0.3
        rho = states.density_matrix(states.depolarize(psi, p))
        want = (1 - p) * states.density_matrix(psi) + p * np.eye(4) / 4
        assert np.allclose(rho, want)

    def test_fidelity_inversion(self):
        n, fid = 7, 0.8955
        p = states.depolarizing_p_for_fidelity(n, fid)
        assert (1 - p) + p / (1 << n) == pytest.approx(fid)

    def test_exact_fidelity_of_depolarized(self):
        rng = np.random.default_rng(7)
        psi = states.haar_random(3, rng)
        mix = states.depolarize(psi, 0.25)
        want = 0.75 + 0.25 / 8
        assert states.exact_fidelity(mix, psi) == pytest.approx(want)
        assert states.exact_fidelity(spectral_mixture(states.density_matrix(mix)),
                                     psi) == pytest.approx(want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_pure_ensemble_and_entries_rebuild_the_state(self, n):
        # sum_k w_k |a_k><a_k| + u I/2^n, and entries(x, y) over the full
        # grid, give back the density matrix of every form of state
        rng = np.random.default_rng(8 + n)
        psi, other = states.haar_random(n, rng), states.haar_random(n, rng)
        dim = 1 << n
        pure = np.outer(psi.amplitudes, psi.amplitudes.conj())
        noisy = 0.65 * pure + 0.35 * np.eye(dim) / dim
        cases = ((psi, pure), (states.depolarize(psi, 0.35), noisy),
                 (spectral_mixture(noisy), noisy),
                 (states.Mixture(n, (0.3, 0.7), (psi, other)),
                  0.3 * pure + 0.7 * np.outer(other.amplitudes,
                                              other.amplitudes.conj())))
        for rho, want in cases:
            weights, amps, mixed = rho.pure_ensemble()
            assert weights.sum() + mixed == pytest.approx(1.0, abs=1e-12)
            rebuilt = (np.einsum("k,ki,kj->ij", weights, amps, amps.conj())
                       + mixed * np.eye(dim) / dim)
            assert np.allclose(rebuilt, want, atol=1e-12, rtol=0)
            x = np.arange(dim)
            assert np.allclose(rho.entries(x[:, None], x[None, :]), want,
                               atol=1e-15, rtol=0)


class TestMixture:
    def _members(self):
        rng = np.random.default_rng(20)
        return states.haar_random(2, rng), states.haar_random(2, rng)

    def test_rejects_negative_weight(self):
        psi, other = self._members()
        with pytest.raises(NumericalHealthError):
            states.Mixture(2, (1.1, -0.1), (psi, other))

    @pytest.mark.parametrize("weights, mixed", [((0.5, 0.4), 0.0),
                                                ((0.5, 0.5), 0.1)])
    def test_rejects_total_other_than_one(self, weights, mixed):
        psi, other = self._members()
        with pytest.raises(NumericalHealthError):
            states.Mixture(2, weights, (psi, other), mixed)

    def test_rejects_member_of_other_qubit_count(self):
        psi, _ = self._members()
        small = states.haar_random(1, np.random.default_rng(21))
        with pytest.raises(DimensionError):
            states.Mixture(2, (0.5, 0.5), (psi, small))

    @pytest.mark.parametrize("mixed", [-0.1, 1.5])
    def test_rejects_mixed_outside_unit_interval(self, mixed):
        psi, _ = self._members()
        with pytest.raises(ValueError):
            states.Mixture(2, (1.0 - mixed,), (psi,), mixed)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_depolarize_rejects_p_outside_unit_interval(self, p):
        psi, _ = self._members()
        with pytest.raises(ValueError):
            states.depolarize(psi, p)

    def test_rejects_weight_count_other_than_member_count(self):
        psi, other = self._members()
        with pytest.raises(DimensionError):
            states.Mixture(2, (1.0,), (psi, other))

    def test_white_noise_alone_is_maximally_mixed(self):
        n = 2
        white = states.Mixture(n, (), (), 1.0)
        psi, _ = self._members()
        assert np.array_equal(states.density_matrix(white), np.eye(4) / 4)
        assert np.array_equal(white.born_laws(label_codes([("X", "Y")])),
                              np.full((1, 4), 1 / 4))
        assert white.fidelity(psi) == 1 / 4
        weights, amps, mixed = white.pure_ensemble()
        assert weights.size == 0 and amps.shape == (0, 4) and mixed == 1.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_entries_are_the_sum_bit_for_bit(self, n):
        # white noise, then each member in turn, the sign of zero included:
        # real members with zero amplitudes give -0.0 products
        rng = np.random.default_rng(22 + n)
        v = np.where(rng.random(1 << n) < 0.4, 0.0, rng.normal(size=1 << n))
        v[0] = -1.0
        real = states.StateVector(n, (v / np.linalg.norm(v)).astype(complex))
        haar = states.haar_random(n, rng)
        one = states.StateVector(n, np.eye(1 << n, dtype=complex)[-1])
        x = np.arange(1 << n)
        rows = rng.integers(0, 1 << n, 200)
        for rho in (states.depolarize(real, 0.3), states.depolarize(haar, 0.0),
                    states.Mixture(n, (0.5, 0.2), (haar, real), 0.3),
                    states.Mixture(n, (0.6, 0.4), (real, haar)),
                    states.Mixture(n, (0.7, 0.3), (real, one)),
                    states.Mixture(n, (), (), 1.0)):
            for args in ((x[:, None], x[None, :]), (rows, rows ^ 1),
                         (rows, rng.permutation(rows)), (0, 0), (0, 1)):
                want = np.asarray(mixture_entries_sum(rho, *args))
                got = np.asarray(rho.entries(*args))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestMPS:
    def test_product_state_chi1(self):
        rng = np.random.default_rng(8)
        mps = states.random_real_mps(4, 1, rng)
        psi = states.mps_to_statevector(mps)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_matches_dense(self):
        rng = np.random.default_rng(9)
        mps = states.random_real_mps(5, 3, rng)
        psi = states.mps_to_statevector(mps)
        for x in (0, 7, 19, 31):
            assert mps_amplitude(mps, x) == pytest.approx(
                psi.amplitudes[x].real, abs=1e-12)

    def test_norm_squared(self):
        rng = np.random.default_rng(10)
        mps = states.random_real_mps(6, 4, rng)
        assert mps.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_dense_cap(self):
        rng = np.random.default_rng(11)
        mps = states.random_real_mps(13, 2, rng)
        with pytest.raises(CapExceededError):
            states.mps_to_statevector(mps)


class TestFrames:
    def test_frame_gates_unitary(self):
        for label in ("Z", "X", "Y"):
            g = states._FRAME_GATES[label]
            assert np.allclose(g @ g.conj().T, np.eye(2))

    def test_x_frame_diagonalizes_x(self):
        # Rotating into the X frame maps X eigenstates onto computational ones.
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        g = states._FRAME_GATES["X"]
        assert np.allclose(g @ X @ g.conj().T, np.diag([1, -1]))

    def test_y_frame_diagonalizes_y(self):
        Y = np.array([[0, -1j], [1j, 0]])
        g = states._FRAME_GATES["Y"]
        assert np.allclose(g @ Y @ g.conj().T, np.diag([1, -1]))

    def test_rotate_to_frame_matches_kron(self):
        rng = np.random.default_rng(12)
        psi = states.haar_random(3, rng)
        labels = ("X", "Y", "Z")
        u = np.eye(1, dtype=complex)
        for lab in labels:
            u = np.kron(u, states._FRAME_GATES[lab])
        codes = label_codes([labels])
        assert np.allclose(states._rotate_leading(psi.amplitudes, codes)[0],
                           u @ psi.amplitudes)


class TestMeasurement:
    def test_born_probabilities_sum(self):
        psi = states.haar_random(3, np.random.default_rng(13))
        probs = psi.born_laws(label_codes([("Z", "X", "Y")]))[0]
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_mixture_sampling_traces_out(self, seed):
        # The closed-form mixture has the Born law of its density matrix:
        # the trajectory component is traced out.
        rng = np.random.default_rng(seed)
        psi = states.haar_random(2, rng)
        mix = states.depolarize(psi, 0.5)
        frame = label_codes([("X", "Y")])
        probs = mix.born_laws(frame)[0]
        assert probs.sum() == pytest.approx(1.0)
        spectral = spectral_mixture(states.density_matrix(mix))
        assert np.allclose(probs, spectral.born_laws(frame)[0], atol=1e-12)


def _array_holders():
    """One instance of every frozen dataclass in ``fidest`` that holds
    arrays, by class name."""
    rng = np.random.default_rng(14)
    psi, phi = states.hypergraph_state(3, states.complete_3_hypergraph_edges(3))
    rho = states.depolarize(psi, 0.1)
    coeffs = f2.pauli_coefficients(psi)
    fam = tomography.mub_family(1)
    return {
        "StateVector": psi,
        "CoeffVector": coeffs,
        "Mixture": rho,
        "RealMPS": states.random_real_mps(3, 2, rng),
        "EstimateReport": estimation.run_estimator("dfe", psi, rho, shots=4),
        "QWCPartition": estimation.build_qwc_partition(coeffs),
        "MultiTargetResult": estimation.fofe_multi_target(
            rho, samplers.UniformXSampler(3, 0.5), [phi], 4, rng),
        "MUBBasis": fam.bases[0],
        "MUBFamily": fam,
        "CoefficientTable": tomography.estimate_coefficients(
            np.eye(2) / 2, fam, 0, rng),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # a generated field-wise == would take the truth value of an array
    obj = _array_holders()[name]
    assert type(obj).__name__ == name
    other = copy.copy(obj)
    assert obj == obj and not obj != obj
    assert obj != other and not obj == other
    assert len({obj, other}) == 2
