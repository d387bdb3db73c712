"""Tests for the mutually-unbiased-basis l2 tomography pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import states, tomography
from fidest.f2 import symplectic_product


def random_density(n, rng):
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestMUBFamily:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unbiasedness_and_orthonormality(self, n):
        fam = tomography.mub_family(n)
        dim = 1 << n
        assert len(fam.bases) == dim + 1
        mats = [b.vectors for b in fam.bases]
        for v in mats:
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                overlaps = np.abs(mats[i].conj().T @ mats[j]) ** 2
                assert np.max(np.abs(overlaps - 1.0 / dim)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_classes_partition_paulis(self, n):
        fam = tomography.mub_family(n)
        flat = []
        for b in fam.bases:
            ax, az = b.paulis
            assert ax.shape == az.shape == ((1 << n) - 1,)
            flat.append(ax << n | az)
            # each class is internally commuting
            assert not symplectic_product(ax[:, None], az[:, None], ax, az).any()
        flat = np.concatenate(flat)
        # every nontrivial Pauli exactly once
        assert np.array_equal(np.sort(flat), np.arange(1, 1 << (2 * n)))

    def test_z_class_first(self):
        fam = tomography.mub_family(2)
        assert not fam.bases[0].paulis[0].any()

    def test_eigenbasis_diagonalizes_class(self):
        fam = tomography.mub_family(3)
        for b in fam.bases:
            for ax, az in b.paulis.T:
                m = tomography._dense_pauli(3, ax, az)
                d = b.vectors.conj().T @ m @ b.vectors
                off = d - np.diag(np.diag(d))
                assert np.max(np.abs(off)) < 1e-10
                assert np.max(np.abs(np.abs(np.diag(d).real) - 1.0)) < 1e-10

    def test_cap(self):
        from fidest.errors import CapExceededError
        with pytest.raises(CapExceededError):
            tomography.mub_family(5)

    def test_family_is_shared_and_read_only(self):
        fam = tomography.mub_family(2)
        assert tomography.mub_family(2) is fam
        for b in fam.bases:
            with pytest.raises(ValueError):
                b.vectors[0, 0] = 0.0


class TestClassEigenbasis:
    """The MUB vectors of a class are the eigenvectors of the 3^j-weighted
    sum h of its generators; h's spectrum is simple, so they are unique up
    to the phase that `_class_eigenbasis` pins."""

    @staticmethod
    def generator_sums(n):
        for b in tomography.mub_family(n).bases[1:]:
            gens = tomography._f2_independent_generators(b.paulis, n)
            h = sum(3.0 ** (j + 1) * tomography._dense_pauli(n, ax, az)
                    for j, (ax, az) in enumerate(gens.T))
            yield b.paulis, h

    def test_reconstructs_generator_sum(self):
        for n in (1, 2, 3, 4):
            for paulis, h in self.generator_sums(n):
                vecs = tomography._class_eigenbasis(paulis, n)
                vals = np.real(np.diag(vecs.conj().T @ h @ vecs))
                assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.conj().T
                                     - h)) < 1e-9
                assert (np.diff(vals) < 0).all()  # descending
                # phase rule: the first entry of largest modulus is real > 0
                k = np.argmax(np.abs(vecs) > np.abs(vecs).max(axis=0) - 1e-9,
                              axis=0)
                pinned = vecs[k, np.arange(vecs.shape[1])]
                assert np.max(np.abs(pinned.imag)) < 1e-12
                assert (pinned.real > 0).all()

    def test_orthonormal_vectors(self):
        for n in (1, 2, 3, 4):
            for paulis, _ in self.generator_sums(n):
                vecs = tomography._class_eigenbasis(paulis, n)
                dim = 1 << n
                assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-10

    def test_simple_spectrum(self):
        for n in (1, 2, 3, 4):
            for _, h in self.generator_sums(n):
                assert np.diff(np.linalg.eigvalsh(h)).min() > 1.0


class TestSimplexProject:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(tomography.simplex_project(v), v)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = tomography.simplex_project(rng.standard_normal(16))
            assert p.sum() == pytest.approx(1.0)
            assert (p >= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 64))
    def test_non_expansive(self, seed, size):
        # Projections onto convex sets are 1-Lipschitz.
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((2, size))
        pu = tomography.simplex_project(u)
        pv = tomography.simplex_project(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9

    def test_is_euclidean_projection(self):
        # Against a brute-force quadratic program on a small instance.
        from scipy.optimize import minimize
        rng = np.random.default_rng(3)
        v = rng.standard_normal(5)
        got = tomography.simplex_project(v)
        res = minimize(lambda p: np.sum((p - v) ** 2), np.full(5, 0.2),
                       bounds=[(0, None)] * 5,
                       constraints={"type": "eq",
                                    "fun": lambda p: p.sum() - 1.0})
        assert np.allclose(got, res.x, atol=1e-6)


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_rows_recover_state(self, n):
        rng = np.random.default_rng(4)
        fam = tomography.mub_family(n)
        for _ in range(5):
            rho = random_density(n, rng)
            table = tomography.estimate_coefficients(rho, fam, 0, rng)
            back = tomography.reconstruct(table, fam)
            assert np.max(np.abs(back - rho)) < 1e-9

    def test_psd_project_identity_on_density(self):
        rng = np.random.default_rng(5)
        rho = random_density(2, rng)
        out = tomography.psd_project(rho)
        assert np.max(np.abs(out - rho)) < 1e-9

    def test_psd_project_properties(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((8, 8))
        h = (g + g.T).astype(complex)
        out = tomography.psd_project(h)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() > -1e-10
        assert np.trace(out).real == pytest.approx(1.0)

    def test_psd_project_non_expansive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g1 = rng.standard_normal((4, 4))
            g2 = rng.standard_normal((4, 4))
            h1, h2 = (g1 + g1.T).astype(complex), (g2 + g2.T).astype(complex)
            p1 = tomography.psd_project(h1)
            p2 = tomography.psd_project(h2)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(h1 - h2) + 1e-9


class TestPipeline:
    def test_exact_shots_zero(self):
        rng = np.random.default_rng(8)
        psi = states.haar_random(2, rng)
        rho = states.density_matrix(states.depolarize(psi, 0.3))
        est, err = tomography.tomography_pipeline(rho, 2, shots=0, seed=0)
        assert err < 1e-9

    def test_error_decreases_with_shots(self):
        rng = np.random.default_rng(9)
        psi = states.haar_random(2, rng)
        rho = states.density_matrix(states.depolarize(psi, 0.2))
        errs = []
        for shots in (100, 10000):
            # average over seeds to smooth the noise
            errs.append(np.mean([
                tomography.tomography_pipeline(rho, 2, shots, seed=s)[1]
                for s in range(5)]))
        assert errs[1] < errs[0] / 3

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        psi = states.haar_random(2, rng)
        rho = states.density_matrix(states.depolarize(psi, 0.2))
        e1 = tomography.tomography_pipeline(rho, 2, 500, seed=42)
        e2 = tomography.tomography_pipeline(rho, 2, 500, seed=42)
        assert np.array_equal(e1[0], e2[0])
        assert e1[1] == e2[1]

