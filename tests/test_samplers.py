"""Tests for the l_2a phase-point samplers.

Every specialized sampler is checked against the exact enumeration law
p(a) proportional to |c_a|^(2 alpha), both for the dense distribution()
(total variation) and for its coefficients; every sampler's batch draw
is checked against its own distribution(), and asks the generator as
often for one draw as for a thousand.
"""

import time
import warnings

import numpy as np
import pytest

from fidest import samplers, states
from fidest.errors import CapExceededError, NumericalHealthError
from fidest.f2 import pauli_coefficients

from reference import exact_draws, mps_draws_per_shot


def exact_law(psi, alpha):
    c = np.abs(pauli_coefficients(psi).values) ** (2.0 * alpha)
    c[np.abs(c) < 1e-300] = 0.0
    return c / c.sum()


def tv(p, q):
    return 0.5 * np.abs(p - q).sum()


def _stripped_haar(n, seed):
    return states.phase_strip(states.haar_random(n, np.random.default_rng(seed)))[0]


#: (sampler factory, draws, total-variation bound) per sampler class
PROTOCOL_CASES = {
    "exact": (lambda: samplers.ExactSampler(
        pauli_coefficients(states.dicke_state(4, 1)), 0.5), 20000, 0.05),
    "uniform-x": (lambda: samplers.UniformXSampler(3), 4000, 0.05),
    "dicke": (lambda: samplers.DickeSampler(3, 1), 6000, 0.05),
    "bell": (lambda: samplers.BellCircuitSampler(_stripped_haar(2, 7)), 6000, 0.06),
    "mps": (lambda: samplers.MPSL2Sampler(
        states.random_real_mps(3, 2, np.random.default_rng(12))), 4000, 0.07),
}


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_batch_draw_follows_distribution(case):
    # draw(rng, size) gives two int64 word arrays whose empirical law
    # matches distribution()
    make, size, bound = PROTOCOL_CASES[case]
    s = make()
    ax, az = s.draw(np.random.default_rng(2), size)
    for words in (ax, az):
        assert words.dtype == np.int64 and words.shape == (size,)
    emp = np.bincount((ax << s.n) | az, minlength=1 << (2 * s.n)) / size
    assert tv(emp, s.distribution()) < bound


def tv_bound(law, draws, fail=1e-6):
    """A total variation that the empirical law of `draws` iid draws from
    `law` exceeds with probability below `fail`: the mean,
    at most 1/2 sum_a sqrt(p(a) (1 - p(a)) / draws), plus McDiarmid's
    sqrt(ln(1 / fail) / (2 draws)), as one draw moves it by 1/draws."""
    return (0.5 * np.sum(np.sqrt(law * (1.0 - law) / draws))
            + np.sqrt(np.log(1.0 / fail) / (2.0 * draws)))


@pytest.mark.parametrize("make,draws", [
    (lambda: samplers.DickeSampler(6, 3), 200000),
    (lambda: samplers.MPSL2Sampler(
        states.random_real_mps(4, 3, np.random.default_rng(17))), 100000)],
    ids=["dicke-6-3", "mps-4-3"])
def test_large_batch_draw_follows_distribution(make, draws):
    s = make()
    law = s.distribution()
    ax, az = s.draw(np.random.default_rng(8), draws)
    emp = np.bincount((ax << s.n) | az, minlength=law.size) / draws
    assert tv(emp, law) < tv_bound(law, draws)


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_draw_asks_the_generator_once_per_batch(case):
    # no per-draw loop: a batch of 1,000 draws makes as many generator
    # calls as a batch of one
    s = PROTOCOL_CASES[case][0]()
    calls = []
    for size in (1, 1000):
        rng = CountingGenerator(4)
        ax, _ = s.draw(rng, size)
        assert ax.shape == (size,)
        calls.append(rng.calls)
    assert calls[0] == calls[1] > 0


class TestExactSampler:
    def test_distribution_matches_law(self):
        psi = states.haar_random(3, np.random.default_rng(0))
        for alpha in (0.5, 1.0):
            s = samplers.ExactSampler(pauli_coefficients(psi), alpha)
            assert tv(s.distribution(), exact_law(psi, alpha)) < 1e-12

    def test_norm_sum_half_is_l1(self):
        psi = states.haar_random(3, np.random.default_rng(1))
        c = pauli_coefficients(psi)
        s = samplers.ExactSampler(c, 0.5)
        assert s.norm_sum == pytest.approx(np.abs(c.values).sum())

    def test_draw_index_equals_binary_search(self):
        # the n = 10 complete 3-hypergraph support, 133,114 points
        psi, _ = states.hypergraph_state(10, states.complete_3_hypergraph_edges(10))
        coeffs = pauli_coefficients(psi)
        s = samplers.ExactSampler(coeffs, 0.5)
        assert s.support()[0].size == 133_114
        got = s.draw_index(np.random.default_rng(23), 200_000)
        want = exact_draws(coeffs, 0.5, np.random.default_rng(23), 200_000)
        assert np.array_equal(got, want)


class TestUniformXSampler:
    def test_matches_phase_state_law(self):
        phase = states.PhaseFunction.from_table(
            3, np.random.default_rng(3).uniform(0, 2 * np.pi, 8))
        psi = states.phase_state(phase)
        s = samplers.UniformXSampler(3, alpha=0.5)
        # A phase state's stripped part is |+>^n whose only nonzero
        # coefficients are the X-type ones, all equal to 2^-n.
        stripped, _ = states.phase_strip(psi)
        assert tv(s.distribution(), exact_law(stripped, 0.5)) < 1e-12

    def test_draw_reads_the_support_at_draw_index(self):
        # the position protocol of ExactSampler: draw is support() read at
        # draw_index from the same generator state, and support() with its
        # coefficients reproduces distribution()
        s = samplers.UniformXSampler(4, alpha=0.5)
        ax, az, c = s.support()
        k = s.draw_index(np.random.default_rng(24), 5000)
        # one uniform integer per draw, as a single generator call
        assert np.array_equal(
            k, np.random.default_rng(24).integers(0, 1 << s.n, size=5000))
        got = s.draw(np.random.default_rng(24), 5000)
        assert np.array_equal(got[0], ax[k]) and np.array_equal(got[1], az[k])
        assert np.array_equal(c, s.coefficients(ax, az))
        law = np.zeros(4**s.n)
        law[(ax << s.n) | az] = np.abs(c) ** (2 * s.alpha) / s.norm_sum
        assert np.array_equal(law, s.distribution())

    def test_coefficient(self):
        s = samplers.UniformXSampler(2)
        got = s.coefficients(np.array([0b11, 0b11]), np.array([0, 0b01]))
        assert got.tolist() == [0.25, 0.0]

    def test_norm_sum(self):
        s = samplers.UniformXSampler(4, alpha=0.5)
        assert s.norm_sum == pytest.approx(1.0)


class TestDickeSampler:
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 2), (6, 3)])
    def test_distribution_matches_enumeration(self, n, k):
        s = samplers.DickeSampler(n, k)
        want = exact_law(states.dicke_state(n, k), 0.5)
        assert tv(s.distribution(), want) < 1e-9

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_coefficients_match_enumeration(self, n, k):
        s = samplers.DickeSampler(n, k)
        c = pauli_coefficients(states.dicke_state(n, k))
        ax, az = np.divmod(np.arange(1 << (2 * n)), 1 << n)
        assert s.coefficients(ax, az) == pytest.approx(c.values, abs=1e-12)

    def test_norm_sum_is_l1(self):
        for n, k in [(4, 2), (6, 2), (8, 4)]:
            s = samplers.DickeSampler(n, k)
            want = np.abs(pauli_coefficients(states.dicke_state(n, k))
                          .values).sum()
            assert s.norm_sum == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,k", [(40, 10), (63, 31)])
    def test_words_past_bit_31(self, n, k):
        # Far beyond the dense 2^2n regime, drawn int64 words reach past
        # bit 31 without overflow, and every drawn point has c(a) != 0.
        s = samplers.DickeSampler(n, k)
        ax, az = s.draw(np.random.default_rng(5), 200)
        for words in (ax, az):
            assert words.dtype == np.int64
            assert np.all((words >= 0) & (words < 1 << n))
        assert max(ax.max(), az.max()) > 1 << 31
        assert np.all(s.coefficients(ax, az) != 0)

    def test_draw_cap(self):
        s = samplers.DickeSampler(samplers.DICKE_QUBIT_CAP + 1, 2)
        with pytest.raises(CapExceededError):
            s.draw(np.random.default_rng(5), 1)

    def test_polynomial_scaling(self):
        # Setup time should grow polynomially: going n -> 2n must not
        # blow up by anything near the 16x of a dense 4^n table.
        samplers.DickeSampler(20, 5)  # warm the caches' code paths
        t0 = time.perf_counter()
        samplers.DickeSampler(30, 7)
        t1 = time.perf_counter()
        samplers.DickeSampler(60, 14)
        t2 = time.perf_counter()
        assert (t2 - t1) < 200 * max(t1 - t0, 1e-4)


class TestBellCircuitSampler:
    def test_distribution_matches_l2_law(self):
        rng = np.random.default_rng(6)
        psi = states.haar_random(3, rng)
        stripped, _ = states.phase_strip(psi)
        s = samplers.BellCircuitSampler(stripped)
        assert tv(s.distribution(), exact_law(stripped, 1.0)) < 1e-9

    def test_hypergraph_state(self):
        psi, _ = states.hypergraph_state(
            4, states.complete_3_hypergraph_edges(4))
        s = samplers.BellCircuitSampler(psi)
        assert tv(s.distribution(), exact_law(psi, 1.0)) < 1e-9

    def test_rejects_complex_state(self):
        t = states.StateVector.normalized([1, np.exp(1j * np.pi / 4)])
        with pytest.raises(NumericalHealthError):
            samplers.BellCircuitSampler(t)

    def test_cap(self):
        big = states.StateVector(13, np.eye(1 << 13, dtype=complex)[0])
        with pytest.raises(CapExceededError):
            samplers.BellCircuitSampler(big)


class TestMPSL2Sampler:
    @pytest.mark.parametrize("n,chi", [(3, 2), (4, 3), (5, 4)])
    def test_distribution_matches_dense(self, n, chi):
        mps = states.random_real_mps(n, chi, np.random.default_rng(10))
        psi = states.mps_to_statevector(mps)
        s = samplers.MPSL2Sampler(mps)
        assert tv(s.distribution(), exact_law(psi, 1.0)) < 1e-9

    def test_coefficients_match_dense(self):
        n, chi = 4, 3
        mps = states.random_real_mps(n, chi, np.random.default_rng(11))
        c = pauli_coefficients(states.mps_to_statevector(mps))
        s = samplers.MPSL2Sampler(mps)
        ax, az = np.divmod(np.arange(1 << (2 * n)), 1 << n)
        assert np.allclose(s.expectation(ax, az) / (1 << n), c.values,
                           atol=1e-9, rtol=0)

    def test_point_probability_telescopes(self):
        mps = states.random_real_mps(4, 2, np.random.default_rng(14))
        s = samplers.MPSL2Sampler(mps)
        dist = s.distribution()
        ax, az = np.divmod(np.arange(1 << 8), 1 << 4)
        prob = s.point_probability(ax, az)
        assert np.allclose(prob, dist, atol=1e-9, rtol=0)
        assert prob.sum() == pytest.approx(1.0, abs=1e-9)

    def test_large_instance_runs(self):
        mps = states.random_real_mps(12, 8, np.random.default_rng(15))
        s = samplers.MPSL2Sampler(mps)
        ax, az = s.draw(np.random.default_rng(16), 1)
        # probability of the drawn point should be positive
        assert s.point_probability(ax, az)[0] > 0

    def test_batch_draw_equals_per_draw_loop(self):
        # blocks of lockstep draws give the per-draw loop's points: three
        # blocks at n = 4, and 1,000 draws at n = 6, both at chi = 4
        for n, seed, size in ((4, 21, 300), (6, 24, 1000)):
            mps = states.random_real_mps(n, 4, np.random.default_rng(seed))
            s = samplers.MPSL2Sampler(mps)
            got = s.draw(np.random.default_rng(seed + 1), size)
            want = mps_draws_per_shot(s, np.random.default_rng(seed + 1), size)
            assert np.array_equal(got, want)

    def test_draw_at_a_cumulative_conditional(self):
        # |000>: at each site I and Z carry 1/2 each, X and Y nothing, so
        # the cumulative conditionals are 1/2, 1, 1, 1; a uniform at a sum
        # takes the letter above it, as searchsorted(side="right") does
        class Uniforms:
            def random(self, shape):
                u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
                return np.repeat(u, shape[1]).reshape(shape)
        zero = np.zeros((3, 2, 1, 1))
        zero[:, 0] = 1.0
        s = samplers.MPSL2Sampler(states.RealMPS(3, 1, zero, np.ones(1),
                                                 np.ones(1)))
        ax, az = s.draw(Uniforms(), 5)
        assert np.array_equal(ax, [0] * 5)
        assert np.array_equal(az, [0, 0, 7, 7, 7])  # I I I, then Z Z Z
        assert np.array_equal((ax, az), mps_draws_per_shot(s, Uniforms(), 5))

    def test_drift_warning(self):
        mps = states.random_real_mps(6, 4, np.random.default_rng(18))
        s = samplers.MPSL2Sampler(mps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s.draw(np.random.default_rng(19), 500)
        s.DRIFT_TOL = -1.0  # every conditional now drifts too far
        with pytest.warns(RuntimeWarning, match="MPS conditional drift"):
            s.draw(np.random.default_rng(19), 5)
