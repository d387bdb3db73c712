"""Tests for the three fidelity estimators and their aggregation layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import cli, estimation, samplers, states
from fidest.errors import ConfigError
from fidest.f2 import COEFF_TOL, fwht, pauli_coefficients
from reference import (dfe_values_per_shot, fofe_values_per_shot,
                       inverse_cdf, label_codes, partition_claims,
                       spectral_mixture)


def random_pure_pair(n, rng):
    """Target state and an independent noisy preparation of it."""
    target = states.haar_random(n, rng)
    rho = states.depolarize(target, float(rng.uniform(0.05, 0.6)))
    return target, rho


class TestDFE:
    @pytest.mark.parametrize("povm", ["trajectory", "frame"])
    def test_expected_value_is_fidelity(self, povm):
        # sum_a P(a) w(a) <T_a> = F with <T_a> from the engine (trajectory)
        # or as the parity in the diagonalizing frame of T_a (frame)
        rng = np.random.default_rng(0)
        for _ in range(5):
            target, rho = random_pure_pair(3, rng)
            sampler = samplers.ExactSampler(pauli_coefficients(target), 0.5)
            want = states.exact_fidelity(rho, target)
            if povm == "trajectory":
                got = estimation.dfe_expected_value(rho, sampler)
            else:
                dist = sampler.distribution()
                labels = np.flatnonzero(dist)
                ax, az = labels >> 3, labels & 7
                t = estimation._frame_expectations(rho, ax, az, 3)
                got = float(dist[labels] * estimation._weights(sampler, ax, az) @ t)
            assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_frame_expectations_match_the_engine(self, n, seed):
        # <T_a> as the parity of a measurement in the diagonalizing frame
        # equals the engine's <T_a> on every label, for every state type
        rng = np.random.default_rng(seed)
        ax, az = np.divmod(np.arange(4**n), 1 << n)
        for rho in state_kinds(states.haar_random(n, rng), rng):
            assert np.allclose(estimation._frame_expectations(rho, ax, az, n),
                               estimation._pauli_expectations(rho, n)(ax, az),
                               atol=1e-12, rtol=0)

    def test_shot_magnitude_is_l1_at_half(self):
        # At alpha = 1/2 every single-shot value has modulus exactly l1.
        rng = np.random.default_rng(1)
        target, rho = random_pure_pair(3, rng)
        l1 = np.abs(pauli_coefficients(target).values).sum()
        rep = estimation.run_estimator("dfe", target, rho, shots=50, seed=1)
        assert np.allclose(np.abs(rep.values), l1, atol=1e-9, rtol=0)

    def test_stabilizer_target_deterministic(self):
        zero = states.StateVector(2, np.eye(4, dtype=complex)[0])
        rho = states.Mixture(2, (1.0,), (zero,))
        rep = estimation.run_estimator("dfe", zero, rho, shots=30, seed=3)
        assert np.allclose(rep.values, 1.0, atol=1e-12, rtol=0)


class TestFOFE:
    def test_phase_difference_table(self):
        phase = states.PhaseFunction.from_table(
            2, np.array([0.0, 0.5, 1.0, 2.0]))
        diff = estimation.phase_difference_table(phase, 0b01)
        want = np.array([0.5, -0.5 % (2 * np.pi), 1.0, -1.0 % (2 * np.pi)])
        assert np.allclose(diff % (2 * np.pi), want % (2 * np.pi))

    def test_expected_value_is_fidelity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            target, rho = random_pure_pair(3, rng)
            stripped, phi = states.phase_strip(target)
            sampler = samplers.ExactSampler(pauli_coefficients(stripped), 0.5)
            want = states.exact_fidelity(rho, target)
            assert estimation.fofe_expected_value(rho, sampler, phi) \
                == pytest.approx(want, abs=1e-9)

    def test_real_phase_single_branch(self):
        # Hypergraph states have {0, pi} phases: no imaginary branch, and
        # every shot value is +-norm_sum for the uniform-X sampler.
        psi, phi = states.hypergraph_state(
            3, states.complete_3_hypergraph_edges(3))
        rho = states.Mixture(3, (1.0,), (psi,))
        sampler = samplers.UniformXSampler(3, 0.5)
        rng = np.random.default_rng(5)
        res = estimation.fofe_multi_target(rho, sampler, [phi], 40, rng)
        assert res.executions == 40
        assert np.allclose(np.abs(res.reports[0].values), sampler.norm_sum,
                           atol=1e-12, rtol=0)

    def test_complex_phase_two_branches(self):
        rng = np.random.default_rng(6)
        target = states.haar_random(2, rng)
        stripped, phi = states.phase_strip(target)
        sampler = samplers.ExactSampler(pauli_coefficients(stripped), 0.5)
        rho = states.depolarize(target, 0.2)
        res = estimation.fofe_multi_target(rho, sampler, [phi], 10, rng)
        assert res.executions == 2 * 10

    def test_outcome_distribution_normalized(self):
        rng = np.random.default_rng(7)
        psi = states.haar_random(2, rng)
        for branch in ("real", "imag"):
            probs = estimation.fofe_outcome_distribution(psi, 0b10, 0, branch)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= -1e-15).all()

    def test_statistical_agreement(self):
        rng = np.random.default_rng(8)
        target, rho = random_pure_pair(2, rng)
        stripped, phi = states.phase_strip(target)
        sampler = samplers.ExactSampler(pauli_coefficients(stripped), 0.5)
        shots = 4000
        vals = estimation.fofe_multi_target(rho, sampler, [phi], shots,
                                            rng).reports[0].values
        want = states.exact_fidelity(rho, target)
        se = np.std(vals, ddof=1) / np.sqrt(shots)
        assert abs(np.mean(vals) - want) < 4 * se


class TestMultiTarget:
    def test_shared_executions(self):
        n, m, shots = 3, 5, 200
        rng = np.random.default_rng(9)
        phases = [states.PhaseFunction.from_polynomial(
            n, [(1, 2, 3)] if j % 2 else [(1, 2)]) for j in range(m)]
        plus = states.StateVector(n, np.full(8, 2 ** -1.5, dtype=complex))
        rho = states.Mixture(n, (1.0,), (plus,))
        sampler = samplers.UniformXSampler(n, 0.5)
        res = estimation.fofe_multi_target(rho, sampler, phases, shots, rng,
                                           stripped=plus)
        assert len(res.reports) == m
        # All phases real -> one execution per shot, independent of m.
        assert res.executions == shots

    def test_each_estimate_unbiased(self):
        n, shots = 2, 3000
        rng = np.random.default_rng(10)
        phases = [states.PhaseFunction.from_table(n, t) for t in (
            np.zeros(4), np.array([0, np.pi, 0, np.pi]),
            np.array([0, 0.7, 1.9, 4.0]))]
        target = states.phase_state(phases[2])
        rho = states.depolarize(target, 0.3)
        plus = states.StateVector(n, np.full(4, 0.5, dtype=complex))
        res = estimation.fofe_multi_target(
            rho, samplers.UniformXSampler(n, 0.5), phases, shots, rng,
            stripped=plus)
        for rep in res.reports:
            assert abs(rep.mean - rep.exact_fidelity) < 4 * max(rep.stderr,
                                                                1e-6)


class TestQWCPartition:
    def test_claims_every_nonzero_once(self):
        rng = np.random.default_rng(11)
        c = pauli_coefficients(states.haar_random(3, rng))
        part = estimation.build_qwc_partition(c)
        claimed = [i for claims in partition_claims(part) for i in claims]
        assert len(claimed) == len(set(claimed))
        nonzero = set(np.nonzero(np.abs(c.values) > 1e-12)[0].tolist())
        assert set(claimed) == nonzero

    def test_total_weight_at_most_l1(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            c = pauli_coefficients(states.haar_random(3, rng))
            part = estimation.build_qwc_partition(c)
            assert part.total_weight <= np.abs(c.values).sum() + 1e-9

    def test_stabilizer_weight_one(self):
        zero = states.StateVector(3, np.eye(8, dtype=complex)[0])
        part = estimation.build_qwc_partition(pauli_coefficients(zero))
        assert part.total_weight == pytest.approx(1.0, abs=1e-9)

    def test_greedy_ordering_valid_partition(self):
        # greedy-weight is an alternative claim order; it must still
        # claim every nonzero coefficient exactly once and keep W <= l1.
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = pauli_coefficients(states.haar_random(3, rng))
            part = estimation.build_qwc_partition(c, "greedy-weight")
            claimed = [i for claims in partition_claims(part) for i in claims]
            nonzero = set(np.nonzero(np.abs(c.values) > 1e-12)[0].tolist())
            assert set(claimed) == nonzero
            assert len(claimed) == len(set(claimed))
            assert part.total_weight <= np.abs(c.values).sum() + 1e-9

    def test_unknown_ordering(self):
        c = pauli_coefficients(states.StateVector(1, np.array([1, 0],
                                                              dtype=complex)))
        with pytest.raises(ConfigError):
            estimation.build_qwc_partition(c, ordering="best")


@pytest.mark.parametrize("n", [1, 3, 5])
def test_canonical_frame_tables_cached_read_only(n):
    # the tables that depend on n alone are formed once and shared by
    # every build, so no build (canonical or greedy-weight) may write them
    codes, pattern, first = estimation._canonical_frames(n)
    assert estimation._canonical_frames(n)[0] is codes
    for table in (codes, pattern, first):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
    before = [table.copy() for table in (codes, pattern, first)]
    c = pauli_coefficients(states.haar_random(n, np.random.default_rng(n)))
    for ordering in ("greedy-weight", "canonical"):
        estimation.build_qwc_partition(c, ordering)
    for table, old in zip((codes, pattern, first), before):
        assert np.array_equal(table, old)


class TestNLDFE:
    def test_expected_value_is_fidelity(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            target, rho = random_pure_pair(3, rng)
            part = estimation.build_qwc_partition(pauli_coefficients(target))
            want = states.exact_fidelity(rho, target)
            assert estimation.nldfe_expected_value(rho, part) \
                == pytest.approx(want, abs=1e-9)

    def test_shot_bounded_by_total_weight(self):
        rng = np.random.default_rng(15)
        target, rho = random_pure_pair(3, rng)
        part = estimation.build_qwc_partition(pauli_coefficients(target))
        rep = estimation.run_estimator("nldfe", target, rho, shots=50, seed=15)
        assert np.all(np.abs(rep.values) <= part.total_weight + 1e-9)

    def test_statistical_agreement(self):
        rng = np.random.default_rng(16)
        target, rho = random_pure_pair(2, rng)
        vals = estimation.run_estimator("nldfe", target, rho, shots=4000,
                                        seed=16).values
        want = states.exact_fidelity(rho, target)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - want) < 4 * se


class TestAggregation:
    def test_median_of_means_single_batch(self):
        vals = np.arange(10.0)
        assert estimation.median_of_means(vals, 10, 1) == pytest.approx(4.5)

    def test_median_of_means_robust_to_outlier(self):
        vals = np.concatenate([np.ones(30), [1000.0]])
        mom = estimation.median_of_means(vals[:30], 10, 3)
        assert mom == pytest.approx(1.0)

    def test_invalid_batching(self):
        with pytest.raises(ConfigError):
            estimation.median_of_means(np.ones(5), 3, 3)


class TestRunEstimator:
    @pytest.mark.parametrize("scheme", ["dfe", "fofe", "nldfe"])
    def test_runs_and_reports(self, scheme):
        rng = np.random.default_rng(17)
        target, rho = random_pure_pair(2, rng)
        rep = estimation.run_estimator(scheme, target, rho, shots=500, seed=1)
        assert rep.shots == 500
        assert rep.exact_fidelity == pytest.approx(
            states.exact_fidelity(rho, target))
        assert abs(rep.mean - rep.exact_fidelity) < 5 * max(rep.stderr, 1e-6)
        if rep.analytic_bound is not None:
            assert rep.variance <= rep.analytic_bound + 1e-9

    def test_deterministic_across_worker_counts_fixed_seed(self, capsys):
        # --workers changes no result: the rows for 1 and 4 workers are
        # identical, and only the metadata echo differs.
        for scheme in ("dfe", "fofe", "nldfe"):
            rows = {}
            for workers in (1, 4):
                assert cli.main(["run", "--scheme", scheme, "--family", "haar",
                                 "--n", "4", "--p", "0.2", "--shots", "300",
                                 "--seed", "7", "--workers", str(workers),
                                 "--deterministic", "--format", "json"]) == 0
                rows[workers] = json.loads(capsys.readouterr().out)["rows"]
            assert rows[1] == rows[4]

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(19)
        target, rho = random_pure_pair(2, rng)
        for scheme in ("dfe", "fofe", "nldfe"):
            rep_a = estimation.run_estimator(scheme, target, rho, shots=100,
                                             seed=3)
            rep_b = estimation.run_estimator(scheme, target, rho, shots=100,
                                             seed=3)
            assert np.array_equal(rep_a.values, rep_b.values)

    def test_bad_scheme_and_alpha(self):
        target = states.StateVector(1, np.array([1, 0], dtype=complex))
        rho = states.Mixture(1, (1.0,), (target,))
        with pytest.raises(ConfigError):
            estimation.run_estimator("zfe", target, rho, shots=10)
        with pytest.raises(ConfigError):
            estimation.run_estimator("dfe", target, rho, shots=10, alpha=0.7)


def explicit_depolarized(psi, p):
    """The (2^n + 1)-component trajectory mixture that depolarize replaces."""
    dim = 1 << psi.n
    basis = tuple(states.StateVector(psi.n, np.eye(dim, dtype=complex)[x])
                  for x in range(dim))
    return states.Mixture(psi.n, (1.0 - p,) + (p / dim,) * dim, (psi,) + basis)


noisy_targets = st.tuples(st.integers(1, 4), st.integers(0, 2**32 - 1),
                          st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


class TestExactLawOracles:
    """Each scheme's single-shot value law, enumerated from the engine's own
    per-label outcome laws, checked against exact quantities to 1e-12."""

    @settings(max_examples=25, deadline=None)
    @given(noisy_targets)
    def test_dfe_law(self, case):
        n, seed, p = case
        target = states.haar_random(n, np.random.default_rng(seed))
        rho = states.depolarize(target, p)
        coeffs = pauli_coefficients(target)
        l1 = np.abs(coeffs.values).sum()
        sampler = samplers.ExactSampler(coeffs, 0.5)
        values, probs = estimation.dfe_value_law(rho, sampler)
        assert probs.min() >= -1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert values @ probs == pytest.approx(
            states.exact_fidelity(rho, target), abs=1e-12)
        assert values**2 @ probs == pytest.approx(l1**2, rel=1e-12)
        # the closed-form noise has the law of the explicit mixture
        _, mix_probs = estimation.dfe_value_law(explicit_depolarized(target, p),
                                                sampler)
        assert np.allclose(mix_probs, probs, atol=1e-12, rtol=0)

    @settings(max_examples=25, deadline=None)
    @given(noisy_targets, st.booleans())
    def test_fofe_law(self, case, real_phase):
        n, seed, p = case
        rng = np.random.default_rng(seed)
        if real_phase:
            # phase state with phases in {0, pi}: every shot is +-1
            table = np.pi * rng.integers(0, 2, 1 << n)
            target = states.phase_state(states.PhaseFunction.from_table(n, table))
            stripped, phi = states.phase_strip(target)
            sampler = samplers.UniformXSampler(n, 0.5)
        else:
            target = states.haar_random(n, rng)
            stripped, phi = states.phase_strip(target)
            sampler = samplers.ExactSampler(pauli_coefficients(stripped), 0.5)
        rho = states.depolarize(target, p)
        values, probs = estimation.fofe_value_law(rho, sampler, phi)
        assert probs.min() >= -1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert values @ probs == pytest.approx(
            states.exact_fidelity(rho, target), abs=1e-12)
        if real_phase:
            assert np.allclose(values**2, 1.0, atol=1e-12, rtol=0)
        _, mix_probs = estimation.fofe_value_law(
            explicit_depolarized(target, p), sampler, phi)
        assert np.allclose(mix_probs, probs, atol=1e-12, rtol=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_fofe_laws_match_the_circuit(self, n, seed):
        # closed-form branch laws against the simulated Hadamard-test circuit
        rng = np.random.default_rng(seed)
        psi = states.haar_random(n, rng)
        for index in rng.integers(0, 4**n, 4):
            ax, az = divmod(int(index), 1 << n)
            for branch in ("real", "imag"):
                want = np.abs(estimation.fofe_branch_amplitudes(
                    psi, ax, az, branch))**2
                assert np.allclose(estimation.fofe_outcome_distribution(
                    psi, ax, az, branch), want, atol=1e-12, rtol=0)

    @settings(max_examples=15, deadline=None)
    @given(noisy_targets)
    def test_nldfe_law(self, case):
        n, seed, p = case
        target = states.haar_random(n, np.random.default_rng(seed))
        rho = states.depolarize(target, p)
        part = estimation.build_qwc_partition(pauli_coefficients(target))
        values, probs = estimation.nldfe_value_law(rho, part)
        assert probs.min() >= -1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert values @ probs == pytest.approx(
            states.exact_fidelity(rho, target), abs=1e-12)
        assert np.all(np.abs(values) <= part.total_weight * (1 + 1e-12))
        _, mix_probs = estimation.nldfe_value_law(
            explicit_depolarized(target, p), part)
        assert np.allclose(mix_probs, probs, atol=1e-12, rtol=0)

    def test_mixed_fofe_law_closed_form(self):
        # I/2^n: the real branch has law 2^-n (1 + (-1)^b1 [ax = 0]
        # (-1)^(az.b')) / 2 and the imaginary branch is uniform.
        n = 2
        mixed = states.depolarize(states.haar_random(n, np.random.default_rng(0)),
                                  1.0)
        dense = states.Mixture(n, (), (), 1.0)
        b1, b = np.arange(8) >> n, np.arange(8) & 3
        for index in range(16):
            ax, az = divmod(index, 1 << n)
            parity = np.array([bin(az & x).count("1") & 1 for x in b])
            real = (1 + (-1.0)**b1 * (ax == 0) * (-1.0)**parity) / 8
            for branch, want in (("real", real), ("imag", np.full(8, 1 / 8))):
                for state in (mixed, dense):
                    got = estimation.fofe_outcome_distribution(state, ax, az,
                                                               branch)
                    assert np.allclose(got, want, atol=1e-15, rtol=0)

    def test_inverse_cdf_quantiles(self):
        # Evenly spaced u over one group's row hit every outcome in
        # proportion to its law, and never a zero-probability outcome.
        laws = np.array([[0.25, 0.0, 0.75, 0.0], [0.0, 0.5, 0.0, 0.5]])
        # frame ZZ reads <T_(0, s)> and frame XX reads <T_(s, 0)>, and each
        # law is the WHT of its row over 4
        t = fwht(laws)
        outcomes = estimation._group_outcomes(
            label_codes(["ZZ", "XX"]),
            lambda ax, az: np.where(ax == 0, t[0][az], t[1][ax]))
        k = 400
        u = (np.arange(k) + 0.5) / k
        for row in range(2):
            out = outcomes(np.full(k, row), u)
            assert np.array_equal(np.bincount(out, minlength=4) / k, laws[row])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_group_laws_are_born_laws(self, n, seed):
        # one WHT of a frame's <T_a> row gives the Born law of measuring in
        # that frame, on every form of state and both <T_a> routes: the
        # target's table (pure, noisy) and rows formed on demand (others)
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 3, (int(rng.integers(1, 8)), n))
        mx, mz = estimation._frame_masks(codes, n)
        psi = states.haar_random(n, rng)
        coeffs = pauli_coefficients(psi)
        for kind, rho in enumerate(state_kinds(psi, rng)):
            table = estimation._table_expectations(rho, psi, coeffs)
            assert (table is not None) == (kind < 2)
            expectations = table or estimation._pauli_expectations(rho, n)
            assert np.allclose(estimation._group_laws(expectations, mx, mz, n),
                               rho.born_laws(codes), atol=1e-12, rtol=0)

    def test_group_laws_formed_once_when_first_drawn(self):
        # laziness: <T_a> is requested only for groups a call newly draws
        n = 6
        target, rho = random_pure_pair(n, np.random.default_rng(17))
        part = estimation.build_qwc_partition(pauli_coefficients(target))
        mx, mz = estimation._frame_masks(part.groups.frame, n)
        group_of = {(x, z): g for g, (x, z) in enumerate(zip(mx, mz))}
        inner = estimation._pauli_expectations(rho, n)
        requests = []

        def spy(ax, az):
            requests.append((ax, az))
            return inner(ax, az)

        def formed():
            """Groups whose rows were requested since the last look."""
            out = []
            for ax, az in requests:
                # the full position s = 2^n - 1 of a row is its group's masks
                rows = [group_of[(x, z)] for x, z in zip(ax[:, -1], az[:, -1])]
                s = np.arange(1 << n)
                assert np.array_equal(ax, s & mx[rows, None])
                assert np.array_equal(az, s & mz[rows, None])
                out += rows
            requests.clear()
            return sorted(out)

        estimation._nldfe_values(part, 1, np.random.default_rng(0), spy)
        assert len(formed()) == 1
        # over two blocks, no group's row is formed twice
        estimation._nldfe_values(part, 2 * estimation.BLOCK_SHOTS,
                                 np.random.default_rng(0), spy)
        rows = formed()
        assert len(rows) == len(set(rows))
        rng = np.random.default_rng(1)
        outcomes = estimation._group_outcomes(part.groups.frame, spy)
        first = rng.integers(0, part.groups.size, 30)
        outcomes(first, rng.random(first.size))
        assert formed() == sorted(set(first.tolist()))
        second = np.concatenate([first[:10],
                                 rng.integers(0, part.groups.size, 30)])
        outcomes(second, rng.random(second.size))
        assert formed() == sorted(set(second.tolist()) - set(first.tolist()))
        outcomes(first, rng.random(first.size))
        assert formed() == []


def state_kinds(psi, rng):
    """psi in each form of state: pure, one member plus white noise, the
    spectral ensemble of that noisy state, and a trajectory mixture."""
    other = states.haar_random(psi.n, rng)
    noisy = states.depolarize(psi, 0.3)
    return (psi, noisy, spectral_mixture(states.density_matrix(noisy)),
            states.Mixture(psi.n, (0.4, 0.6), (psi, other)))


def assert_frequencies(outcomes, rows, laws):
    """Each row's outcome frequencies lie within 6 binomial standard
    errors (plus 1e-3) of its exact law."""
    for row, law in enumerate(laws):
        got = outcomes[rows == row]
        freq = np.bincount(got, minlength=law.size) / got.size
        se = np.sqrt(law * (1 - law) / got.size)
        assert np.all(np.abs(freq - law) <= 6 * se + 1e-3), (row, freq, law)


class TestOutcomeSamplers:
    """The per-shot outcome draws follow the exact per-label laws the
    value-law oracles enumerate."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["real", "imag"])
    def test_fofe_outcomes_follow_branch_law(self, n, branch):
        rng = np.random.default_rng(40 + n)
        ax, az = np.divmod(rng.integers(0, 4**n, 6), 1 << n)
        for rho in state_kinds(states.haar_random(n, rng), rng):
            diag = estimation._computational_law(rho)
            laws = np.clip(estimation._fofe_laws(rho, ax, az, n, branch, diag), 0, None)
            rows = rng.integers(0, ax.size, 120_000)
            b, sign = estimation._fofe_outcomes(rho, diag, ax, az)(
                rows, branch, rng.random((3, rows.size)))
            assert_frequencies(((sign < 0) << n) | b, rows, laws)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_frame_outcomes_follow_born_law(self, n):
        # the NLDFE draw, on both <T_a> routes
        rng = np.random.default_rng(50 + n)
        codes = rng.integers(0, 3, (6, n))
        psi = states.haar_random(n, rng)
        for rho in state_kinds(psi, rng):
            laws = np.clip(rho.born_laws(codes), 0, None)
            rows = rng.integers(0, codes.shape[0], 120_000)
            outcomes = estimation._group_outcomes(codes, estimation._expectations(
                rho, psi, pauli_coefficients(psi)))
            assert_frequencies(outcomes(rows, rng.random(rows.size)), rows, laws)

    @settings(max_examples=25, deadline=None)
    @given(noisy_targets)
    def test_table_expectations_match_the_transform(self, case):
        n, seed, p = case
        rng = np.random.default_rng(seed)
        target = states.haar_random(n, rng)
        coeffs = pauli_coefficients(target)
        ax, az = np.divmod(np.arange(4**n), 1 << n)
        for rho in (target, states.depolarize(target, p)):
            table = estimation._table_expectations(rho, target, coeffs)
            assert np.allclose(table(ax, az),
                               estimation._pauli_expectations(rho, n)(ax, az),
                               atol=1e-12, rtol=0)
        # any other state has no table, however equal its matrix
        for rho in (explicit_depolarized(target, p),
                    spectral_mixture(states.density_matrix(
                        states.depolarize(target, p))),
                    states.depolarize(states.haar_random(n, rng), p)):
            assert estimation._table_expectations(rho, target, coeffs) is None

    def test_cdf_table_matches_searchsorted(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            w = rng.random(size) * (rng.random(size) < 0.6)
            w[0] += w.sum() == 0
            cum = np.cumsum(w)
            v = np.concatenate([rng.random(200) * cum[-1], cum,
                                np.nextafter(cum, 0), [0.0]])
            want = np.minimum(np.searchsorted(cum, v, side="right"), size - 1)
            assert np.array_equal(samplers.CdfTable(cum).search(v), want)
        # values just below sums that sit on bucket edges, where the guide
        # table's rounded edge lands one step past the answer
        for size in range(1, 100):
            cum = np.arange(1, size + 1) / size
            v = np.nextafter(cum, 0)
            want = np.minimum(np.searchsorted(cum, v, side="right"), size - 1)
            assert np.array_equal(samplers.CdfTable(cum).search(v), want)

    def test_cdf_table_rows_match_searchsorted(self):
        # zero weights (tied sums, leading and trailing), unnormalised last
        # sums, and tables whose rows are filled after they are made
        rng = np.random.default_rng(61)
        for _ in range(200):
            count, size = int(rng.integers(1, 6)), int(rng.integers(1, 40))
            w = rng.random((count, size)) * (rng.random((count, size)) < 0.5)
            w[:, rng.integers(0, size)] += 1.0
            cum = np.cumsum(w, axis=1) * rng.uniform(0.01, 100.0, (count, 1))
            rows = rng.integers(0, count, 400)
            at = cum[rows, rng.integers(0, size, rows.size)]
            v = np.concatenate([rng.random(rows.size) * cum[rows, -1], at,
                                np.nextafter(at, 0), np.zeros(rows.size)])
            rows = np.tile(rows, 4)
            want = np.array([min(np.searchsorted(cum[r], x, side="right"), size - 1)
                             for r, x in zip(rows, v)])
            slot = rng.permutation(count + 1)[:count]  # one slot never filled
            table = samplers.CdfTable.empty(count + 1, size)
            table.fill(slot, cum)
            assert np.array_equal(table.search(v, slot[rows]), want)
            for r in range(count):
                assert np.array_equal(samplers.CdfTable(cum[r]).search(v[rows == r]),
                                      want[rows == r])

    @staticmethod
    def edge_values(cum, rng):
        """0, every sum and the double below it, the total and the double
        above it, the largest uniform times the total, and uniforms."""
        total = cum[-1]
        return np.concatenate([[0.0, total, np.nextafter(total, np.inf),
                                np.nextafter(1.0, 0.0) * total],
                               cum, np.nextafter(cum, 0),
                               rng.random(4096) * total])

    @staticmethod
    def zero_runs(size, rng):
        """Weights with a leading, a tied (mid-row) and a trailing run of
        zeros, and about a third of the rest zero too.  A value at a tied
        sum steps past the whole run, so runs stay short."""
        w = rng.random(size) ** 3 * (rng.random(size) < 0.7)
        run = min(max(1, size // 50), 40)
        w[:run] = 0.0
        w[size // 2:size // 2 + run] = 0.0
        w[size - run:] = 0.0
        w[run if size > 2 * run else 0] = 1.0
        return w

    @pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 257, 1024, 65537,
                                      133_114, 1 << 17])
    def test_cdf_table_large_row_matches_searchsorted(self, size):
        rng = np.random.default_rng(62 + size)
        w = self.zero_runs(size, rng)
        # a law normalised as the samplers form it (its total may miss 1
        # by an ulp), and one with an unnormalised total
        for cum in (np.cumsum(w / w.sum()), np.cumsum(w) * 37.5):
            v = self.edge_values(cum, rng)
            got = samplers.CdfTable(cum).search(v)
            assert np.array_equal(got, inverse_cdf(cum, v))

    @pytest.mark.parametrize("size", [1, 2, 256, 257, 4099, 1 << 17])
    def test_cdf_table_filled_rows_match_searchsorted(self, size):
        rng = np.random.default_rng(63 + size)
        count = 3
        cum = np.array([np.cumsum(self.zero_runs(size, rng)) for _ in range(count)])
        cum[1] /= cum[1, -1]
        table = samplers.CdfTable.empty(count + 2, size)
        slot = np.array([4, 0, 2])  # rows 1 and 3 are never filled
        table.fill(slot[:2], cum[:2])
        table.fill(slot[2:], cum[2:])  # a later fill leaves earlier rows
        values = [self.edge_values(row, rng) for row in cum]
        rows = np.repeat(np.arange(count), [v.size for v in values])
        v = np.concatenate(values)
        order = rng.permutation(v.size)  # rows interleaved in one search
        got = table.search(v[order], slot[rows[order]])
        want = np.concatenate([inverse_cdf(row, x) for row, x in zip(cum, values)])
        assert np.array_equal(got, want[order])

    def test_cdf_table_value_a_rounding_above_total(self):
        # totals whose scaled value rounds below the last bucket while the
        # double above them reaches it: the last guide entry would count
        # every sum, and only leaving the last sum out of the guide keeps
        # the start inside the row
        rng = np.random.default_rng(64)
        hits = 0
        for size in range(1, 65):
            buckets = samplers.BUCKETS_PER_ENTRY * size
            for total in rng.uniform(0.01, 3.0, 50):
                cum = np.linspace(total / size, total, size)
                one = samplers.CdfTable(cum)
                v = np.array([np.nextafter(total, np.inf)])
                if not total * one.scale[0] < buckets <= v[0] * one.scale[0]:
                    continue
                hits += 1
                rows = samplers.CdfTable.empty(2, size)
                rows.fill(np.array([1]), cum[None])
                assert one.search(v) == rows.search(v, np.array([1])) == size - 1
        assert hits > 100

    @pytest.mark.parametrize("size", [1, 2, 255, 256, 257, 65536, 65537])
    def test_cdf_table_guide_is_smallest_type(self, size):
        want = np.min_scalar_type(size - 1)
        cum = np.arange(1.0, size + 1)
        assert samplers.CdfTable(cum).guide.dtype == want
        assert samplers.CdfTable.empty(2, size).guide.dtype == want


def fofe_targets(case, n, rng):
    """(rho, sampler, phases) for one engine-law case: a {0, pi} phase
    state on the uniform-X sampler (real branch only), a Haar target on
    its stripped coefficients (both branches), and a two-member mixture
    whose one call estimates a complex and a real phase function."""
    if case == "phase":
        table = np.pi * rng.integers(0, 2, 1 << n)
        target = states.phase_state(states.PhaseFunction.from_table(n, table))
        sampler = samplers.UniformXSampler(n, 0.5)
        return states.depolarize(target, 0.2), sampler, [states.phase_strip(target)[1]]
    target = states.haar_random(n, rng)
    stripped, phi = states.phase_strip(target)
    sampler = samplers.ExactSampler(pauli_coefficients(stripped), 0.5)
    if case == "haar":
        return states.depolarize(target, 0.2), sampler, [phi]
    rho = states.Mixture(n, (0.5, 0.3), (target, states.haar_random(n, rng)), 0.2)
    real = states.PhaseFunction.from_table(n, np.pi * rng.integers(0, 2, 1 << n))
    return rho, sampler, [phi, real]


def assert_follows_value_law(got, values, probs):
    """Every shot value lies within 1e-12 of a value of the law, and the
    value classes (law values within 1e-12 of their neighbour) occur at
    their law's frequencies (``assert_frequencies``)."""
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    level = np.concatenate([[0], np.cumsum(np.diff(values) > 1e-12)])
    law = np.clip(np.bincount(level, weights=probs), 0.0, None)
    right = np.clip(np.searchsorted(values, got), 1, values.size - 1)
    nearest = np.where(got - values[right - 1] <= values[right] - got,
                       right - 1, right)
    assert np.max(np.abs(values[nearest] - got)) <= 1e-12
    assert_frequencies(level[nearest], np.zeros(got.size, dtype=int), [law])


class TestEngineValueLaw:
    """The engine's shot values, drawn through ``fofe_multi_target`` and
    ``_dfe_values``, are values of the schemes' value laws and follow
    them."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("case", ["phase", "haar", "mixture"])
    def test_values_follow_the_value_law(self, case, n):
        rng = np.random.default_rng(70 + n)
        rho, sampler, phases = fofe_targets(case, n, rng)
        shots = 120_000
        res = estimation.fofe_multi_target(rho, sampler, phases, shots, rng)
        assert res.executions == shots * (1 if case == "phase" else 2)
        for report, phi in zip(res.reports, phases):
            assert_follows_value_law(report.values, *estimation.fofe_value_law(
                rho, sampler, phi))

    @pytest.mark.parametrize("n", [2, 3])
    def test_dfe_values_follow_the_value_law(self, n):
        # both <T_a> routes (``state_kinds``): the target's table for the
        # first two forms, rows formed on demand for the ensembles
        rng = np.random.default_rng(80 + n)
        target = states.haar_random(n, rng)
        coeffs = pauli_coefficients(target)
        sampler = samplers.ExactSampler(coeffs, 0.5)
        for rho in state_kinds(target, rng):
            got = estimation._dfe_values(
                sampler, 120_000, rng, estimation._expectations(rho, target, coeffs))
            assert_follows_value_law(got, *estimation.dfe_value_law(rho, sampler))


class TestDFETables:
    """``_dfe_values`` forms w(a) and (1 + <T_a>)/2 once a call over the
    sampler's support, and gives the per-shot draw's values bit for bit."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("shots", [1, 3, 2 * estimation.BLOCK_SHOTS + 5])
    def test_equals_the_per_shot_draw(self, shots, alpha):
        rng = np.random.default_rng(90)
        target = states.haar_random(4, rng)
        coeffs = pauli_coefficients(target)
        sampler = samplers.ExactSampler(coeffs, alpha)
        for rho in state_kinds(target, rng):
            rngs = np.random.default_rng(91), np.random.default_rng(91)
            got = estimation._dfe_values(
                sampler, shots, rngs[0], estimation._expectations(rho, target, coeffs))
            want = dfe_values_per_shot(
                sampler, shots, rngs[1], estimation._expectations(rho, target, coeffs))
            assert np.array_equal(got, want)
            # the same draws in the same order: the streams end level
            assert rngs[0].random() == rngs[1].random()

    def test_expectations_asked_once_over_the_support(self):
        n = 5
        rng = np.random.default_rng(92)
        target = states.haar_random(n, rng)
        coeffs = pauli_coefficients(target)
        support = np.flatnonzero(np.abs(coeffs.values) > COEFF_TOL)
        sampler = samplers.ExactSampler(coeffs, 0.5)
        for rho in state_kinds(target, rng):
            for shots in (1, 3, 2 * estimation.BLOCK_SHOTS + 5):
                inner = estimation._expectations(rho, target, coeffs)
                requests = []

                def spy(ax, az):
                    requests.append((ax.copy(), az.copy()))
                    return inner(ax, az)

                estimation._dfe_values(sampler, shots,
                                       np.random.default_rng(shots), spy)
                assert len(requests) == 1
                ax, az = requests[0]
                assert np.array_equal((ax << n) | az, support)

    def test_zero_probability_outcome_never_drawn(self):
        # rho = |1> and T_a = Z: <Z> = -1, so the shot is -w(Z) for every
        # uniform, u = 0.0 included; u = 1 - 2^-53 draws Z, the last point
        # of the support {I, Z} of |0>
        zero, one = (states.StateVector(1, np.eye(2, dtype=complex)[b])
                     for b in (0, 1))
        coeffs = pauli_coefficients(zero)
        sampler = samplers.ExactSampler(coeffs, 0.5)

        class Scripted:
            """random(size) gives the next scripted value, `size` times."""
            def __init__(self, *values):
                self.values = list(values)

            def random(self, size):
                return np.full(size, self.values.pop(0))

        rng = Scripted(np.nextafter(1.0, 0.0), 0.0)
        got = estimation._dfe_values(sampler, 4, rng,
                                     estimation._expectations(one, zero, coeffs))
        assert np.array_equal(got, np.full(4, -1.0))


def fofe_table_targets(case, rng):
    """(target, sampler, phases) for one per-call-table case: the complete
    3-hypergraph (a real phase) and a random-phase state (complex, two
    branches) on the uniform-X sampler, whose support has no Z part; Haar
    and Dicke targets on their stripped coefficients, whose supports do;
    and a random-phase target estimated together with a real phase."""
    n = 4
    if case == "hypergraph":
        target, phi = states.hypergraph_state(
            n, states.complete_3_hypergraph_edges(n))
        return target, samplers.UniformXSampler(n, 0.5), [phi]
    if case in ("phase-random", "multi-target"):
        phi = states.PhaseFunction.from_table(
            n, rng.uniform(0.0, 2.0 * np.pi, 1 << n))
        phases = [phi]
        if case == "multi-target":
            phases.append(states.PhaseFunction.from_table(
                n, np.pi * rng.integers(0, 2, 1 << n)))
        return states.phase_state(phi), samplers.UniformXSampler(n, 0.5), phases
    target = (states.haar_random(n, rng) if case == "haar"
              else states.dicke_state(n, 2))
    stripped, phi = states.phase_strip(target)
    return target, samplers.ExactSampler(pauli_coefficients(stripped), 0.5), [phi]


class TestFOFETables:
    """``_fofe_values`` draws support positions and forms w(a) and the
    cross-term factors once a call, and gives the per-shot draw's values
    bit for bit, leaving the generator where the per-shot draw does."""

    @pytest.mark.parametrize("shots", [3, 2 * estimation.BLOCK_SHOTS + 5])
    @pytest.mark.parametrize("case", ["hypergraph", "phase-random", "haar",
                                      "dicke", "multi-target"])
    def test_equals_the_per_shot_draw(self, case, shots):
        rng = np.random.default_rng(93)
        target, sampler, phases = fofe_table_targets(case, rng)
        z_free = not sampler.support()[1].any()
        assert z_free == (case in ("hypergraph", "phase-random", "multi-target"))
        for rho in state_kinds(target, rng):
            rngs = np.random.default_rng(94), np.random.default_rng(94)
            got = estimation._fofe_values(rho, sampler, phases, shots, rngs[0])
            want = fofe_values_per_shot(rho, sampler, phases, shots, rngs[1])
            assert got[0].tobytes() == want.tobytes()
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_multi_target_reports_the_per_shot_values(self):
        rng = np.random.default_rng(95)
        target, sampler, phases = fofe_table_targets("multi-target", rng)
        rho = states.depolarize(target, 0.2)
        res = estimation.fofe_multi_target(rho, sampler, phases, 1000,
                                           np.random.default_rng(96))
        want = fofe_values_per_shot(rho, sampler, phases, 1000,
                                    np.random.default_rng(96))
        assert [phi.is_real() for phi in phases] == [False, True]
        for report, row in zip(res.reports, want):
            assert report.values.tobytes() == row.tobytes()


def sequential_partition(coeffs, frames, tol=1e-12):
    """Reference QWC partition: frames in the given order, each claiming
    the nonzero coefficients of its group that no earlier frame holds."""
    n = coeffs.n
    claimed = np.zeros(4**n, dtype=bool)
    groups = []
    for frame in frames:
        mx = sum(1 << (n - 1 - q) for q, lab in enumerate(frame) if lab != "Z")
        mz = sum(1 << (n - 1 - q) for q, lab in enumerate(frame) if lab != "X")
        s = np.arange(1 << n)
        idx = ((s & mx) << n) | (s & mz)
        take = ~claimed[idx] & (np.abs(coeffs.values[idx]) > tol)
        if take.any():
            claimed[idx[take]] = True
            groups.append((tuple(frame), tuple(idx[take].tolist()),
                           np.where(take, coeffs.values[idx], 0.0)))
    return groups


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ordering", ["canonical", "greedy-weight"])
def test_partition_matches_sequential_claims(n, ordering):
    import itertools
    rng = np.random.default_rng(70 + n)
    for psi in (states.haar_random(n, rng), states.dicke_state(n, 1),
                states.StateVector(n, np.eye(1 << n, dtype=complex)[0])):
        coeffs = pauli_coefficients(psi)
        frames = list(itertools.product("ZXY", repeat=n))
        if ordering == "greedy-weight":
            full = coeffs.values[[
                (sum(1 << (n - 1 - q) for q, lab in enumerate(f) if lab != "Z") << n)
                | sum(1 << (n - 1 - q) for q, lab in enumerate(f) if lab != "X")
                for f in frames]]
            frames = [frames[k] for k in np.argsort(-np.abs(full), kind="stable")]
        part = estimation.build_qwc_partition(coeffs, ordering)
        want = sequential_partition(coeffs, frames)
        assert part.groups.frame.tolist() == \
            label_codes([frame for frame, _, _ in want]).tolist()
        assert partition_claims(part) == [claimed for _, claimed, _ in want]
        for g, (_, _, c_s) in zip(part.groups, want):
            assert np.array_equal(g.chat, fwht(c_s))
