"""Tests for norm reports, variance bounds, hypergraph rank machinery,
and the Haar / Dirichlet closed forms."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import magic, states
from fidest.errors import DimensionError
from fidest.f2 import f2_rank, pauli_coefficients
from incomplete_beta import incomplete_beta, incomplete_beta_log
from reference import (dirichlet_sqrt_pair_moment, f2_from_dense, f2_to_dense,
                       haar_l1_asymptote)


class TestNorms:
    def test_stabilizer_state(self):
        zero = states.StateVector(3, np.eye(8, dtype=complex)[0])
        rep = magic.norms(zero)
        assert rep.l1 == pytest.approx(1.0)
        assert rep.l0 == pytest.approx(1.0)  # 2^n nonzero / 2^n
        assert rep.sre[2.0] == pytest.approx(0.0, abs=1e-12)

    def test_t_state_l1(self):
        t = states.StateVector.normalized([1, np.exp(1j * np.pi / 4)])
        rep = magic.norms(t)
        assert rep.l1 == pytest.approx((1 + np.sqrt(2)) / 2, abs=1e-12)

    def test_l2_is_purity_normalized(self):
        # l2 reports sqrt(2^n sum c^2), which is 1 for every pure state.
        psi = states.haar_random(3, np.random.default_rng(0))
        rep = magic.norms(psi)
        assert rep.l2 == pytest.approx(1.0, abs=1e-9)

    def test_l1_at_least_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            rep = magic.norms(states.haar_random(2, rng))
            assert rep.l1 >= 1.0 - 1e-12


def naive_derivative_matrix(n, monomials, x):
    """Oracle: N(x)_{m,k} from finite differences of the cubic polynomial.

    f(x) = sum over monomials of the product of the involved bits; the
    bilinear form is f(x) + f(x+e_m) + f(x+e_k) + f(x+e_m+e_k) mod 2.
    """
    def f(y):
        tot = 0
        for mono in monomials:
            tot += all((y >> (n - i)) & 1 for i in mono)
        return tot & 1

    mat = np.zeros((n, n), dtype=int)
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            if m == k:
                continue
            em, ek = 1 << (n - m), 1 << (n - k)
            mat[m - 1, k - 1] = f(x) ^ f(x ^ em) ^ f(x ^ ek) ^ f(x ^ em ^ ek)
    return mat


class TestHypergraphRank:
    def test_matrix_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(3)
        n = 5
        monos = [(1, 2, 3), (2, 4, 5), (1, 3, 5)]
        for _ in range(10):
            x = int(rng.integers(0, 1 << n))
            got = f2_to_dense(magic.hypergraph_derivative_matrix(n, monos, x))
            assert np.array_equal(got, naive_derivative_matrix(n, monos, x))

    def test_quadratic_terms_do_not_contribute(self):
        # The second finite difference of a degree-<=2 polynomial vanishes,
        # so graph edges leave the derivative matrix unchanged.
        n = 4
        cubic = [(1, 2, 3)]
        mixed = [(1, 2, 3), (1, 4), (2, 3)]
        for x in range(1 << n):
            a = f2_to_dense(magic.hypergraph_derivative_matrix(n, cubic, x))
            b = f2_to_dense(magic.hypergraph_derivative_matrix(n, mixed, x))
            assert np.array_equal(a, b)

    def test_rejects_bad_monomials(self):
        with pytest.raises(ValueError):
            magic.hypergraph_derivative_matrix(4, [(1, 2, 3, 4)], 0b1111)
        with pytest.raises(ValueError):
            magic.hypergraph_derivative_matrix(4, [(1, 1, 2)], 0b1111)
        with pytest.raises(DimensionError):
            magic.hypergraph_derivative_matrix(4, [(1, 2, 5)], 0b1111)

    def test_complete3_rank_closed_form(self):
        for n in (3, 4, 5, 6):
            edges = states.complete_3_hypergraph_edges(n)
            for x in range(1 << n):
                direct = f2_rank(
                    magic.hypergraph_derivative_matrix(n, edges, x))
                assert magic.complete3_rank(n, x) == direct

    def test_l1_identity_against_coefficients(self):
        # l1 = E_x 2^(rank/2) must equal the brute-force Pauli l1-norm.
        for n in (3, 4, 5, 6):
            psi, _ = states.hypergraph_state(
                n, states.complete_3_hypergraph_edges(n))
            brute = np.abs(pauli_coefficients(psi).values).sum()
            assert magic.complete3_l1_exact(n) == pytest.approx(
                brute, abs=1e-9)

    def test_l1_identity_random_hypergraphs(self):
        rng = np.random.default_rng(4)
        n = 5
        triples = states.complete_3_hypergraph_edges(n)
        for _ in range(5):
            take = [t for t in triples if rng.random() < 0.5]
            psi, _ = states.hypergraph_state(n, take)
            brute = np.abs(pauli_coefficients(psi).values).sum()
            mean = np.mean([
                2.0 ** (f2_rank(magic.hypergraph_derivative_matrix(
                    n, take, x)) / 2.0)
                for x in range(1 << n)])
            assert mean == pytest.approx(brute, abs=1e-9)

    def test_known_complete_l1_values(self):
        assert magic.complete3_l1_exact(4) == pytest.approx(1.875)
        assert magic.complete3_l1_exact(5) == pytest.approx(2.96875)
        assert magic.complete3_l1_exact(7) == pytest.approx(4.9921875)

    def test_sampled_bounds_are_ordered_and_bracket(self):
        # The sampled bracket estimates the closed-form one: each end lies
        # within 4 standard errors of it, the errors of 400 samples taken
        # from the exact rank law (rank 0 at x = 0, else rank 2h with
        # probability r(n-1, h)); the lower end by the delta method.
        n, samples = 5, 400
        vb = magic.random3_sampled_bounds(n, samples, np.random.default_rng(5))
        assert vb.lower <= vb.upper
        closed = magic.random3_variance_bounds(n)
        p0 = 2.0**-n
        law = magic.hollow_rank_distribution(n - 1)
        ranks = np.array([0] + [2 * h for h in law])
        probs = np.array([p0] + [(1 - p0) * float(p) for p in law.values()])

        def sd(v):
            return math.sqrt(probs @ (v - probs @ v) ** 2)
        se_lower = math.log(2) * closed.lower * sd(ranks) / math.sqrt(samples)
        se_upper = sd(2.0**ranks) / math.sqrt(samples)
        assert abs(vb.lower - closed.lower) <= 4 * se_lower
        assert abs(vb.upper - closed.upper) <= 4 * se_upper

    @pytest.mark.parametrize("n", range(3, 11))
    def test_complete3_bounds_match_enumeration(self, n):
        ranks = np.array([magic.complete3_rank(n, x) for x in range(1 << n)])
        vb = magic.complete3_variance_bounds(n)
        assert vb.lower == pytest.approx(2.0 ** ranks.mean(), rel=0, abs=1e-12)
        assert vb.upper == pytest.approx(np.mean(2.0 ** ranks), rel=0,
                                         abs=1e-12)
        assert vb.lower <= magic.complete3_l1_exact(n) ** 2 <= vb.upper

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_random3_bounds_match_enumeration(self, n):
        # every edge set of the cubic hypergraphs on n vertices, every x
        triples = states.complete_3_hypergraph_edges(n)
        ranks = np.array([
            f2_rank(magic.hypergraph_derivative_matrix(
                n, [t for j, t in enumerate(triples) if mask >> j & 1], x))
            for mask in range(1 << len(triples)) for x in range(1 << n)])
        vb = magic.random3_variance_bounds(n)
        assert vb.lower == pytest.approx(2.0 ** ranks.mean(), rel=0, abs=1e-12)
        assert vb.upper == pytest.approx(np.mean(2.0 ** ranks), rel=0,
                                         abs=1e-12)


class TestHollowRankCounts:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12))
    def test_counts_sum_to_matrix_total(self, n):
        total = sum(magic.hollow_symmetric_rank_count(n, r)
                    for r in range(n + 1))
        assert total == 1 << (n * (n - 1) // 2)

    def test_odd_rank_zero(self):
        assert magic.hollow_symmetric_rank_count(6, 3) == 0

    def test_small_exhaustive(self):
        # n = 3: enumerate all hollow-symmetric matrices directly.
        counts = {}
        for bits in range(8):
            e12, e13, e23 = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
            dense = np.array([[0, e12, e13], [e12, 0, e23], [e13, e23, 0]])
            r = f2_rank(f2_from_dense(dense))
            counts[r] = counts.get(r, 0) + 1
        for r in range(4):
            assert magic.hollow_symmetric_rank_count(3, r) == counts.get(r, 0)

    def test_distribution_normalizes(self):
        r = magic.hollow_rank_distribution(8)
        assert sum(r.values()) == Fraction(1)


class TestIncompleteBeta:
    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for (x, a, b) in [(0.5, 2.0, 3.0), (0.25, 0.5, 0.5),
                          (0.9, 5.0, 1.5), (1.0, 3.0, 3.0)]:
            want = float(mpmath.betainc(a, b, 0, x))
            assert incomplete_beta(x, a, b) == pytest.approx(
                want, rel=1e-12)

    def test_log_version_consistent(self):
        for (x, a, b) in [(0.5, 2.0, 3.0), (0.5, 100.0, 50.0)]:
            assert math.exp(incomplete_beta_log(x, a, b)) \
                == pytest.approx(incomplete_beta(x, a, b), rel=1e-10)


class TestHaarL1:
    def test_n1_exact(self):
        assert magic.haar_l1_mean_closed_form(1) == pytest.approx(1.25)

    def test_log_matches_mpmath(self):
        # 2^-n + (4^n - 1) Gamma(2^n) / (2^n Gamma(m)^2) 2^(1-2m) / m at
        # 40 digits, m = 2^(n-1)
        with mpmath.workdps(40):
            for n in range(1, 17):
                d, m = mpmath.mpf(2) ** n, mpmath.mpf(2) ** (n - 1)
                want = 1 / d + ((4 ** mpmath.mpf(n) - 1) * mpmath.gamma(d)
                                / (d * mpmath.gamma(m) ** 2) * 2 ** (1 - 2 * m) / m)
                got = math.exp(magic.haar_l1_mean_log(n))
                assert abs(got / want - 1) <= 1e-14, n

    def test_log_matches_closed_form(self):
        for n in range(1, 12):
            assert math.exp(magic.haar_l1_mean_log(n)) == pytest.approx(
                magic.haar_l1_mean_closed_form(n), rel=1e-12)

    def test_monte_carlo_agreement(self):
        # Direct Haar sampling at n = 3: closed form within 4 sigma.
        rng = np.random.default_rng(6)
        n, m = 3, 400
        vals = [np.abs(pauli_coefficients(
            states.haar_random(n, rng)).values).sum() for _ in range(m)]
        mean, se = np.mean(vals), np.std(vals, ddof=1) / np.sqrt(m)
        assert abs(mean - magic.haar_l1_mean_closed_form(n)) < 4 * se

    def test_asymptote_ratio_tends_to_one(self):
        ratios = [math.exp(magic.haar_l1_mean_log(n)) / haar_l1_asymptote(n)
                  for n in (6, 10, 14)]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert ratios[2] == pytest.approx(1.0, abs=0.01)


class TestStrippedL1:
    def test_pair_moment_closed_form(self):
        # Direct Dirichlet Monte Carlo check of E sqrt(p_i p_j).
        rng = np.random.default_rng(7)
        d = 16
        e = rng.standard_exponential((20000, d))
        p = e / e.sum(axis=1, keepdims=True)
        emp = np.sqrt(p[:, 0] * p[:, 1]).mean()
        assert dirichlet_sqrt_pair_moment(4) == pytest.approx(
            emp, rel=0.02)

    def test_estimator_matches_direct_stripping(self):
        # Estimator (class-count formula) vs. brute-force stripped l1 of
        # Haar states at n = 4.
        rng = np.random.default_rng(8)
        n, m = 4, 300
        direct = []
        for _ in range(m):
            stripped, _ = states.phase_strip(states.haar_random(n, rng))
            direct.append(np.abs(pauli_coefficients(stripped).values).sum())
        mean_d = np.mean(direct)
        se_d = np.std(direct, ddof=1) / np.sqrt(m)
        est, se_e = magic.haar_stripped_l1_estimate(
            n, 20000, np.random.default_rng(9))
        assert abs(est - mean_d) < 4 * math.hypot(se_d, se_e)
