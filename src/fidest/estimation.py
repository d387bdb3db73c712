"""Fidelity estimators: alpha-DFE (Pauli-sampling direct fidelity
estimation), fan-out-based FE on phase-stripped targets (Hadamard-test
circuit with classical phase post-processing), and nonlinear DFE over
qubit-wise-commuting measurement groups, plus aggregation helpers.

All three run on one batched shot engine:

1. draw every shot's label at once (for DFE and FOFE a position k in the
   sampler's support, whose quantities are formed once a call over
   ``support()`` and read at k; for NLDFE a row of the partition's group
   record array, ``frame``, ``chat`` and ``weight`` per group, built with
   no Python object per group);
2. draw every shot's outcome exactly from its label's outcome law, with a
   mixed state's trajectory component marginalised out, at a cost per
   shot that does not grow with the number of distinct labels drawn:
   - DFE: +-1 with probabilities (1 +- <T_a>)/2, from the weight w(a)
     and P(+1) = (1 + <T_a>)/2 of every support point, formed once a call
     (<T_a> from the support's own coefficients when rho is the target
     under depolarizing noise, else one Walsh-Hadamard transform per
     support a_x); a shot is one guided search into the support, two
     gathers and one compare (``_dfe_values``);
   - FOFE: b' from its marginal law, then b1 given b', kept per branch as
     the pair (b', (-1)^b1) (``_fofe_outcomes``); w(a) and each branch's
     cross-term factors are formed once a call over the support, so a shot
     reads them at k and takes the parity (-1)^(az.(b' ^ ax)) as a sign,
     and on a support with no Z part (every phase-state target) the cross
     term is read straight off rho[b', b' ^ ax];
   - NLDFE: the frame outcome from its group's Born law, formed once, when
     the group is first drawn, by one WHT of the group's <T_a> (read as
     for DFE), then one guided inverse-CDF search per shot
     (``_group_outcomes``);
3. post-process all shot values in one pass (FOFE's from cos/sin tables).

The exact per-label laws (``_fofe_laws``, ``born_laws``, <T_a>) give each
scheme's single-shot value law (``*_value_law``), the oracle the tests
check the estimators and the outcome draws against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, ConfigError, DimensionError
from .f2 import (_REAL_POWERS_OF_I, COEFF_TOL, CoeffVector,
                 _apply_pauli_amps, fwht, pauli_coefficients,
                 pauli_expectation_rows, pauli_phase, popcount_array,
                 row_chunks, xor_diagonals)
from .samplers import CdfTable, ExactSampler, UniformXSampler
from .states import PhaseFunction, StateVector, exact_fidelity, phase_strip

QWC_QUBIT_CAP = 9
#: coefficients with |c| above this join a QWC group
QWC_TOL = 1e-12

#: shots drawn and processed at a time, so that the per-shot arrays stay
#: in cache and every block costs the same
BLOCK_SHOTS = 1 << 16


@dataclass(frozen=True, eq=False)
class EstimateReport:
    scheme: str
    shots: int
    mean: float
    variance: float
    stderr: float
    mom_estimate: float
    mom_batches: int
    exact_fidelity: float | None
    analytic_bound: float | None
    values: np.ndarray = field(repr=False, default=None)


def _make_report(scheme, values, mom_batches, exact, bound) -> EstimateReport:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ConfigError("at least one shot required")
    mean = float(values.mean())
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    stderr = math.sqrt(var / values.size) if values.size > 1 else 0.0
    mom = median_of_means(values, values.size // max(mom_batches, 1), mom_batches)
    return EstimateReport(scheme=scheme, shots=values.size, mean=mean,
                          variance=var, stderr=stderr, mom_estimate=mom,
                          mom_batches=mom_batches, exact_fidelity=exact,
                          analytic_bound=bound, values=values)


# ---------------------------------------------------------------------------
# The shot engine


def _in_blocks(shots: int, block) -> np.ndarray:
    """block(count) over consecutive blocks of at most BLOCK_SHOTS shots,
    each written in place along the last axis of one (..., shots) array."""
    out = None
    for start in range(0, shots, BLOCK_SHOTS):
        values = block(min(BLOCK_SHOTS, shots - start))
        if out is None:
            out = np.empty(values.shape[:-1] + (shots,), dtype=values.dtype)
        out[..., start:start + values.shape[-1]] = values
    return out


def _parity_signs(words: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (popcount_array(words.astype(np.uint64)) & 1)


def _weights(sampler, ax: np.ndarray, az: np.ndarray, c=None) -> np.ndarray:
    """Importance weight norm_sum |c|^(1 - 2 alpha) sign(c) of each point
    (c by default ``sampler.coefficients(ax, az)``, as the value laws ask;
    the shot engine passes its support's own c)."""
    c = sampler.coefficients(ax, az) if c is None else c
    if np.any(np.abs(c) <= COEFF_TOL / 10):
        bad = np.argmin(np.abs(c))
        raise AssertionError(f"sampled zero-coefficient point n={sampler.n} "
                             f"ax={int(ax[bad]):#x} az={int(az[bad]):#x}")
    return sampler.norm_sum * np.abs(c) ** (1.0 - 2.0 * sampler.alpha) * np.sign(c)


def _born_law_rows(rho, frames, n: int) -> np.ndarray:
    return np.vstack([rho.born_laws(frames[sl])
                      for sl in row_chunks(len(frames), 16 << n)])


# ---------------------------------------------------------------------------
# alpha-DFE


def _pauli_expectations(rho, n: int):
    """<T_a>_rho as a function of word pairs (ax, az).  Each distinct ax
    gets its row of the 2^n x 2^n table from ``pauli_expectation_rows``
    when first asked for, and the row is kept for later calls.  The
    laziness serves NLDFE, whose groups are formed as they are first
    drawn (``_group_outcomes``); DFE asks once, for every support ax."""
    dim = 1 << n
    table = np.empty((dim, dim))
    done = np.zeros(dim, dtype=bool)

    def expectations(ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        new = np.flatnonzero(np.bincount(ax[~done[ax]], minlength=dim))
        table[new] = pauli_expectation_rows(rho, new)
        done[new] = True
        return table[ax, az]
    return expectations


def _frame_expectations(rho, ax: np.ndarray, az: np.ndarray, n: int) -> np.ndarray:
    """<T_a>_rho as the mean parity a'.b of the computational outcome b
    after rotating into the diagonalizing frame of T_a: the measurement a
    device makes, and the reference the tests hold the engine's <T_a>
    against.  Qubit by qubit the frame code bx (1 + bz) is 0, 1 or 2 for a
    Z, X or Y measurement, and a' = ax | az marks the measured qubits."""
    shift = np.arange(n - 1, -1, -1)
    bx, bz = (ax[:, None] >> shift) & 1, (az[:, None] >> shift) & 1
    laws = _born_law_rows(rho, bx * (1 + bz), n)
    signs = _parity_signs(np.arange(1 << n) & (ax | az)[:, None])
    return np.sum(laws * signs, axis=1)


@dataclass(frozen=True, eq=False)
class _TableExpectations:
    """<T_a>_rho = scale c(a) + mixed [a = 0] as a function of word pairs
    (ax, az), c read off the coefficient table ``coeffs``."""

    coeffs: CoeffVector
    scale: float
    mixed: float

    def __call__(self, ax: np.ndarray, az: np.ndarray) -> np.ndarray:
        return self.at(ax, az, self.coeffs.values[(ax << self.coeffs.n) | az])

    def at(self, ax: np.ndarray, az: np.ndarray, c: np.ndarray) -> np.ndarray:
        """<T_a> from c = c(a) that the caller already holds."""
        return self.scale * c + self.mixed * ((ax | az) == 0)


def _table_expectations(rho, target: StateVector, coeffs: CoeffVector):
    """<T_a>_rho as a function of word pairs (ax, az), read off the
    target's own coefficient table when the target is the one pure member
    of rho = w |target><target| + u I/2^n (w = 1, u = 0: the target
    itself): <T_a>_rho = w 2^n c(a) + u [a = 0].  None for any other rho."""
    weights, amps, mixed = rho.pure_ensemble()
    if weights.size != 1 or not np.array_equal(amps[0], target.amplitudes):
        return None
    return _TableExpectations(coeffs, weights[0] * (1 << target.n), mixed)


def _expectations(rho, target: StateVector, coeffs: CoeffVector):
    """<T_a>_rho for DFE and NLDFE: off the target's table when it serves
    (``_table_expectations``), else in rows formed on demand."""
    return (_table_expectations(rho, target, coeffs)
            or _pauli_expectations(rho, target.n))


def _dfe_values(sampler, shots: int, rng: np.random.Generator,
                expectations) -> np.ndarray:
    """Each shot draws a from the l_2a law and measures the two-outcome
    POVM {(I + T_a)/2, (I - T_a)/2}: +w(a) with probability
    (1 + <T_a>)/2, else -w(a); expectations(ax, az) gives <T_a>.  w and
    (1 + <T_a>)/2 are formed once a call over the sampler's support, w
    from the support's own coefficients, and <T_a> from them too when
    expectations reads the sampler's own table, else with one
    expectations call; so a shot is one guided search (the support
    position k), two gathers and one compare."""
    ax, az, c = sampler.support()
    w = _weights(sampler, ax, az, c)
    if (isinstance(expectations, _TableExpectations)
            and expectations.coeffs is sampler.coeffs):
        t = expectations.at(ax, az, c)
    else:
        t = expectations(ax, az)
    plus = (1.0 + t) / 2.0
    del ax, az

    def block(count: int) -> np.ndarray:
        k = sampler.draw_index(rng, count)
        u = rng.random(count)
        return w[k] * (1.0 - 2.0 * (u >= plus[k]))
    return _in_blocks(shots, block)


def dfe_value_law(rho, sampler):
    """Exact single-shot value law (values, probabilities) of alpha-DFE,
    over the sampler's support times the two POVM outcomes."""
    dist = sampler.distribution()
    labels = np.flatnonzero(dist)
    ax, az = np.divmod(labels, 1 << sampler.n)
    w = _weights(sampler, ax, az)
    t = _pauli_expectations(rho, sampler.n)(ax, az)
    plus = dist[labels] * (1.0 + t) / 2.0
    return np.concatenate([w, -w]), np.concatenate([plus, dist[labels] - plus])


def dfe_expected_value(rho, sampler) -> float:
    """Analytic shot expectation sum_a P(a) w(a) <T_a>_rho (test oracle)."""
    values, probs = dfe_value_law(rho, sampler)
    return float(values @ probs)


# ---------------------------------------------------------------------------
# FOFE


def phase_difference_table(phase: PhaseFunction, ax, x=None) -> np.ndarray:
    """phi^(a)(x) = phi(x ^ a_x) - phi(x) mod 2pi: over every x as a dense
    table, or at the given x (ax and x broadcast); for the value laws."""
    t = phase.table()
    if x is None:
        x = np.arange(t.shape[0])
    return np.mod(t[x ^ ax] - t[x], 2.0 * np.pi)


def fofe_branch_amplitudes(psi: StateVector, ax: int, az: int,
                           branch: str) -> np.ndarray:
    """(n+1)-qubit pre-measurement amplitudes of the Hadamard-test
    circuit: ancilla |+> (most significant qubit), T_a with a = (ax, az)
    applied on the ancilla-0 block, H on the ancilla; the imaginary branch
    further rotates the ancilla so a computational measurement realizes
    the Y eigenbasis (+1 eigenvector <-> bit 0).  The circuit-level
    reference for the closed-form laws of :func:`fofe_outcome_distribution`."""
    amps = psi.amplitudes
    b0 = _apply_pauli_amps(psi.n, ax, az, amps) / math.sqrt(2.0)
    b1 = amps / math.sqrt(2.0)
    h0 = (b0 + b1) / math.sqrt(2.0)
    h1 = (b0 - b1) / math.sqrt(2.0)
    if branch == "real":
        return np.concatenate([h0, h1])
    if branch == "imag":
        y0 = (h0 - 1j * h1) / math.sqrt(2.0)
        y1 = (h0 + 1j * h1) / math.sqrt(2.0)
        return np.concatenate([y0, y1])
    raise ConfigError(f"unknown branch {branch!r}")


def _fofe_cross(rho, ax, az, b, branch: str) -> np.ndarray:
    """2 Re z(b') (real branch) or 2 Im z(b') (imaginary branch), with
    z(b') = <b'|T_a rho|b'> = i^|ax & az| (-1)^(az.(b' ^ ax))
    conj(rho[b', b' ^ ax]); the arguments broadcast."""
    if branch not in ("real", "imag"):
        raise ConfigError(f"unknown branch {branch!r}")
    z = (pauli_phase(ax, az) * _parity_signs(az & (b ^ ax))
         * np.conj(rho.entries(b, b ^ ax)))
    return 2.0 * (z.real if branch == "real" else z.imag)


def _fofe_laws(rho, ax: np.ndarray, az: np.ndarray, n: int, branch: str,
               diag: np.ndarray) -> np.ndarray:
    """Exact law over outcomes (b1 << n) | b' of one Hadamard-test branch,
    one row per point (ax, az):
        P(b1, b') = (d(b') + d(b' ^ ax) +- cross(b')) / 4
    with d the computational Born law, cross from ``_fofe_cross``, and the
    sign + for b1 = 0."""
    ax, az = ax[:, None], az[:, None]
    b = np.arange(1 << n)
    cross = _fofe_cross(rho, ax, az, b, branch)
    both = diag[b] + diag[b ^ ax]
    return np.concatenate([both + cross, both - cross], axis=1) / 4.0


def _fofe_outcomes(rho, diag: np.ndarray, ax: np.ndarray, az: np.ndarray):
    """outcomes(k, branch, u): one outcome (b', (-1)^b1) of the branch per
    shot at the point (ax[k], az[k]) from three uniforms, exactly by the
    law of ``_fofe_laws``: b' = y ~ d or y ^ ax with equal odds, then b1 by
    P(b1 = 0 | b') = 1/2 + cross / (2 (d(b') + d(b' ^ ax))), with
    ``_fofe_cross`` in real arithmetic: cross / 2 = Re(i^m conj(e)) =
    Re i^m Re e + Re i^(m-1) Im e (one term exactly 0) for
    e = rho[b', b' ^ ax] and m = |ax & az| + 2 |az & (b' ^ ax)| on the real
    branch, m - 1 on the imaginary one.  The factors Re i^m at the parity
    0 are formed once over the points, and the parity
    (-1)^(az.(b' ^ ax)) is a sign per shot.  With no Z part (az = 0, as
    on every phase-state target) every factor is constant, so cross / 2
    is Re e on the real branch and -Im e on the imaginary one."""
    d = np.clip(diag, 0.0, None)
    computational = CdfTable(np.cumsum(d))
    total = computational.total[0]
    z_free = not az.any()
    if not z_free:
        m0 = popcount_array(ax & az)
        factors = {branch: (_REAL_POWERS_OF_I[(m0 + c) & 3],
                            _REAL_POWERS_OF_I[(m0 + c + 3) & 3])
                   for branch, c in (("real", 0), ("imag", 3))}

    def outcomes(k: np.ndarray, branch: str, u: np.ndarray):
        a = ax[k]
        y = computational.search(u[0] * total)
        b = y ^ (a & -(u[1] >= 0.5).astype(a.dtype))  # y ^ ax half the time
        flip = b ^ a
        e = rho.entries(b, flip)
        if not z_free:
            re, im = factors[branch]
            half = re[k] * e.real
            if np.iscomplexobj(e):
                half += im[k] * e.imag
            half *= _parity_signs(az[k] & flip)
        elif branch == "real":
            half = e.real
        else:
            half = -e.imag if np.iscomplexobj(e) else 0.0
        p0 = 0.5 + half / (d[b] + d[flip])  # d(b') + d(b' ^ ax) >= d(y) > 0
        return b, 1.0 - 2.0 * (u[2] >= p0)
    return outcomes


def _computational_law(rho) -> np.ndarray:
    return xor_diagonals(rho, np.zeros(1, dtype=np.int64))[0].real


def fofe_outcome_distribution(state, ax: int, az: int, branch: str) -> np.ndarray:
    """Exact outcome law over (b1, b') of one FOFE branch for a = (ax, az)."""
    laws = _fofe_laws(state, np.array([ax]), np.array([az]), state.n, branch,
                      _computational_law(state))
    return np.clip(laws[0], 0.0, None)


def _fofe_values(rho, sampler, phases, shots: int, rng: np.random.Generator):
    """Shot values of every phase function from one shared outcome stream:
    an array (len(phases), shots), and the circuit executions used.  A value
    is w (-1)^b1 cos phi^(a)(b') [+ the same with sin on the imaginary
    branch's own outcome], read from cos phi and sin phi formed once a call.
    Each shot draws a support position k; w and the outcome factors are
    formed once a call over the sampler's support and read at k."""
    ax, az, c = sampler.support()
    w = _weights(sampler, ax, az, c)
    outcomes = _fofe_outcomes(rho, _computational_law(rho), ax, az)
    tables = [(np.cos(phi.table()), np.sin(phi.table())) for phi in phases]
    real = [phi.is_real() for phi in phases]
    branches = ("real",) if all(real) else ("real", "imag")

    def block(count: int) -> np.ndarray:
        k = sampler.draw_index(rng, count)
        drawn = [outcomes(k, branch, rng.random((3, count)))
                 for branch in branches]
        a, wk = ax[k], w[k]
        signed = [(b, b ^ a, wk * sign) for b, sign in drawn]
        values = np.empty((len(tables), count))
        for row, (cos, sin), real_phase in zip(values, tables, real):
            b, flip, ws = signed[0]
            row[:] = ws * (cos[flip] * cos[b] + sin[flip] * sin[b])
            if not real_phase:
                b, flip, ws = signed[1]
                row += ws * (sin[flip] * cos[b] - cos[flip] * sin[b])
        return values
    return _in_blocks(shots, block), shots * len(branches)


def fofe_value_law(rho, sampler, phase: PhaseFunction):
    """Exact single-shot value law (values, probabilities) of FOFE, over
    the sampler's support times the outcomes of each branch run."""
    n = sampler.n
    dist = sampler.distribution()
    labels = np.flatnonzero(dist)
    ax, az = np.divmod(labels, 1 << n)
    w = _weights(sampler, ax, az)[:, None]
    diag = _computational_law(rho)
    o = np.arange(2 << n)
    sign = 1 - 2 * (o >> n)
    diff = phase_difference_table(phase, ax[:, None], o & ((1 << n) - 1))
    values = w * sign * np.cos(diff)
    probs = dist[labels][:, None] * _fofe_laws(rho, ax, az, n, "real", diag)
    if not phase.is_real():
        imag_values = w * sign * np.sin(diff)
        imag_probs = _fofe_laws(rho, ax, az, n, "imag", diag)
        values = values[:, :, None] + imag_values[:, None, :]
        probs = probs[:, :, None] * imag_probs[:, None, :]
    return values.ravel(), probs.ravel()


def fofe_expected_value(rho, sampler, phase: PhaseFunction) -> float:
    """Analytic FOFE shot expectation over exact outcome distributions
    (test oracle; enumerates the sampler's support)."""
    values, probs = fofe_value_law(rho, sampler, phase)
    return float(values @ probs)


@dataclass(frozen=True, eq=False)
class MultiTargetResult:
    reports: tuple
    shots: int
    executions: int  # circuit runs consumed (shared across all targets)


def fofe_multi_target(rho, sampler, phases, shots: int,
                      rng: np.random.Generator,
                      stripped: StateVector = None) -> MultiTargetResult:
    """Estimate M fidelities of targets D(phi_m)|stripped> from one shared
    outcome stream: each circuit execution is post-processed once per
    phase function, so executions scale with shots, not M * shots.  The
    sampler draws support positions (``ExactSampler``, ``UniformXSampler``)."""
    phases = list(phases)
    n = sampler.n
    for phi in phases:
        if phi.n != n:
            raise DimensionError("phase function size mismatch")
    values, executions = _fofe_values(rho, sampler, phases, shots, rng)
    reports = []
    for m, phi in enumerate(phases):
        exact = None
        if stripped is not None:
            target = StateVector(n, np.exp(1j * phi.table()) * stripped.amplitudes)
            exact = exact_fidelity(rho, target)
        reports.append(_make_report("fofe", values[m], 1, exact, None))
    return MultiTargetResult(reports=tuple(reports), shots=shots,
                             executions=executions)


# ---------------------------------------------------------------------------
# NLDFE


@dataclass(frozen=True, eq=False)
class QWCPartition:
    """The QWC groups as one record array, a record per group: ``frame``
    (its frame as ``states.frame_codes``), ``chat`` (the WHT of c^(S),
    c^(S) being the group's claimed coefficients at their frame positions)
    and ``weight`` (||chat||_inf)."""

    n: int
    groups: np.recarray = field(repr=False)
    total_weight: float
    ordering: str


def _frame_masks(codes: np.ndarray, n: int):
    """X and Z masks of each frame's all-qubit Pauli (qubit 1 = MSB)."""
    place = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    return (codes != 0) @ place, (codes != 1) @ place


def _first_frame_table(position: np.ndarray, n: int) -> np.ndarray:
    """For every Pauli pattern (per qubit Z, X, Y or I, as the base-4
    digits 0, 1, 2, 3, qubit 1 first), the least position among the frames
    whose group contains it; position[f] is frame f's place in the order."""
    table = position.reshape((3,) * n)
    for axis in range(n):
        table = np.concatenate([table, table.min(axis=axis, keepdims=True)],
                               axis=axis)
    return table.reshape(-1)


@lru_cache(maxsize=None)
def _canonical_frames(n: int):
    """The tables of a QWC build that depend on n alone, formed once per n,
    shared and read-only: the codes of every frame in canonical order
    (frame k's codes are the base-3 digits of k, qubit 1 first), the
    pattern of every Pauli (``_first_frame_table``'s base-4 digits) by its
    flat index (ax << n) | az, and the canonical first-frame table."""
    codes = (np.arange(3**n, dtype=np.int64)[:, None]
             // 3 ** np.arange(n - 1, -1, -1, dtype=np.int64) % 3)
    flat = np.arange(4**n, dtype=np.int64)
    pattern = np.zeros_like(flat)
    for shift in range(n - 1, -1, -1):
        xz = (((flat >> (n + shift)) & 1) << 1) | ((flat >> shift) & 1)
        pattern = 4 * pattern + np.array([3, 0, 1, 2])[xz]
    first = _first_frame_table(np.arange(3**n), n)
    for table in (codes, pattern, first):
        table.flags.writeable = False
    return codes, pattern, first


def build_qwc_partition(coeffs: CoeffVector,
                        ordering: str = "canonical") -> QWCPartition:
    """Partition the nonzero Pauli coefficients into qubit-wise-commuting
    groups, one per single-qubit frame choice in {Z, X, Y}^n: frames are
    taken in order (canonical: lexicographic, qubit 1 first;
    greedy-weight: by decreasing |c| of the frame's all-qubit Pauli), and
    each coefficient belongs to the first frame whose group contains it.
    A Pauli a sits in frame position s = ax | az of its group.  Frames
    that claim nothing get no record."""
    n = coeffs.n
    if n > QWC_QUBIT_CAP:
        raise CapExceededError(
            f"QWC partition needs 3^n 2^n work; capped at n <= {QWC_QUBIT_CAP}")
    codes, pattern, first_table = _canonical_frames(n)
    values = coeffs.values
    if ordering == "greedy-weight":
        mx, mz = _frame_masks(codes, n)
        order = np.argsort(-np.abs(values[(mx << n) | mz]), kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        first_table = _first_frame_table(position, n)
        codes = codes[order]
    elif ordering != "canonical":
        raise ConfigError(f"unknown ordering {ordering!r}")
    paulis = np.flatnonzero(np.abs(values) > QWC_TOL)
    taken, gid = np.unique(first_table[pattern[paulis]], return_inverse=True)
    groups = np.zeros(taken.size, dtype=[("frame", np.int64, (n,)),
                                         ("chat", float, (1 << n,)),
                                         ("weight", float)]).view(np.recarray)
    groups.frame = codes[taken]
    chat = groups.chat  # c^(S) until transformed, block by block
    s = (paulis >> n) | (paulis & ((1 << n) - 1))  # s = ax | az
    chat[gid.reshape(-1), s] = values[paulis]
    for rows in row_chunks(taken.size, 8 << n):
        block = fwht(chat[rows])
        chat[rows] = block
        groups.weight[rows] = np.abs(block).max(axis=1)
    # one group after another: a pairwise sum moves W's last digits
    total = float(sum(groups.weight.tolist()))
    return QWCPartition(n=n, groups=groups, total_weight=total,
                        ordering=ordering)


def _group_laws(expectations, mx: np.ndarray, mz: np.ndarray,
                n: int) -> np.ndarray:
    """Outcome law of measuring rho in each frame with X and Z masks
    (mx, mz), one row per frame; no rotation is needed:
        P(b) = 2^-n sum_s (-1)^(s.b) <T_(s & mx, s & mz)>_rho,
    one WHT of 2^n expectations, expectations(ax, az) giving <T_a>."""
    s = np.arange(1 << n)
    return fwht(expectations(s & mx[:, None], s & mz[:, None])) / (1 << n)


def _group_outcomes(codes: np.ndarray, expectations):
    """outcomes(which, u): one computational outcome per shot j after
    rotating rho into the frame codes[which[j]] (rows as
    ``states.frame_codes``), by inverse CDF at u[j].  A frame's law
    (``_group_laws``) is formed the first time it is drawn, the new frames
    in blocks of about CHUNK_BYTES of law, and kept as a row of a guided
    CDF table for later calls: a shot costs one guided search, and frames
    never drawn cost nothing.
    The law is rho's own, so a mixed state's member is marginalised out."""
    n = codes.shape[1]
    mx, mz = _frame_masks(codes, n)
    laws = CdfTable.empty(codes.shape[0], 1 << n)
    formed = np.zeros(codes.shape[0], dtype=bool)

    def outcomes(which: np.ndarray, u: np.ndarray) -> np.ndarray:
        new = np.flatnonzero(np.bincount(which[~formed[which]],
                                         minlength=formed.size))
        for block in row_chunks(new.size, 8 << n):
            rows = new[block]
            law = _group_laws(expectations, mx[rows], mz[rows], n)
            cum = np.cumsum(np.clip(law, 0.0, None), axis=1)
            laws.fill(rows, cum / cum[:, -1:])
        formed[new] = True
        return laws.search(u, which)
    return outcomes


def _nldfe_values(part: QWCPartition, shots: int, rng: np.random.Generator,
                  expectations) -> np.ndarray:
    """Each shot draws a group proportionally to its weight, measures rho
    in the group frame (``_group_outcomes``; expectations(ax, az) gives
    <T_a>), and returns W * chat_b / ||chat||_inf."""
    groups = part.groups
    if groups.size == 0:
        raise ConfigError("empty partition")
    weights, chat = groups.weight, groups.chat
    by_weight = CdfTable(np.cumsum(weights / weights.sum()))
    outcomes = _group_outcomes(groups.frame, expectations)
    scale = part.total_weight / weights

    def block(count: int) -> np.ndarray:
        u = rng.random((2, count))
        g = by_weight.search(u[0])
        return scale[g] * chat[g, outcomes(g, u[1])]
    return _in_blocks(shots, block)


def nldfe_value_law(rho, part: QWCPartition):
    """Exact single-shot value law (values, probabilities) of NLDFE, over
    the groups times their frame outcomes."""
    weights = part.groups.weight[:, None]
    laws = _born_law_rows(rho, part.groups.frame, part.n)
    values = part.total_weight * (part.groups.chat / weights)
    return values.ravel(), (weights / weights.sum() * laws).ravel()


def nldfe_expected_value(rho, part: QWCPartition) -> float:
    """Analytic NLDFE shot expectation sum_S sum_b P_S(b) chat^(S)_b."""
    values, probs = nldfe_value_law(rho, part)
    return float(values @ probs)


# ---------------------------------------------------------------------------
# Aggregation and orchestration


def median_of_means(values, batch_size: int, batches: int) -> float:
    """Median of `batches` batch means; batches = 1 is the plain mean."""
    values = np.asarray(values, dtype=float)
    if batches < 1 or batch_size < 1 or batch_size * batches > values.size:
        raise ConfigError(
            f"need batch_size*batches <= {values.size}, got {batch_size}x{batches}")
    if batches == 1:
        return float(values.mean())
    used = values[:batch_size * batches].reshape(batches, batch_size)
    return float(np.median(used.mean(axis=1)))


def _is_flat_modulus(psi: StateVector) -> bool:
    target = 2.0 ** (-psi.n / 2.0)
    return bool(np.max(np.abs(np.abs(psi.amplitudes) - target)) < 1e-12)


def run_estimator(scheme: str, target: StateVector, rho, *, alpha: float = 0.5,
                  shots: int, seed: int = 0, mom_batches: int = 1,
                  ordering: str = "canonical") -> EstimateReport:
    """Run `shots` single-shot estimates of <target|rho|target> with the
    requested scheme.  Every draw comes from one stream seeded by
    ``SeedSequence(seed)``, so the result is fixed by the seed alone."""
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    if alpha not in (0.5, 1.0):
        raise ConfigError(f"alpha must be 1/2 or 1, got {alpha}")
    exact = exact_fidelity(rho, target)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if scheme == "dfe":
        coeffs = pauli_coefficients(target)
        sampler = ExactSampler(coeffs, alpha)
        bound = float(sampler.norm_sum ** 2) if alpha == 0.5 else None
        values = _dfe_values(sampler, shots, rng,
                             _expectations(rho, target, coeffs))
    elif scheme == "fofe":
        stripped, phi = phase_strip(target)
        if _is_flat_modulus(stripped):
            sampler = UniformXSampler(target.n, alpha)
        else:
            sampler = ExactSampler(pauli_coefficients(stripped), alpha)
        branches = 1 if phi.is_real() else 2
        bound = branches * float(sampler.norm_sum ** 2) if alpha == 0.5 else None
        values = _fofe_values(rho, sampler, [phi], shots, rng)[0][0]
    elif scheme == "nldfe":
        coeffs = pauli_coefficients(target)
        part = build_qwc_partition(coeffs, ordering=ordering)
        bound = part.total_weight ** 2
        values = _nldfe_values(part, shots, rng,
                               _expectations(rho, target, coeffs))
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return _make_report(scheme, values, mom_batches, exact, bound)
