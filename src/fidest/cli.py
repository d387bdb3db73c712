"""Command-line front end: experiment runners reproducing the figure
configurations and scaling scans, with deterministic seeding and
CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 size cap exceeded,
4 numerical-health failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, estimation, magic, samplers, states, tomography
from .errors import CapExceededError, ConfigError, NumericalHealthError
from .f2 import pauli_coefficients, popcount_array


@dataclass
class ResultTable:
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ConfigError("row/column count mismatch")
        self.rows.append(list(values))

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key}: {self.metadata[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({"metadata": self.metadata, "columns": self.columns,
                           "rows": self.rows}, indent=2, sort_keys=True) + "\n"


def _emit(table: ResultTable, args) -> None:
    table.metadata.setdefault("version", __version__)
    table.metadata.setdefault("seed", args.seed)
    table.metadata.setdefault("workers", args.workers)
    table.metadata.setdefault("command", args.command)
    if not args.deterministic:
        table.metadata.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S"))
    text = table.to_json() if args.format == "json" else table.to_csv()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _config_echo(args, keys) -> str:
    return " ".join(f"{k}={getattr(args, k)}" for k in keys)


# ---------------------------------------------------------------------------
# Experiment runners


def cmd_fig2a(args) -> ResultTable:
    n = args.n
    target, phi = states.hypergraph_state(
        n, states.complete_3_hypergraph_edges(n))
    p = states.depolarizing_p_for_fidelity(n, args.fidelity)
    rho = states.depolarize(target, p)
    table = ResultTable(
        columns=["scheme", "shots", "mean", "variance", "stderr",
                 "exact_fidelity", "analytic_bound", "shot_min", "shot_max"],
        metadata={"config": _config_echo(args, ("n", "fidelity", "shots")),
                  "depolarizing_p": repr(p)})
    for scheme in ("dfe", "fofe"):
        rep = estimation.run_estimator(
            scheme, target, rho, alpha=0.5, shots=args.shots, seed=args.seed)
        table.add(scheme, rep.shots, repr(rep.mean), repr(rep.variance),
                  repr(rep.stderr), repr(rep.exact_fidelity),
                  repr(rep.analytic_bound), repr(float(rep.values.min())),
                  repr(float(rep.values.max())))
    return table


def _mean_stderr(values) -> tuple:
    """Sample mean and its standard error (0.0 for a single sample)."""
    stderr = (float(np.std(values, ddof=1) / math.sqrt(len(values)))
              if len(values) > 1 else 0.0)
    return float(np.mean(values)), stderr


def cmd_haar_scan(args) -> ResultTable:
    if args.nmax > 16:
        raise CapExceededError("haar-scan capped at n <= 16")
    table = ResultTable(
        columns=["n", "l1_mean", "l1_stderr", "l1_closed_form",
                 "stripped_mean", "stripped_stderr", "ratio", "method"],
        metadata={"config": _config_echo(
            args, ("nmin", "nmax", "samples", "dirichlet_samples"))})
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    for n in range(args.nmin, args.nmax + 1):
        closed = magic.haar_l1_mean_closed_form(n)
        if n <= 8:
            l1s, sl1s = [], []
            for _ in range(args.samples):
                psi = states.haar_random(n, rng)
                l1s.append(magic.norms(psi, alphas=(0.5,)).l1)
                if n <= 6:
                    st, _ = states.phase_strip(psi)
                    sl1s.append(magic.norms(st, alphas=(0.5,)).l1)
            l1_mean, l1_err = _mean_stderr(l1s)
            if sl1s:
                s_mean, s_err = _mean_stderr(sl1s)
                method = "exact"
            else:
                s_mean, s_err = magic.haar_stripped_l1_estimate(
                    n, args.dirichlet_samples, rng)
                method = "dirichlet"
        else:
            l1_mean, l1_err = closed, 0.0
            s_mean, s_err = magic.haar_stripped_l1_estimate(
                n, args.dirichlet_samples, rng)
            method = "closed+dirichlet"
        table.add(n, repr(l1_mean), repr(l1_err), repr(closed), repr(s_mean),
                  repr(s_err), repr(s_mean / closed), method)
    return table


def cmd_nldfe_compare(args) -> ResultTable:
    table = ResultTable(
        columns=["n", "mean_l1", "mean_w", "improvement", "nldfe_variance",
                 "dfe_variance"],
        metadata={"config": _config_echo(
            args, ("nmin", "nmax", "samples", "shots"))})
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    for n in range(args.nmin, args.nmax + 1):
        l1s, ws = [], []
        for _ in range(args.samples):
            psi = states.haar_random(n, rng)
            coeffs = pauli_coefficients(psi)
            part = estimation.build_qwc_partition(coeffs, ordering=args.ordering)
            l1 = float(np.abs(coeffs.values).sum())
            if part.total_weight > l1 + 1e-9:
                raise NumericalHealthError("W exceeded the l1 norm")
            l1s.append(l1)
            ws.append(part.total_weight)
        target = states.haar_random(n, rng)
        noisy = states.depolarize(target, 0.1)
        rep_n = estimation.run_estimator("nldfe", target, noisy,
                                         shots=args.shots, seed=args.seed,
                                         ordering=args.ordering)
        rep_d = estimation.run_estimator("dfe", target, noisy, alpha=0.5,
                                         shots=args.shots, seed=args.seed)
        table.add(n, repr(float(np.mean(l1s))), repr(float(np.mean(ws))),
                  repr(float(np.mean(l1s) / np.mean(ws))),
                  repr(rep_n.variance), repr(rep_d.variance))
    return table


def cmd_hypergraph_bounds(args) -> ResultTable:
    table = ResultTable(
        columns=["n", "sampled_lower", "sampled_upper", "closed_lower",
                 "closed_upper", "empirical_second_moment"],
        metadata={"config": _config_echo(
            args, ("nmin", "nmax", "samples", "shots"))})
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    for n in range(args.nmin, args.nmax + 1):
        sampled = magic.random3_sampled_bounds(n, args.samples, rng)
        closed = magic.random3_variance_bounds(n)
        second = ""
        if n <= 7 and args.shots > 0:
            target, _ = states.hypergraph_state(
                n, states.complete_3_hypergraph_edges(n))
            rep = estimation.run_estimator("dfe", target, target, alpha=0.5,
                                           shots=args.shots, seed=args.seed)
            second = repr(float(np.mean(rep.values**2)))
        table.add(n, repr(sampled.lower), repr(sampled.upper),
                  repr(closed.lower), repr(closed.upper), second)
    return table


def _build_target(args, rng):
    n = args.n
    family = args.family
    if family == "hypergraph-complete3":
        return states.hypergraph_state(n, states.complete_3_hypergraph_edges(n))[0]
    if family == "hypergraph-random":
        edges = [t for t in states.complete_3_hypergraph_edges(n)
                 if rng.random() < 0.5]
        return states.hypergraph_state(n, edges)[0]
    if family == "phase-random":
        phi = states.PhaseFunction.from_table(
            n, rng.uniform(0.0, 2.0 * np.pi, 1 << n))
        return states.phase_state(phi)
    if family == "haar":
        return states.haar_random(n, rng)
    if family == "dicke":
        return states.dicke_state(n, args.k)
    if family == "mps":
        return states.mps_to_statevector(
            states.random_real_mps(n, args.chi, rng))
    raise ConfigError(f"unknown state family {family!r}")


def cmd_run(args) -> ResultTable:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    target = _build_target(args, rng)
    if args.input_fidelity is not None:
        p = states.depolarizing_p_for_fidelity(args.n, args.input_fidelity)
    else:
        p = args.p
    rho = states.depolarize(target, p) if p > 0 else target
    rep = estimation.run_estimator(
        args.scheme, target, rho, alpha=args.alpha, shots=args.shots,
        seed=args.seed, mom_batches=args.mom_batches)
    table = ResultTable(
        columns=["scheme", "n", "shots", "mean", "mom_estimate", "variance",
                 "stderr", "exact_fidelity", "analytic_bound"],
        metadata={"config": _config_echo(
            args, ("scheme", "family", "n", "shots", "alpha", "mom_batches"))})
    table.add(rep.scheme, args.n, rep.shots, repr(rep.mean),
              repr(rep.mom_estimate), repr(rep.variance), repr(rep.stderr),
              repr(rep.exact_fidelity), repr(rep.analytic_bound))
    return table


def cmd_tomography(args) -> ResultTable:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    comps = [states.haar_random(args.n, rng) for _ in range(3)]
    w = rng.random(3)
    w /= w.sum()
    rho = states.density_matrix(states.Mixture(args.n, tuple(w), tuple(comps)))
    table = ResultTable(
        columns=["n", "shots_per_basis", "l2_error"],
        metadata={"config": _config_echo(args, ("n", "shots_ladder"))})
    for shots in _shots_ladder(args.shots_ladder):
        _, err = tomography.tomography_pipeline(rho, args.n, shots,
                                                seed=args.seed)
        table.add(args.n, shots, repr(err))
    return table


def cmd_mps_sample(args) -> ResultTable:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    mps = states.random_real_mps(args.n, args.chi, rng)
    sampler = samplers.MPSL2Sampler(mps)
    table = ResultTable(
        columns=["n", "chi", "samples", "mean_weight", "tv_distance"],
        metadata={"config": _config_echo(args, ("n", "chi", "samples"))})
    ax, az = sampler.draw(rng, args.samples)
    weights = popcount_array((ax | az).astype(np.uint64))
    tv = ""
    if args.verify:
        if args.n > 6:
            raise CapExceededError("--verify enumeration capped at n <= 6")
        sv = states.mps_to_statevector(mps)
        exact = samplers.ExactSampler(pauli_coefficients(sv), 1.0)
        tv = repr(float(0.5 * np.abs(sampler.distribution()
                                     - exact.distribution()).sum()))
    table.add(args.n, args.chi, args.samples,
              repr(float(np.mean(weights))), tv)
    return table


def cmd_dicke(args) -> ResultTable:
    sampler = samplers.DickeSampler(args.n, args.k)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    ax, _ = sampler.draw(rng, args.samples)
    table = ResultTable(
        columns=["n", "k", "samples", "l1_norm", "mean_ax_weight",
                 "tv_distance"],
        metadata={"config": _config_echo(args, ("n", "k", "samples"))})
    tv = ""
    if args.verify:
        if args.n > 6:
            raise CapExceededError("--verify enumeration capped at n <= 6")
        exact = samplers.ExactSampler(
            pauli_coefficients(states.dicke_state(args.n, args.k)), 0.5)
        tv = repr(float(0.5 * np.abs(sampler.distribution()
                                     - exact.distribution()).sum()))
    mean_w = float(np.mean(popcount_array(ax.astype(np.uint64))))
    table.add(args.n, args.k, args.samples, repr(sampler.norm_sum),
              repr(mean_w), tv)
    return table


def cmd_norms(args) -> ResultTable:
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    psi = _build_target(args, rng)
    rep = magic.norms(psi)
    table = ResultTable(
        columns=["family", "n", "l0", "l1", "l2", "sre_half", "sre_two",
                 "dfe_bound_half"],
        metadata={"config": _config_echo(args, ("family", "n"))})
    table.add(args.family, args.n, repr(rep.l0), repr(rep.l1), repr(rep.l2),
              repr(rep.sre[0.5]), repr(rep.sre[2.0]), repr(rep.l1**2))
    return table


# ---------------------------------------------------------------------------
# Argument handling

_COMMANDS = {
    "fig2a": cmd_fig2a,
    "haar-scan": cmd_haar_scan,
    "nldfe-compare": cmd_nldfe_compare,
    "hypergraph-bounds": cmd_hypergraph_bounds,
    "run": cmd_run,
    "tomography": cmd_tomography,
    "mps-sample": cmd_mps_sample,
    "dicke": cmd_dicke,
    "norms": cmd_norms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidest",
        description="Fidelity estimation experiments: Pauli-sampling DFE, "
                    "fan-out FE with phase stripping, nonlinear DFE, "
                    "magic-norm scans, and MUB tomography.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; results do not "
                            "depend on it")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--deterministic", action="store_true", default=None)
        p.add_argument("--config", type=str, default=None)

    p = sub.add_parser("fig2a", help="DFE vs FOFE on the complete "
                                     "3-hypergraph target under depolarizing noise")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fidelity", type=float, default=None)
    p.add_argument("--shots", type=int, default=None)
    common(p)

    p = sub.add_parser("haar-scan", help="Haar-average l1 and stripped-l1 scan")
    p.add_argument("--nmin", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--dirichlet-samples", type=int, default=None)
    common(p)

    p = sub.add_parser("nldfe-compare", help="QWC-partition weight vs l1 norm")
    p.add_argument("--nmin", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--ordering", choices=("canonical", "greedy-weight"),
                   default=None)
    common(p)

    p = sub.add_parser("hypergraph-bounds",
                       help="rank-distribution variance bounds")
    p.add_argument("--nmin", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    common(p)

    p = sub.add_parser("run", help="generic estimator run")
    p.add_argument("--scheme", choices=("dfe", "fofe", "nldfe"), default=None)
    p.add_argument("--family", default=None,
                   choices=("phase-random", "hypergraph-random",
                            "hypergraph-complete3", "dicke", "haar", "mps"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--chi", type=int, default=None)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--input-fidelity", type=float, default=None)
    p.add_argument("--mom-batches", type=int, default=None)
    common(p)

    p = sub.add_parser("tomography", help="MUB tomography shot ladder")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--shots-ladder", type=str, default=None)
    common(p)

    p = sub.add_parser("mps-sample", help="MPS l2 sampling")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--chi", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--verify", action="store_true", default=None)
    common(p)

    p = sub.add_parser("dicke", help="Dicke-state l1 sampling")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--verify", action="store_true", default=None)
    common(p)

    p = sub.add_parser("norms", help="magic norms of one state")
    p.add_argument("--family", default=None,
                   choices=("phase-random", "hypergraph-random",
                            "hypergraph-complete3", "dicke", "haar", "mps"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--chi", type=int, default=None)
    common(p)

    return parser


_DEFAULTS = {
    "seed": 0, "workers": 1, "out": None, "format": "csv",
    "deterministic": False, "config": None,
    "fig2a": {"n": 7, "fidelity": 0.8955, "shots": 5000},
    "haar-scan": {"nmin": 2, "nmax": 8, "samples": 100,
                  "dirichlet_samples": 10000},
    "nldfe-compare": {"nmin": 3, "nmax": 6, "samples": 100, "shots": 2000,
                      "ordering": "canonical"},
    "hypergraph-bounds": {"nmin": 4, "nmax": 7, "samples": 2000,
                          "shots": 20000},
    "run": {"scheme": "fofe", "family": "hypergraph-complete3", "n": 4,
            "k": 1, "chi": 2, "shots": 1000, "alpha": 0.5, "p": 0.0,
            "input_fidelity": None, "mom_batches": 1},
    "tomography": {"n": 2, "shots_ladder": "1000,4000,16000"},
    "mps-sample": {"n": 6, "chi": 4, "samples": 200, "verify": False},
    "dicke": {"n": 8, "k": 3, "samples": 1000, "verify": False},
    "norms": {"family": "haar", "n": 4, "k": 1, "chi": 2},
}


def _command_options(parser: argparse.ArgumentParser, command: str) -> dict:
    """The argparse action of each option of one subcommand, by dest."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _config_value(action: argparse.Action, name: str, val):
    """A config file value read as the flag's own text would be: through
    the option's type and choices (a switch takes true or false)."""
    if action.nargs == 0:
        ok = isinstance(val, bool)
    else:
        try:
            val = (action.type or str)(str(val))
            ok = action.choices is None or val in action.choices
        except ValueError:
            ok = False
    if not ok:
        raise ConfigError(f"config value {val!r} is not valid for --{name}")
    return val


def _apply_config(args: argparse.Namespace, options: dict) -> argparse.Namespace:
    """Fill unset options: CLI flags > config file > built-in defaults.
    A null in the file leaves the option to the default."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    defaults = dict(_DEFAULTS)
    defaults.update(defaults.pop(args.command, {}))
    for key, val in vars(args).items():
        if val is not None or key in ("command", "config"):
            continue
        name = key.replace("_", "-")
        val = file_cfg.get(name, file_cfg.get(key))
        if val is not None:
            setattr(args, key, _config_value(options[key], name, val))
        elif key in defaults:
            setattr(args, key, defaults[key])
    if args.deterministic is None:
        args.deterministic = False
    return args


#: the largest count a numpy draw takes (counts are int64)
_COUNT_MAX = 2**63 - 1


def _shots_ladder(text) -> list:
    """The comma-separated shot counts of `--shots-ladder` (0: exact rows)."""
    try:
        ladder = [int(s) for s in str(text).split(",")]
    except ValueError:
        raise ConfigError("--shots-ladder must be comma-separated integers, "
                          f"got {text!r}") from None
    if min(ladder) < 0 or max(ladder) > _COUNT_MAX:
        raise ConfigError(f"--shots-ladder entries must lie in 0..{_COUNT_MAX}, "
                          f"got {text!r}")
    return ladder


def _validate(args) -> None:
    for key in ("shots", "samples", "dirichlet_samples", "workers", "nmin"):
        val = getattr(args, key, None)
        if val is not None and val < 1:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= 1, got {val}")
    for key in ("shots", "samples", "dirichlet_samples", "workers"):
        val = getattr(args, key, None)
        if val is not None and val > _COUNT_MAX:
            raise ConfigError(f"--{key.replace('_', '-')} must be <= {_COUNT_MAX}, "
                              f"got {val}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    nmin = getattr(args, "nmin", None)
    if nmin is not None and args.nmax < nmin:
        raise ConfigError(f"--nmax must be >= --nmin = {nmin}, got {args.nmax}")
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise ConfigError(f"--n must be >= 1, got {n}")
    # Fidelities reachable by depolarizing an n-qubit pure target: [2^-n, 1].
    for key in ("fidelity", "input_fidelity"):
        val = getattr(args, key, None)
        if val is not None and not 2.0**-n <= val <= 1.0:
            raise ConfigError(f"--{key.replace('_', '-')} must lie in "
                              f"[2^-n, 1] = [{2.0**-n!r}, 1], got {val}")
    if args.command == "run" and not 0.0 <= args.p <= 1.0:
        raise ConfigError(f"--p must lie in [0, 1], got {args.p}")
    if args.command == "run" and not 1 <= args.mom_batches <= args.shots:
        raise ConfigError(f"--mom-batches must lie in 1..--shots = {args.shots}, "
                          f"got {args.mom_batches}")
    family = getattr(args, "family", None)
    if family == "dicke" and not 0 <= args.k <= n:
        raise ConfigError(f"--k must lie in 0..{n}, got {args.k}")
    if args.command == "dicke" and not 0 <= args.k <= n // 2:
        raise ConfigError(f"the Dicke sampler needs 0 <= --k <= n/2 = {n // 2}, "
                          f"got {args.k}")
    if args.command == "dicke" and n > samplers.DICKE_QUBIT_CAP:
        raise CapExceededError(
            f"dicke capped at n <= {samplers.DICKE_QUBIT_CAP} (int64 words)")
    if family == "mps" or args.command == "mps-sample":
        if args.chi < 1:
            raise ConfigError(f"--chi must be >= 1, got {args.chi}")
        if args.chi > states.MPS_BOND_CAP:
            raise CapExceededError(
                f"MPS bond dimension capped at chi <= {states.MPS_BOND_CAP}")
    if args.command == "tomography":
        _shots_ladder(args.shots_ladder)
        if args.n > tomography.MUB_QUBIT_CAP:
            raise CapExceededError(
                f"tomography capped at n <= {tomography.MUB_QUBIT_CAP}")
    if args.command == "mps-sample" and args.n > states.MPS_QUBIT_CAP:
        raise CapExceededError(f"mps-sample capped at n <= {states.MPS_QUBIT_CAP}")
    if args.command in ("run", "norms") and args.n > 10:
        raise CapExceededError("dense coefficient work capped at n <= 10")
    if args.command == "fig2a" and args.n > 10:
        raise CapExceededError("fig2a capped at n <= 10")
    if (args.command == "nldfe-compare"
            and args.nmax > estimation.QWC_QUBIT_CAP):
        raise CapExceededError(
            f"nldfe-compare capped at n <= {estimation.QWC_QUBIT_CAP}")
    if (args.command == "run" and args.scheme == "nldfe"
            and args.n > estimation.QWC_QUBIT_CAP):
        raise CapExceededError("QWC partition needs 3^n 2^n work; capped at "
                               f"n <= {estimation.QWC_QUBIT_CAP}")
    if (args.command == "hypergraph-bounds"
            and args.nmax > magic.SAMPLED_RANK_QUBIT_CAP):
        raise CapExceededError("hypergraph-bounds capped at n <= "
                               f"{magic.SAMPLED_RANK_QUBIT_CAP}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, _command_options(parser, args.command))
        _validate(args)
        table = _COMMANDS[args.command](args)
        _emit(table, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalHealthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
        return 2 if code not in (0,) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
