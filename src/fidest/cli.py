"""Command-line front end: experiment runners reproducing the figure
configurations and scaling scans, with deterministic seeding and
CSV/JSON output.

Every option is declared once, as an `Option` in `_COMMANDS` (a
subcommand's own) or `_COMMON` (shared).  The parser, the defaults,
config-file typing and the range and cap checks are loops over them.

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

from . import __version__, estimation, f2, magic, samplers, states, tomography
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
    table.metadata.setdefault("config", " ".join(
        f"{opt.dest}={getattr(args, opt.dest)}"
        for opt in _COMMANDS[args.command].options))
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
        metadata={"depolarizing_p": repr(p)})
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
    table = ResultTable(
        columns=["n", "l1_mean", "l1_stderr", "l1_closed_form",
                 "stripped_mean", "stripped_stderr", "ratio", "method"])
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
                 "dfe_variance"])
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
                 "closed_upper", "empirical_second_moment"])
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
                 "stderr", "exact_fidelity", "analytic_bound"])
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
    table = ResultTable(columns=["n", "shots_per_basis", "l2_error"])
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
        columns=["n", "chi", "samples", "mean_weight", "tv_distance"])
    ax, az = sampler.draw(rng, args.samples)
    weights = popcount_array((ax | az).astype(np.uint64))
    tv = ""
    if args.verify:
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
                 "tv_distance"])
    tv = ""
    if args.verify:
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
                 "dfe_bound_half"])
    table.add(args.family, args.n, repr(rep.l0), repr(rep.l1), repr(rep.l2),
              repr(rep.sre[0.5]), repr(rep.sre[2.0]), repr(rep.l1**2))
    return table


# ---------------------------------------------------------------------------
# The option table

#: the largest count a numpy draw takes (counts are int64)
_COUNT_MAX = 2**63 - 1


@dataclass(frozen=True)
class Option:
    """One flag: its value type (`bool` for a switch), built-in default,
    range lo..hi (exit 2 outside it), qubit cap (exit 3 above it),
    choices and help text.  The output's `config` line echoes every
    option a subcommand owns."""

    flag: str
    type: type
    default: object = None
    lo: object = None
    hi: object = None
    cap: int | None = None
    choices: tuple | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.replace("-", "_")

    def config_value(self, val):
        """A config file value read as the flag's own text would be: through
        the type and choices (a switch takes true or false)."""
        if self.type is bool:
            ok = isinstance(val, bool)
        else:
            try:
                val = self.type(str(val))
                ok = self.choices is None or val in self.choices
            except ValueError:
                ok = False
        if not ok:
            raise ConfigError(f"config value {val!r} is not valid for --{self.flag}")
        return val


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner, its help line and its own options."""

    run: object
    help: str
    options: tuple


def _count(flag, default) -> Option:
    return Option(flag, int, default, lo=1, hi=_COUNT_MAX)


def _qubits(default, cap) -> Option:
    return Option("n", int, default, lo=1, cap=cap)


_FAMILIES = ("phase-random", "hypergraph-random", "hypergraph-complete3",
             "dicke", "haar", "mps")
#: the options `_build_target` reads besides --family
_TARGET = (_qubits(4, f2.COEFF_CAP), Option("k", int, 1), Option("chi", int, 2))

#: the options every subcommand takes, after its own
_COMMON = (
    Option("seed", int, 0, lo=0),
    Option("workers", int, 1, lo=1, hi=_COUNT_MAX,
           help="accepted for compatibility; results do not depend on it"),
    Option("out", str),
    Option("format", str, "csv", choices=("csv", "json")),
    Option("deterministic", bool, False),
    Option("config", str),
)

_COMMANDS = {
    "fig2a": Command(
        cmd_fig2a, "DFE vs FOFE on the complete 3-hypergraph target under "
                   "depolarizing noise",
        (_qubits(7, f2.COEFF_CAP), Option("fidelity", float, 0.8955),
         _count("shots", 5000))),
    "haar-scan": Command(
        cmd_haar_scan, "Haar-average l1 and stripped-l1 scan",
        # the Dirichlet Monte Carlo costs O(samples 2^n)
        (Option("nmin", int, 2, lo=1), Option("nmax", int, 8, cap=16),
         _count("samples", 100), _count("dirichlet-samples", 10000))),
    "nldfe-compare": Command(
        cmd_nldfe_compare, "QWC-partition weight vs l1 norm",
        (Option("nmin", int, 3, lo=1),
         Option("nmax", int, 6, cap=estimation.QWC_QUBIT_CAP),
         _count("samples", 100), _count("shots", 2000),
         Option("ordering", str, "canonical",
                choices=("canonical", "greedy-weight")))),
    "hypergraph-bounds": Command(
        cmd_hypergraph_bounds, "rank-distribution variance bounds",
        (Option("nmin", int, 4, lo=1),
         Option("nmax", int, 7, cap=magic.SAMPLED_RANK_QUBIT_CAP),
         _count("samples", 2000), _count("shots", 20000))),
    "run": Command(
        cmd_run, "generic estimator run",
        (Option("scheme", str, "fofe", choices=("dfe", "fofe", "nldfe")),
         Option("family", str, "hypergraph-complete3", choices=_FAMILIES),
         *_TARGET, _count("shots", 1000), Option("alpha", float, 0.5),
         Option("p", float, 0.0, lo=0, hi=1), Option("input-fidelity", float),
         Option("mom-batches", int, 1))),
    "tomography": Command(
        cmd_tomography, "MUB tomography shot ladder",
        (_qubits(2, tomography.MUB_QUBIT_CAP),
         Option("shots-ladder", str, "1000,4000,16000"))),
    "mps-sample": Command(
        cmd_mps_sample, "MPS l2 sampling",
        (_qubits(6, states.MPS_QUBIT_CAP), Option("chi", int, 4),
         _count("samples", 200), Option("verify", bool, False))),
    "dicke": Command(
        cmd_dicke, "Dicke-state l1 sampling",
        (_qubits(8, samplers.DICKE_QUBIT_CAP), Option("k", int, 3),
         _count("samples", 1000), Option("verify", bool, False))),
    "norms": Command(
        cmd_norms, "magic norms of one state",
        (Option("family", str, "haar", choices=_FAMILIES), *_TARGET)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidest",
        description="Fidelity estimation experiments: Pauli-sampling DFE, "
                    "fan-out FE with phase stripping, nonlinear DFE, "
                    "magic-norm scans, and MUB tomography.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # every default is None here, so that a set flag can be told from an
    # unset one; _fill puts in the config file's values and the defaults
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in (*command.options, *_COMMON):
            if opt.type is bool:
                p.add_argument(f"--{opt.flag}", action="store_true",
                               default=None, help=opt.help)
            else:
                p.add_argument(f"--{opt.flag}", type=opt.type,
                               choices=opt.choices, default=None, help=opt.help)
    return parser


def _fill(args: argparse.Namespace, options) -> None:
    """Fill unset options: CLI flags > config file > built-in defaults.
    A null in the file leaves the option to the default; a key that names
    no option of the subcommand (in flag or dest spelling) is an error."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, not text
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - {key for opt in options for key in (opt.flag, opt.dest)}
        if unknown:
            raise ConfigError(f"config keys name no option of {args.command}: "
                              f"{', '.join(sorted(unknown))}")
    for opt in options:
        if getattr(args, opt.dest) is not None or opt.flag == "config":
            continue
        val = file_cfg.get(opt.flag, file_cfg.get(opt.dest))
        setattr(args, opt.dest,
                opt.default if val is None else opt.config_value(val))


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


def _validate(args, options) -> None:
    """Every exit-2 check (the table's ranges, then the rules that join
    options), then every exit-3 size cap, before any work starts."""
    for opt in options:
        val = getattr(args, opt.dest)
        if opt.lo is not None and not val >= opt.lo:
            raise ConfigError(f"--{opt.flag} must be >= {opt.lo}, got {val}")
        if opt.hi is not None and not val <= opt.hi:
            raise ConfigError(f"--{opt.flag} must be <= {opt.hi}, got {val}")
    nmin = getattr(args, "nmin", None)
    if nmin is not None and args.nmax < nmin:
        raise ConfigError(f"--nmax must be >= --nmin = {nmin}, got {args.nmax}")
    n = getattr(args, "n", None)
    # Fidelities reachable by depolarizing an n-qubit pure target: [2^-n, 1].
    for key in ("fidelity", "input_fidelity"):
        val = getattr(args, key, None)
        if val is not None and not math.ldexp(1.0, -n) <= val <= 1.0:
            raise ConfigError(f"--{key.replace('_', '-')} must lie in [2^-n, 1] "
                              f"= [{math.ldexp(1.0, -n)!r}, 1], got {val}")
    if args.command == "run" and not 1 <= args.mom_batches <= args.shots:
        raise ConfigError(f"--mom-batches must lie in 1..--shots = {args.shots}, "
                          f"got {args.mom_batches}")
    if args.command == "run" and args.alpha not in (0.5, 1.0):
        raise ConfigError(f"--alpha must be 1/2 or 1, got {args.alpha}")
    family = getattr(args, "family", None)
    if family == "dicke" and not 0 <= args.k <= n:
        raise ConfigError(f"--k must lie in 0..{n}, got {args.k}")
    if args.command == "dicke" and not 0 <= args.k <= n // 2:
        raise ConfigError(f"the Dicke sampler needs 0 <= --k <= n/2 = {n // 2}, "
                          f"got {args.k}")
    if args.command == "tomography":
        _shots_ladder(args.shots_ladder)
    mps = family == "mps" or args.command == "mps-sample"
    if mps and args.chi < 1:
        raise ConfigError(f"--chi must be >= 1, got {args.chi}")
    if mps and args.chi > states.MPS_BOND_CAP:
        raise CapExceededError(
            f"MPS bond dimension capped at chi <= {states.MPS_BOND_CAP}")
    for opt in options:
        if opt.cap is not None and getattr(args, opt.dest) > opt.cap:
            raise CapExceededError(f"{args.command} capped at n <= {opt.cap}")
    if getattr(args, "verify", False) and args.n > 6:
        raise CapExceededError("--verify enumeration capped at n <= 6")
    if (args.command == "run" and args.scheme == "nldfe"
            and args.n > estimation.QWC_QUBIT_CAP):
        raise CapExceededError("QWC partition needs 3^n 2^n work; capped at "
                               f"n <= {estimation.QWC_QUBIT_CAP}")


def _parse(argv) -> argparse.Namespace:
    """The checked arguments of one call: flags, then the config file,
    then the built-in defaults."""
    args = build_parser().parse_args(argv)
    options = (*_COMMANDS[args.command].options, *_COMMON)
    _fill(args, options)
    _validate(args, options)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        _emit(_COMMANDS[args.command].run(args), args)
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
