#!/usr/bin/env python3
"""Benchmark for the ``fidest`` package and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fig2a-n10 --seed 1 --seconds 42 --trace 0

``--trace 0`` measures the end-to-end metrics: the wall time of the
workload's ``fidest`` commands, each run as a fresh child process as a user
runs it; the same commands at minimum shot/sample counts (set-up); the peak
RSS of the children; and per-scheme shots/s from in-process
``fidest.cli.main(["run", ...])`` calls that differ only in ``--shots``.
Repetitions of all of these, interleaved, continue until ``--seconds`` have
passed (at least ``MIN_CYCLES``).  Every timed item is adjusted to a nominal
host speed by a fixed reference kernel timed around it (``HostReference``).
``wall_s`` is the mean adjusted repetition time, a rate is all extra shots
over all adjusted extra time, and ``setup_s`` and ``peak_rss_mb`` are
medians over the repetitions.

``--trace 1`` runs the workload's commands in this process with the span
tracer of ``spans.py`` installed and reports per-layer calls and self times,
the tracer's overhead, and the label-reuse share of each scheme.

Every command's exit status and output are checked (``gate.py``); failures
are counted, never fatal.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
of the run (environment, samples, checks) goes to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import mean, median

import gate
from spans import COUNTERS, FUNCTIONS, SAMPLER_BUILD, SAMPLER_DRAW, Tracer

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# What the `fidest` console script runs.
ENTRY = "import sys; from fidest.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import fidest.cli; "
                "sys.stdout.write(repr(time.perf_counter() - t))")
COMMON = ("--deterministic", "--workers", "1", "--format", "json")

# Two repetitions at least: the second checks that output is byte-identical.
MIN_CYCLES = 2
MAX_CYCLES = 200
# A rate's extra shots double until they take at least this long, so the
# rate stays resolvable when the shot engine gets much faster.
RATE_MIN_EXTRA_S = 0.15
RATE_MAX_SHOTS = 1 << 21
IMPORT_REPS = 5
SCHEMES = ("dfe", "fofe", "nldfe")
# Host-speed reference (see HostReference): a fixed kernel timed before and
# after every timed item.  REF_NOMINAL_S is a constant near the kernel's
# duration on the benchmark's 2-core host when it is quiet, so that adjusted
# times read as seconds on that host.
REF_NOMINAL_S = 0.040
REF_LOOP = 500_000


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    commands: tuple  # one repetition: fidest argument lists
    setup: tuple  # the same commands with every count at its minimum
    rates: dict  # scheme -> (`fidest run` arguments, nominal extra shots)


def _run_cmd(family: str, n: int, noise: tuple, scheme: str) -> tuple:
    return ("run", "--family", family, "--n", str(n), *noise, "--scheme", scheme)


# Sizes are cut down from the CLI defaults so that each run holds several
# repetitions; the proportions that make a workload shot- or set-up-bound are
# kept.  Each rate's nominal extra shots take about 1 s at the seed commit.
_FIG2A_NOISE = ("--input-fidelity", "0.8955")
_PHASE_NOISE = ("--p", "0.1")

WORKLOADS = {
    "fig2a-n10": Workload(
        commands=(("fig2a", "--n", "10", "--shots", "2000"),),
        setup=(("fig2a", "--n", "10", "--shots", "1"),),
        rates={
            "dfe": (_run_cmd("hypergraph-complete3", 10, _FIG2A_NOISE, "dfe"), 6144),
            "fofe": (_run_cmd("hypergraph-complete3", 10, _FIG2A_NOISE, "fofe"), 3072),
            # the QWC partition is capped at n <= 9
            "nldfe": (_run_cmd("hypergraph-complete3", 8, _FIG2A_NOISE, "nldfe"), 3072),
        }),
    "nldfe-scan": Workload(
        commands=(("nldfe-compare", "--samples", "20", "--shots", "300"),),
        setup=(("nldfe-compare", "--samples", "1", "--shots", "1"),),
        # the phase-random n=8 targets: complex phases take FOFE's imaginary
        # branch, and NLDFE shots pay the Born law of a 257-component mixture
        rates={s: (_run_cmd("phase-random", 8, _PHASE_NOISE, s), shots)
               for s, shots in zip(SCHEMES, (16384, 4096, 2048))}),
    "analytics": Workload(
        commands=(("haar-scan", "--samples", "10", "--dirichlet-samples", "2000"),
                  ("hypergraph-bounds", "--samples", "300", "--shots", "3000"),
                  ("tomography", "--n", "4")),
        setup=(("haar-scan", "--samples", "1", "--dirichlet-samples", "1"),
               ("hypergraph-bounds", "--samples", "1", "--shots", "1"),
               ("tomography", "--n", "4", "--shots-ladder", "1")),
        rates={s: (_run_cmd("hypergraph-complete3", 7, (), s), shots)
               for s, shots in zip(SCHEMES, (32768, 12288, 8192))}),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "dfe.shots_per_s": "1/s",
              "fofe.shots_per_s": "1/s", "nldfe.shots_per_s": "1/s",
              "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {"cli.import_s": "s"}
    for mod, attr in FUNCTIONS:
        units[f"{mod}.{attr}.calls"] = "count"
        units[f"{mod}.{attr}.self_s"] = "s"
    units["samplers.build_s"] = "s"
    units[f"{SAMPLER_DRAW}.calls"] = "count"
    units[f"{SAMPLER_DRAW}.self_s"] = "s"
    for counter, _ in COUNTERS.values():
        units[counter] = "count"
    for scheme in SCHEMES:
        units[f"{scheme}.label_reuse"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Running commands


@dataclass
class Tally:
    """Operations attempted and failed; a failed one keeps its messages."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, errors) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures += [f"{what}: {e}" for e in errors]


@dataclass(frozen=True)
class Child:
    seconds: float
    rss_mb: float
    code: int
    out: str
    err: str


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def pin_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable core count, here and in children."""
    for var in THREAD_VARS:
        try:
            val = min(int(os.environ.get(var, NPROC)), NPROC)
        except ValueError:
            val = NPROC
        os.environ[var] = str(max(val, 1))


class Spawner:
    """Starts children through spawner.py, which stays small, so that each
    child's peak RSS from ``wait4`` is its own (see spawner.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py"), OUT_DIR],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def run(self, args, env) -> Child:
        self.proc.stdin.write(json.dumps({"args": list(args), "env": env}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return Child(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def fidest_args(argv, seed: int) -> list:
    return [*argv, "--seed", str(seed), *COMMON]


def call_main(cli, argv):
    """In-process ``cli.main(argv)``: (seconds, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # an escaped exception is a failed operation
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def status_errors(code, stderr: str) -> list:
    if code == 0:
        return []
    return [f"exit {code}: {stderr.strip()[-300:]}"]


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


class HostReference:
    """Scales measured times to a nominal host speed.

    The shared host's speed drifts by up to ~1.6x over seconds to minutes.
    A fixed kernel, an interpreter loop that does
    not touch ``fidest``, is timed between consecutive timed items; an
    item's adjusted time is its measured time x REF_NOMINAL_S / (mean of the
    kernel times just before and just after it).  A change to ``fidest``
    moves the adjusted time as it moves the measured one; a change of host
    speed moves both the item and the kernel, and cancels.  Of the kernels
    tried (interpreter loop; numpy passes in cache or streaming from memory;
    row reads from an 8 MB matrix), the interpreter loop tracked the
    workloads' times best; it follows in-process work more closely than a
    child's interpreter start and imports (perfbench/NOTES.md).
    """

    def __init__(self):
        self.kernel()  # warm
        self.last = self.kernel()
        self.kernel_s = [self.last]

    @staticmethod
    def _loop(count: int) -> int:
        acc = 0
        for i in range(count):
            acc += (i * 7) % 13
        return acc

    def kernel(self) -> float:
        self._loop(REF_LOOP // 10)  # untimed warm-up after the timed item
        start = time.perf_counter()
        self._loop(REF_LOOP)
        return time.perf_counter() - start

    def adjust(self, seconds: float) -> float:
        """Adjust an item that has just ended (its kernel 'before' is
        self.last) and time the kernel after it."""
        before, self.last = self.last, self.kernel()
        self.kernel_s.append(self.last)
        return seconds * REF_NOMINAL_S / ((before + self.last) / 2)


class EndToEnd:
    """Interleaved repetitions of one workload; see the module docstring."""

    def __init__(self, wl: Workload, seed: int, tally: Tally, cli, spawner: Spawner):
        self.wl, self.seed, self.tally, self.cli = wl, seed, tally, cli
        self.spawner = spawner
        self.ref = HostReference()
        self.env = child_env()
        self.wall = [[] for _ in wl.commands]
        self.setup = [[] for _ in wl.commands]
        self.items = []  # (label, measured seconds, adjusted seconds)
        self.rss = []
        self.outputs = {}
        self.shots = {s: n for s, (_, n) in wl.rates.items()}
        self.lo = {s: [] for s in wl.rates}
        self.hi = {s: [] for s in wl.rates}

    def _same(self, key, out: str) -> list:
        """Byte-identical output on every repetition with the same seed."""
        first = self.outputs.setdefault(key, out)
        return [] if out == first else ["output differs from the first repetition"]

    def _adjust(self, label: str, seconds: float) -> float:
        adjusted = self.ref.adjust(seconds)
        self.items.append((label, seconds, adjusted))
        return adjusted

    def _child(self, argv, gated: bool):
        """Run one command as a child: (adjusted seconds, peak RSS in MB)."""
        child = self.spawner.run(["-c", ENTRY, *fidest_args(argv, self.seed)], self.env)
        label = " ".join(argv)
        adjusted = self._adjust(label, child.seconds)
        errs = status_errors(child.code, child.err)
        if gated and not errs:
            errs = gate.check(argv, child.out) or self._same(tuple(argv), child.out)
        self.tally.record(label, errs)
        return adjusted, child.rss_mb

    def _rate_call(self, scheme: str, shots: int) -> float:
        argv = fidest_args(self.wl.rates[scheme][0], self.seed) + ["--shots", str(shots)]
        seconds, code, out, err = call_main(self.cli, argv)
        label = f"{scheme} rate --shots {shots}"
        adjusted = self._adjust(label, seconds)
        errs = status_errors(code, err)
        if shots > 1 and not errs:
            errs = gate.check(argv, out) or self._same((scheme, shots), out)
        self.tally.record(label, errs)
        return adjusted

    def _rate_pair(self, scheme: str, reverse: bool) -> None:
        n = self.shots[scheme]
        calls = [(n + 1, self.hi[scheme]), (1, self.lo[scheme])]
        for shots, bucket in (calls[::-1] if reverse else calls):
            bucket.append(self._rate_call(scheme, shots))

    def _calibrate(self, scheme: str) -> None:
        """Double the extra shots until they take RATE_MIN_EXTRA_S."""
        while True:
            self._rate_pair(scheme, reverse=False)
            extra = self.hi[scheme][-1] - self.lo[scheme][-1]
            if extra >= RATE_MIN_EXTRA_S or 2 * self.shots[scheme] > RATE_MAX_SHOTS:
                return
            self.shots[scheme] *= 2
            self.lo[scheme].clear()
            self.hi[scheme].clear()

    def cycle(self, index: int) -> None:
        peak = 0.0
        for i, (argv, setup) in enumerate(zip(self.wl.commands, self.wl.setup)):
            self.setup[i].append(self._child(setup, gated=False)[0])
            seconds, rss_mb = self._child(argv, gated=True)
            self.wall[i].append(seconds)
            peak = max(peak, rss_mb)
        self.rss.append(peak)
        for scheme in self.wl.rates:
            if index == 0:
                self._calibrate(scheme)
            else:
                self._rate_pair(scheme, reverse=index % 2 == 1)

    def metrics(self) -> dict:
        # All times are adjusted to nominal host speed (HostReference).  Means,
        # not medians, for wall_s and the rates: what the adjustment leaves of
        # the host's drift averages out, where a median of a few repetitions
        # jumps between neighbouring values.
        out = {"wall_s": sum(mean(xs) for xs in self.wall),
               "setup_s": sum(median(xs) for xs in self.setup),
               "peak_rss_mb": median(self.rss)}
        for scheme in self.wl.rates:
            extra = mean(hi - lo for hi, lo in zip(self.hi[scheme], self.lo[scheme]))
            out[f"{scheme}.shots_per_s"] = self.shots[scheme] / max(extra, 1e-9)
        return out

    def samples(self) -> dict:
        return {"wall_s": self.wall, "setup_s": self.setup, "peak_rss_mb": self.rss,
                "rate_extra_shots": self.shots, "rate_lo_s": self.lo,
                "rate_hi_s": self.hi, "reference_kernel_s": self.ref.kernel_s,
                "items_label_raw_adjusted": self.items}


def run_end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally, cli,
                   spawner: Spawner):
    deadline = time.perf_counter() + seconds
    bench = EndToEnd(wl, seed, tally, cli, spawner)
    durations = []
    while len(durations) < MAX_CYCLES:
        start = time.perf_counter()
        bench.cycle(len(durations))
        durations.append(time.perf_counter() - start)
        if len(durations) >= MIN_CYCLES and \
                time.perf_counter() + median(durations) > deadline:
            break
    return bench.metrics(), {**bench.samples(), "cycle_s": durations}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def expected_reuse(probs, shots: int) -> float:
    """1 - E[distinct labels] / shots for `shots` i.i.d. draws from probs."""
    import numpy as np
    p = probs[probs > 0] / probs.sum()
    with np.errstate(divide="ignore"):
        distinct = float(np.sum(-np.expm1(shots * np.log1p(-p))))
    return 1.0 - distinct / shots


def label_distribution(obj):
    """Label law of a captured sampler (its distribution) or QWC partition
    (its group weights)."""
    groups = getattr(obj, "groups", None)
    if groups is not None:
        return [g.weight for g in groups]
    return obj.distribution()


def run_commands(cli, wl: Workload, seed: int, tally: Tally, label: str):
    total, outputs = 0.0, []
    for argv in wl.commands:
        seconds, code, out, err = call_main(cli, fidest_args(argv, seed))
        errs = status_errors(code, err) or gate.check(argv, out)
        tally.record(f"{label} {' '.join(argv)}", errs)
        total += seconds
        outputs.append(out)
    return total, outputs


def import_seconds(tally: Tally, spawner: Spawner) -> float:
    env = child_env()
    times = []
    for _ in range(IMPORT_REPS):
        child = spawner.run(["-c", IMPORT_PROBE], env)
        errs = status_errors(child.code, child.err)
        if not errs:
            try:
                times.append(float(child.out))
            except ValueError:
                errs = [f"unparseable import time {child.out!r}"]
        tally.record("import fidest.cli", errs)
    return median(times) if times else 0.0


def missing_function_check() -> list:
    """A listed function that does not exist is reported absent, not raised."""
    probe = ("estimation", "perfbench_missing_probe")
    tracer = Tracer(functions=(probe,))
    try:
        tracer.install()
    except Exception as exc:  # the check reports any crash as a failure
        return [f"install crashed on a missing function: {exc!r}"]
    restored = tracer.uninstall()
    if tracer.absent != ["estimation.perfbench_missing_probe"] or not restored:
        return [f"missing function not reported absent: {tracer.absent}"]
    return []


def rate_labels(cli, wl: Workload, seed: int, tally: Tally) -> dict:
    """Per scheme, the label law of the sampler (or QWC partition) that the
    rate target builds, and the label reuse at the nominal shot count."""
    import numpy as np
    labels = {}
    for scheme, (argv, nominal) in wl.rates.items():
        capture = Tracer(capture=True)
        capture.install()
        try:
            _, code, _, err = call_main(cli, fidest_args(argv, seed) + ["--shots", "1"])
        finally:
            capture.uninstall()
        tally.record(f"{scheme} label capture", status_errors(code, err))
        if capture.captured:
            probs = np.asarray(label_distribution(capture.captured[-1]), dtype=float)
            labels[scheme] = {
                "shots": nominal + 1, "reuse": expected_reuse(probs, nominal + 1),
                "support": int(np.count_nonzero(probs)),
                "mixture_components": capture.counters.get("states.depolarize.components", 0)}
    return labels


def run_traced(wl: Workload, seed: int, tally: Tally, cli, spawner: Spawner,
               record: dict) -> dict:
    metrics = {"cli.import_s": import_seconds(tally, spawner)}
    tally.record("self-check: missing function", missing_function_check())

    untraced_a, outputs = run_commands(cli, wl, seed, tally, "untraced")
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_outputs = run_commands(cli, wl, seed, tally, "traced")
    finally:
        restored = tracer.uninstall()
    tally.record("self-check: originals restored",
                 [] if restored else ["a wrapped object was not restored"])
    untraced_b, again = run_commands(cli, wl, seed, tally, "restored")
    tally.record("self-check: traced output unchanged",
                 [] if traced_outputs == outputs == again else
                 ["outputs differ between untraced, traced and restored runs"])

    summary = tracer.summary()
    for mod, attr in tracer.functions:
        name = f"{mod}.{attr}"
        stats = summary.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = stats["calls"]
        metrics[f"{name}.self_s"] = stats["self_s"]
    metrics["samplers.build_s"] = summary.get(SAMPLER_BUILD, {}).get("self_s", 0.0)
    draw = summary.get(SAMPLER_DRAW, {"calls": 0, "self_s": 0.0})
    metrics[f"{SAMPLER_DRAW}.calls"] = draw["calls"]
    metrics[f"{SAMPLER_DRAW}.self_s"] = draw["self_s"]
    for counter, _ in COUNTERS.values():
        metrics[counter] = tracer.counters.get(counter, 0)
    metrics["trace.overhead_s"] = traced - (untraced_a + untraced_b) / 2
    unattributed = traced - tracer.root_time()
    metrics["trace.unattributed_s"] = unattributed
    total_self = sum(s["self_s"] for s in summary.values())
    tally.record("self-check: span self times add up", [] if (
        abs(total_self + unattributed - traced) <= 1e-6 * max(traced, 1.0)
        and tracer.nesting_errors() == 0) else
        [f"self {total_self} + unattributed {unattributed} != traced {traced}"])

    labels = rate_labels(cli, wl, seed, tally)
    absent = tracer.absent + [f"{s}.label_reuse" for s in wl.rates if s not in labels]
    for scheme in wl.rates:
        metrics[f"{scheme}.label_reuse"] = labels.get(scheme, {}).get("reuse", 0.0)

    span_file = os.path.join(OUT_DIR, f"spans-{record['workload']}-seed{seed}.json.gz")
    tracer.write(span_file)
    shot_s = tracer.inclusive_time(("estimation.dfe_shot", "estimation.fofe_shot",
                                    "estimation.nldfe_shot"))
    setup_s = tracer.inclusive_time(("estimation.build_qwc_partition",
                                     "f2.pauli_coefficients"))
    record.update({
        "absent": absent, "span_file": span_file, "span_count": len(tracer.spans),
        "in_process_s": {"untraced_first": untraced_a, "traced": traced,
                         "untraced_restored": untraced_b,
                         "restored_over_first": untraced_b / untraced_a},
        "rate_labels": labels,
        "shares_of_traced": {"shot_functions": shot_s / traced,
                             "partition_plus_transform": setup_s / traced},
        "spans": summary,
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def git_commit():
    """HEAD of a git checkout in the working directory, read from .git only."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, scipy) -> dict:
    return {"nproc": NPROC, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "loadavg_at_start": list(os.getloadavg()),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": git_commit(), "platform": platform.platform()}


def import_fidest():
    """Import the package from ./src, refusing any other copy."""
    sys.path.insert(0, SRC)
    from fidest import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fidest imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fidest", "cli.py")):
        print(f"error: no fidest sources under {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    pin_threads()
    spawner = Spawner()  # before this process grows; see spawner.py
    try:
        return measure(args, spawner)
    finally:
        spawner.close()


def measure(args, spawner: Spawner) -> int:
    try:
        cli = import_fidest()
    except ImportError as exc:
        print(f"error: cannot import fidest: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    wl = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(np, scipy),
              "commands": [list(c) for c in wl.commands],
              "setup_commands": [list(c) for c in wl.setup],
              "rate_commands": {s: list(a) for s, (a, _) in wl.rates.items()}}
    # warm the bytecode and file caches once, untimed
    spawner.run(["-c", "import fidest.cli"], child_env())

    tally = Tally()
    if args.trace:
        metrics = run_traced(wl, args.seed, tally, cli, spawner, record)
        units = per_layer_units()
    else:
        metrics, record["samples"] = run_end_to_end(wl, args.seed, args.seconds,
                                                    tally, cli, spawner)
        units = END_TO_END
    for name in sorted(set(units) - set(metrics)):
        tally.record(f"metric {name}", ["not measured"])

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in units.items()}}
    record.update({"failures": tally.failures, "result": result})
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"load={env['loadavg_at_start'][0]:.2f} commit={env['git_commit']}")
    for name, item in result["metrics"].items():
        print(f"# {name} = {item['value']!r} {item['unit']}")
    for line in tally.failures:
        print(f"# FAILED {line}")
    if record.get("absent"):
        print(f"# absent: {' '.join(record['absent'])}")
    print(f"# record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
