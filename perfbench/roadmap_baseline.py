#!/usr/bin/env python3
"""Re-measure the ad-hoc baseline table of ROADMAP.md with this benchmark's
machinery, so the two can be set side by side.

Run from the repository root:

    python3 perfbench/roadmap_baseline.py

Prints a Markdown table.  Shot-loop costs are per-shot times from pairs of
in-process ``fidest run`` calls that differ only in ``--shots`` (complete
3-hypergraph target, p = 0.1); CLI wall times are fresh child processes at
the subcommand defaults.  Every figure is a median of ``REPS`` repetitions.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import run

REPS = 3
SHOTS = 2000


def shot_us(cli, scheme: str, n: int) -> float:
    argv = run.fidest_args(("run", "--family", "hypergraph-complete3", "--n", str(n),
                            "--p", "0.1", "--scheme", scheme), seed=0)
    per_shot = []
    for _ in range(REPS):
        lo = run.call_main(cli, argv + ["--shots", "1"])[0]
        hi = run.call_main(cli, argv + ["--shots", str(SHOTS + 1)])[0]
        per_shot.append((hi - lo) / SHOTS * 1e6)
    return statistics.median(per_shot)


def timed(fn, *args) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def child_seconds(spawner, args, env) -> float:
    child = spawner.run(args, env)
    if child.code != 0:
        raise SystemExit(f"{args} exited {child.code}: {child.err[-300:]}")
    return child.seconds


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    run.pin_threads()
    spawner = run.Spawner()
    try:
        table(spawner)
    finally:
        spawner.close()
    return 0


def table(spawner) -> None:
    cli = run.import_fidest()
    import numpy as np
    from fidest import f2, states

    rows = []
    for scheme in run.SCHEMES:
        cells = [f"{shot_us(cli, scheme, n):.0f}" if scheme != "nldfe" or n <= 9
                 else "capped" for n in (4, 7, 10)]
        rows.append((f"{scheme.upper()} shot loop, µs/shot", *cells))
    rng = np.random.default_rng(0)
    rows.append(("`pauli_coefficients` (n=6 / 8 / 10), ms", *(
        f"{1e3 * timed(f2.pauli_coefficients, states.haar_random(n, rng)):.1f}"
        for n in (6, 8, 10))))
    cells = []
    for n in (4, 7, 10):
        psi = states.haar_random(n, rng)
        mixture = states.depolarize(psi, 0.1)
        mib = sum(c.amplitudes.nbytes for _, c in mixture.components) / 2**20
        cells.append(f"{1e3 * timed(states.depolarize, psi, 0.1):.1f} ms, {mib:.2f} MiB")
    rows.append(("`depolarize`", *cells))

    tracer = run.Tracer()
    with tracer:
        run.call_main(cli, run.fidest_args(
            ("run", "--family", "hypergraph-complete3", "--n", "10", "--p", "0.1",
             "--scheme", "dfe", "--shots", str(SHOTS)), seed=0))
    loop = tracer.inclusive_time(("estimation.dfe_shot",))
    share = tracer.summary()["states.sample_component"]["self_s"] / loop

    print("| layer | n=4 | n=7 | n=10 |\n|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print(f"\n`sample_component` share of the n=10 DFE shot loop: {100 * share:.0f}%\n")

    env = run.child_env()
    import_s = statistics.median(
        float(spawner.run(["-c", run.IMPORT_PROBE], env).out) for _ in range(REPS))
    print(f"`import fidest.cli`: {import_s:.2f} s\n")
    print("| subcommand | wall time |\n|---|---|")
    for argv in (("fig2a",), ("fig2a", "--n", "10"), ("haar-scan",), ("nldfe-compare",),
                 ("hypergraph-bounds",), ("run",), ("tomography",)):
        walls = [child_seconds(spawner, ["-c", run.ENTRY, *run.fidest_args(argv, 0)], env)
                 for _ in range(REPS)]
        print(f"| `{' '.join(argv)}` | {statistics.median(walls):.1f} s |")


if __name__ == "__main__":
    sys.exit(main())
