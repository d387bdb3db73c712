"""Tooling check on what the benchmark in `perfbench/` reads of the
library: its traced run (`--trace 1`) takes the QWC group count from the
return value of `build_qwc_partition` and the label law of each scheme
from the captured sampler or partition.  A change to `src` that breaks
either fails here, not only in a benchmark run.

The benchmark modules are imported as they are, with `perfbench/` on
`sys.path` and no bytecode written there."""

import sys
from pathlib import Path

import numpy as np
import pytest

from fidest import estimation, samplers, states
from fidest.f2 import pauli_coefficients

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import run
        import spans
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return run, spans


def test_partition_label_distribution_is_group_weights(bench):
    run, _ = bench
    psi = states.haar_random(3, np.random.default_rng(80))
    part = estimation.build_qwc_partition(pauli_coefficients(psi))
    assert part.groups.size > 1
    assert np.array_equal(run.label_distribution(part), part.groups.weight)


def test_qwc_group_counter_and_capture(bench):
    _, spans = bench
    counter, count = spans.COUNTERS["estimation.build_qwc_partition"]
    assert counter == "estimation.qwc_groups"
    coeffs = pauli_coefficients(states.haar_random(3, np.random.default_rng(81)))
    tracer = spans.Tracer(capture=True)
    tracer.install()
    try:
        part = estimation.build_qwc_partition(coeffs)
    finally:
        assert tracer.uninstall()
    assert count(part) == len(part.groups) == part.groups.size
    assert tracer.counters[counter] == part.groups.size
    assert len(tracer.captured) == 1 and tracer.captured[0] is part


@pytest.mark.parametrize("make", [
    lambda psi: samplers.ExactSampler(pauli_coefficients(psi), 0.5),
    lambda psi: samplers.UniformXSampler(psi.n, 0.5),
], ids=["ExactSampler", "UniformXSampler"])
def test_sampler_label_distribution(bench, make):
    run, _ = bench
    sampler = make(states.haar_random(3, np.random.default_rng(82)))
    probs = np.asarray(run.label_distribution(sampler), dtype=float)
    assert np.array_equal(probs, sampler.distribution())
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_cdf_table_is_not_a_sampler(bench):
    # spans.py wraps every samplers class with a draw method as a sampler:
    # a draw on the inverse-CDF kernel would count its searches as draws
    _, spans = bench
    assert not hasattr(samplers.CdfTable, "draw")
    assert samplers.CdfTable not in spans.sampler_classes(samplers)
