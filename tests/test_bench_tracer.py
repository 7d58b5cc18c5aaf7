"""The benchmark's tracer (bench/tracing.py) against the program: every name it
wraps exists, the kernel classes keep the shape its counters rely on, and its
hooks read the point sets that a job of each workload passes.

A traced benchmark run counts ``kernels.pair_evals`` through each kernel class's
own ``__call__``, and every block goes through ``KernelSpec.pairwise``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import kernmetric
import kernmetric.cli  # noqa: F401  (the workloads run the CLI in-process)
from kernmetric import Euclidean, Gaussian, gram, kernels, make_radial_hilbert

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _subclasses(cls):
    return [c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))]


def test_tracer_wraps_names_that_exist_and_counts_evaluations():
    tracer = tracing.Tracer()  # raises TraceTargetMissing for a name that is gone
    k = make_radial_hilbert(Gaussian(alpha=0.5), Euclidean(2))
    tracer.start(0)
    try:
        k(np.zeros(2), np.ones(2))
        gram(k, [np.zeros(2), np.ones(2)])
    finally:
        tracer.stop()
    assert tracer.counts["kernels.pair_evals"] == 1
    assert tracer.counts["kernels.gram_entries"] == 4
    assert tracer.counts["profiles.evals"] == 2  # the scalar call and the Gram block


def test_every_kernel_class_defines_its_own_call():
    classes = _subclasses(kernels.KernelSpec)
    assert len(classes) >= 4
    assert [c.__name__ for c in classes if "__call__" not in vars(c)] == []


def test_only_the_base_class_defines_pairwise():
    assert "pairwise" in vars(kernels.KernelSpec)
    assert [c.__name__ for c in _subclasses(kernels.KernelSpec) if "pairwise" in vars(c)] == []


def test_only_the_base_class_defines_diag():
    assert "diag" in vars(kernels.KernelSpec)
    classes = _subclasses(kernels.KernelSpec)
    assert [c.__name__ for c in classes if "diag" in vars(c)] == []
    assert [c.__name__ for c in classes if c._diag is kernels.KernelSpec._diag] == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_job_is_correct(workload, tmp_path):
    """One job under the tracer: its hooks (the size of each Gram's point set, the
    key of each measure given to ``kme_sq_norm``) take the job's own arguments, and
    the job's values still match the reference."""
    wl = workloads.WORKLOADS[workload](kernmetric, tmp_path, 1)
    wl.setup()
    tracer = tracing.Tracer()
    tracer.start(0)
    try:
        result = wl.job(0)
    finally:
        tracer.stop()
    assert reference.compare(wl.expected(0), wl.values(0, result)) == []
    assert tracer.counts["kernels.gram_entries"] > 0
