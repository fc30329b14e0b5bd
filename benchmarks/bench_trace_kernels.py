"""Benchmark — fast vs. scalar trace-engine kernels.

Times ``profile_trace`` end-to-end at the study's full trace length
(200k instructions) with the scalar per-access oracle and with the
``vector`` kernel — fused replay (:mod:`repro.uarch.fused`) of a batch
of one — asserting the acceptance bar — the vector path is >= 5x
faster — and that the two reports are metric-for-metric identical, so
the speedup is guaranteed to be like-for-like.  A full small sweep additionally pins down
bit-identical feature-matrix digests across kernels.
"""

import time

from repro import obs
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_engine import profile_trace
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine
from repro.workloads.spec import get_workload

WORKLOAD = "505.mcf_r"
MACHINE = "skylake-i7-6700"
TRACE_INSTRUCTIONS = 200_000

#: The acceptance bar: end-to-end profile_trace speedup of the vector
#: kernel over the scalar oracle at the full trace length.
SPEEDUP_FLOOR = 5.0


def _profile(kernel):
    spec = get_workload(WORKLOAD)
    config = get_machine(MACHINE)
    return profile_trace(
        spec, config, instructions=TRACE_INSTRUCTIONS, kernel=kernel
    )


def _sweep_digest(kernel):
    profiler = Profiler(
        engine="trace", trace_instructions=5_000, trace_kernel=kernel
    )
    matrix = build_feature_matrix(
        workloads=("505.mcf_r", "525.x264_r", "519.lbm_r"),
        machines=PAPER_MACHINE_NAMES[:3],
        profiler=profiler,
    )
    return matrix.digest()


def test_trace_kernel_speedup(run_once, benchmark):
    # Warm both paths once (allocator, import and registry warm-up)
    # so neither timed run pays first-call costs.
    _profile("scalar")
    _profile("vector")
    # The speedup assertion compares best-of-3 against best-of-3 under
    # identical obs conditions — min-of-N is the standard noise-robust
    # wall-clock estimator for deterministic code.
    scalar_time = vector_time = float("inf")
    obs.enable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            scalar_report = _profile("scalar")
            scalar_time = min(scalar_time, time.perf_counter() - t0)
            t0 = time.perf_counter()
            vector_timed = _profile("vector")
            vector_time = min(vector_time, time.perf_counter() - t0)
    finally:
        obs.disable()
    obs.reset()
    # The benchmark entry (and the obs ledger run it records) measures
    # one more vector round; the robust numbers ride in extra_info.
    vector_report = run_once(_profile, "vector")
    assert vector_timed.metrics == vector_report.metrics
    benchmark.extra_info["scalar_seconds"] = scalar_time
    benchmark.extra_info["vector_seconds"] = vector_time
    benchmark.extra_info["speedup"] = scalar_time / vector_time
    benchmark.extra_info["trace_instructions"] = TRACE_INSTRUCTIONS
    assert scalar_report.metrics == vector_report.metrics
    assert scalar_report.cpi_stack == vector_report.cpi_stack
    assert scalar_time >= SPEEDUP_FLOOR * vector_time, (
        f"scalar {scalar_time:.3f}s vs vector {vector_time:.3f}s "
        f"({scalar_time / vector_time:.2f}x < {SPEEDUP_FLOOR}x)"
    )


def test_trace_kernel_digests_identical(run_once, benchmark):
    vector_digest = run_once(_sweep_digest, "vector")
    benchmark.extra_info["kernel"] = "vector"
    assert _sweep_digest("scalar") == vector_digest
