"""Fused multi-machine replay: parity oracle and crashes.

The fused engine (:mod:`repro.uarch.fused`) promises **bit-identical**
reports to the scalar per-access oracle — the property suite here is
the oracle check that backs the claim, driven by the shared
:mod:`tests.parity` harness over randomized geometries, replacement
policies and warm-up fractions.  The executor tests pin the fused
crash contract: a batch that dies names *every* pair it carried.
"""

from __future__ import annotations

import pytest

from tests.parity import (
    assert_reports_identical,
    rng_for,
    sample_machine_batch,
    sample_warmup,
    sample_window,
    sample_workload,
)

from repro.errors import ExecutionError
from repro.perf.profiler import Profiler
from repro.perf.trace_engine import profile_trace, profile_trace_batch
from repro.uarch.cache import ReplacementPolicy
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.workloads.spec import get_workload

MCF = get_workload("505.mcf_r")
SKYLAKE = get_machine("skylake-i7-6700")


class TestFusedParity:
    """Fused replay vs. the scalar oracle must be bit-identical, always.

    Randomized-case budget (tests/parity.py contract): 20 trials with
    2–5 machines each contribute ~70 report-level parity cases on top
    of the kernel-parity suites.
    """

    def _assert_batches_match_scalar(self, label, vary_policy=False):
        policies = set()
        for trial in range(20):
            rnd = rng_for(label, trial)
            spec = sample_workload(rnd)
            machines = sample_machine_batch(
                rnd, rnd.choice([2, 3, 4, 5]), vary_policy=vary_policy
            )
            window = sample_window(rnd)
            warmup = sample_warmup(rnd)
            fused = profile_trace_batch(
                spec,
                machines,
                instructions=window,
                warmup_fraction=warmup,
                kernel="vector",
            )
            for machine, got in zip(machines, fused):
                want = profile_trace(
                    spec,
                    machine,
                    instructions=window,
                    warmup_fraction=warmup,
                    kernel="scalar",
                )
                assert_reports_identical(
                    got, want,
                    f"trial={trial} warmup={warmup} "
                    f"window={window} machine={machine.name}",
                )
                policies.update(
                    (level, getattr(machine, level).policy)
                    for level in ("l1d", "l2", "l3")
                    if getattr(machine, level) is not None
                )
        return policies

    def test_randomized_batches_match_independent(self):
        self._assert_batches_match_scalar("fused-batch")

    def test_fifo_and_random_levels_match_scalar(self):
        # Non-LRU levels leave fused's stack-depth pass for the exact
        # _simulate_level replay; every data level must have met both
        # policies for the suite to have checked that fallback.
        policies = self._assert_batches_match_scalar(
            "fused-batch-policies", vary_policy=True
        )
        for level in ("l1d", "l2", "l3"):
            for policy in (ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM):
                assert (level, policy) in policies, (level, policy)

    def test_paper_machine_sweep_is_bit_identical(self):
        machines = paper_machines()
        fused = profile_trace_batch(
            MCF, machines, instructions=5_000, kernel="vector"
        )
        for machine, got in zip(machines, fused):
            want = profile_trace(
                MCF, machine, instructions=5_000, kernel="scalar"
            )
            assert_reports_identical(got, want, machine.name)

    def test_single_machine_batch_degenerates_to_profile_trace(self):
        (got,) = profile_trace_batch(
            MCF, [SKYLAKE], instructions=3_000, kernel="vector"
        )
        want = profile_trace(MCF, SKYLAKE, instructions=3_000, kernel="scalar")
        assert_reports_identical(got, want)

    def test_batch_order_is_input_order(self):
        machines = [get_machine(name) for name in PAPER_MACHINE_NAMES]
        reports = profile_trace_batch(
            MCF, machines, instructions=2_000, kernel="vector"
        )
        assert [r.machine for r in reports] == [m.name for m in machines]


class TestFusedExecutorCrash:
    """Satellite 4: a dying fused batch names every pair it carried."""

    WORKLOADS = ("505.mcf_r", "541.leela_r")
    MACHINES = ("skylake-i7-6700", "sparc-t4")

    def _pairs(self):
        return [
            (get_workload(w), get_machine(m))
            for w in self.WORKLOADS
            for m in self.MACHINES
        ]

    def _crash_batches_for(self, monkeypatch, fail_on: str):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def flaky(spec, configs, engine, **kwargs):
            if spec.name == fail_on:
                raise RuntimeError("simulated fused-batch crash")
            return real(spec, configs, engine, **kwargs)

        monkeypatch.setattr(mod, "compute_reports", flaky)

    def _profiler(self):
        # Explicit vector kernel so the fused batch path stays active
        # under the scalar-oracle CI environment.
        return Profiler(
            engine="trace", trace_instructions=2_000, trace_kernel="vector"
        )

    def test_serial_fused_crash_names_every_pair_in_the_batch(
        self, monkeypatch
    ):
        from repro.perf.executor import ProfilingExecutor

        self._crash_batches_for(monkeypatch, fail_on="541.leela_r")
        executor = ProfilingExecutor(self._profiler(), jobs=1)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(self._pairs())
        message = str(excinfo.value)
        for machine in self.MACHINES:
            assert f"541.leela_r@{machine}" in message
            assert f"505.mcf_r@{machine}" not in message

    def test_worker_fused_crash_names_every_pair_in_the_batch(
        self, monkeypatch
    ):
        from repro.perf.executor import ProfilingExecutor

        self._crash_batches_for(monkeypatch, fail_on="505.mcf_r")
        # chunk_size=2 keeps each workload's machine pairs in one
        # fused chunk (workload_chunks dispatches workload-major).
        executor = ProfilingExecutor(self._profiler(), jobs=2, chunk_size=2)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(self._pairs())
        message = str(excinfo.value)
        for machine in self.MACHINES:
            assert f"505.mcf_r@{machine}" in message
            assert f"541.leela_r@{machine}" not in message

    def test_fused_sweep_matches_independent_sweep_through_executor(self):
        from repro.perf.executor import ProfilingExecutor

        def sweep(kernel):
            profiler = Profiler(
                engine="trace", trace_instructions=2_000, trace_kernel=kernel
            )
            executor = ProfilingExecutor(profiler, jobs=2)
            return executor.run(self._pairs())

        # The scalar oracle profiles every pair on its own.
        fused = sweep("vector")
        independent = sweep("scalar")
        for got, want in zip(fused, independent):
            assert_reports_identical(got, want, f"{want.workload}@{want.machine}")
