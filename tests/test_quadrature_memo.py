"""Tests for the analytic engine's reuse-component quadrature memo.

The memo must be invisible in results (bit-identical reports, no
tolerance) and scoped to the object that owns it: one per
:class:`~repro.perf.profiler.Profiler`, one per pool chunk and one per
registry load, never process-global.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.perf.analytic import profile_analytic
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine
from repro.workloads import profiles, spec2017
from repro.workloads.calibration import calibrate_spec
from repro.workloads.spec import Suite, all_workloads, workloads_in_suite

PAPER_MACHINES = [get_machine(name) for name in PAPER_MACHINE_NAMES]


@pytest.fixture
def quadratures(monkeypatch):
    """Count every reuse-component quadrature actually computed."""
    calls = []
    original = profiles._component_hit_probability

    def counting(component, capacity_blocks, associativity):
        calls.append((component.median, component.sigma, capacity_blocks,
                      associativity))
        return original(component, capacity_blocks, associativity)

    monkeypatch.setattr(profiles, "_component_hit_probability", counting)
    return calls


@pytest.fixture
def obs_on():
    obs.disable()
    obs.reset()
    obs_metrics.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()
    obs_metrics.reset()


class TestBitIdentity:
    def test_every_paper_pair_matches_the_unmemoised_engine(self):
        memo: dict = {}
        for spec in all_workloads():
            for machine in PAPER_MACHINES:
                memoised = profile_analytic(spec, machine, memo)
                plain = profile_analytic(spec, machine, None)
                assert memoised.metrics == plain.metrics
                assert memoised.cpi_stack == plain.cpi_stack
                assert memoised.power == plain.power
                assert memoised == plain
        assert memo

    def test_calibration_with_a_shared_memo_matches_without(self):
        memo: dict = {}
        for spec in spec2017.SPECS:
            assert calibrate_spec(spec, memo) == calibrate_spec(spec)

    def test_memo_skips_repeated_quadratures(self, quadratures):
        spec = all_workloads()[0]
        memo: dict = {}
        profile_analytic(spec, PAPER_MACHINES[0], memo)
        first = len(quadratures)
        assert first == len(set(quadratures)) == len(memo)
        profile_analytic(spec, PAPER_MACHINES[0], memo)
        assert len(quadratures) == first


class TestScope:
    def test_fresh_profilers_share_no_entries(self):
        first, second = Profiler(), Profiler()
        first.profile("505.mcf_r", "skylake-i7-6700")
        assert first.quadrature_memo
        assert second.quadrature_memo == {}
        assert first.quadrature_memo is not second.quadrature_memo

    def test_clear_cache_empties_the_memo(self):
        profiler = Profiler()
        profiler.profile("505.mcf_r", "skylake-i7-6700")
        profiler.clear_cache()
        assert profiler.quadrature_memo == {}

    def test_serial_sweep_fills_the_profilers_memo(self):
        profiler = Profiler()
        profiler.profile_many(["505.mcf_r"], PAPER_MACHINE_NAMES)
        assert profiler.quadrature_memo

    def test_fresh_report_pass_carries_nothing_over(self, tmp_path, quadratures):
        from repro.reporting.report import generate_report

        all_workloads()  # registry calibration is not part of a pass
        quadratures.clear()
        generate_report(tmp_path / "first.md", profiler=Profiler())
        first = len(quadratures)
        quadratures.clear()
        generate_report(tmp_path / "second.md", profiler=Profiler())
        assert first > 0
        assert len(quadratures) == first
        assert (tmp_path / "first.md").read_bytes() == (
            tmp_path / "second.md"
        ).read_bytes()

    def test_pool_chunks_match_the_serial_sweep(self):
        names = [s.name for s in workloads_in_suite(Suite.SPEC2017_RATE_INT)]
        serial = build_feature_matrix(names, profiler=Profiler(), jobs=1)
        pooled = build_feature_matrix(names, profiler=Profiler(), jobs=2)
        assert serial.features == pooled.features
        assert np.array_equal(serial.values, pooled.values)
        assert serial.digest() == pooled.digest()


class TestObservability:
    def test_counters_tally_hits_and_misses(self, obs_on):
        spec = all_workloads()[0]
        machine = PAPER_MACHINES[0]
        memo: dict = {}
        profile_analytic(spec, machine, memo)
        counters = obs_metrics.snapshot()["counters"]
        misses = counters["analytic.memo.miss"]
        assert misses == len(memo)
        lookups = misses + counters.get("analytic.memo.hit", 0.0)
        profile_analytic(spec, machine, memo)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["analytic.memo.miss"] == misses
        assert counters["analytic.memo.hit"] == 2 * lookups - misses

    def test_counters_move_once_per_call(self, obs_on, monkeypatch):
        names = []
        original = obs_metrics.incr

        def recording(name, amount=1.0):
            names.append(name)
            original(name, amount)

        monkeypatch.setattr(obs_metrics, "incr", recording)
        profile_analytic(all_workloads()[0], PAPER_MACHINES[0], {})
        assert names.count("analytic.memo.hit") == 1
        assert names.count("analytic.memo.miss") == 1

    def test_no_memo_no_counters(self, obs_on):
        profile_analytic(all_workloads()[0], PAPER_MACHINES[0], None)
        counters = obs_metrics.snapshot()["counters"]
        assert "analytic.memo.hit" not in counters
        assert "analytic.memo.miss" not in counters
