"""Bit-identity parity suite for the batch simulation kernels.

The contract (DESIGN.md, "Batch simulation kernels"): the kernels in
:mod:`repro.uarch.kernels` and the shared passes of
:mod:`repro.uarch.fused` are **bit-identical** to the scalar per-access
simulators — same per-access outcomes and miss counts, same warm-up
cut semantics, and (for ``_simulate_level`` and the predictors) the
same final structure state and RANDOM-policy RNG draws.

The property-based classes drive both implementations over seeded
randomized geometries and streams from the shared :mod:`tests.parity`
harness (stdlib ``random`` via :func:`tests.parity.rng_for`, hash-based
seeds, so failures replay deterministically across processes) and
compare *everything*, not just the returned arrays.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tests.parity import (
    assert_cache_states_equal,
    assert_predictor_states_equal,
    rng_for,
    sample_cache_config,
    sample_predictor_spec,
    sample_tlb_config,
)

from repro.errors import ConfigurationError
from repro.perf.diskcache import cache_key
from repro.perf.profiler import Profiler
from repro.perf.trace_engine import profile_trace
from repro.uarch.branch import PredictorSpec, build_predictor
from repro.uarch.cache import (
    Cache,
    CacheConfig,
    ReplacementPolicy,
    build_hierarchy,
)
from repro.uarch.fused import (
    _lru_miss_streams,
    _set_partition,
    _simulate_cache_levels,
    _tlb_counts,
)
from repro.uarch.kernels import (
    TRACE_KERNELS,
    _simulate_level,
    default_trace_kernel,
    resolve_trace_kernel,
    validate_trace_kernel,
)
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine
from repro.uarch.tlb import TlbConfig, TlbHierarchy
from repro.workloads.spec import get_workload


def _scalar_chain_misses(configs, addrs, writes, cut):
    """Per-level post-cut demand misses of the scalar access loop."""
    chain = build_hierarchy(configs)
    for i, a in enumerate(addrs.tolist()):
        if i == cut:
            for level in chain:
                level.stats.reset()
        chain[0].access(
            a, is_write=bool(writes[i]) if writes is not None else False
        )
    return [level.stats.misses for level in chain]


class TestCacheParity:
    """Fused cache-level replay vs. the scalar access loop.

    Fused replay counts per-level post-cut misses of whole cache chains
    (LRU levels by stack depth, FIFO/RANDOM levels through the exact
    ``_simulate_level`` kernel); both must match the scalar chain, and
    ``_simulate_level`` must also leave the scalar final state.
    """

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_randomized_chains(self, policy):
        rnd = rng_for("cache-parity", policy.value)
        for trial in range(16):
            # Several chains per call: equal-geometry prefixes share
            # passes and split where the chains diverge.
            chains = [
                [
                    sample_cache_config(rnd, policy=policy)
                    for _ in range(rnd.choice([1, 2, 3]))
                ]
                for _ in range(rnd.choice([1, 2, 3]))
            ]
            if len(chains) > 1 and rnd.random() < 0.5:
                chains[-1] = chains[0][:1] + chains[-1][1:]
            n = rnd.choice([0, 1, 7, 250, 600])
            addrs = np.array(
                [rnd.randrange(0, 1 << 14) for _ in range(n)], dtype=np.int64
            )
            # Fused replay is write-free: writes change dirty bits and
            # writebacks, never a demand hit or miss.
            writes = (
                np.array([rnd.random() < 0.3 for _ in range(n)], dtype=bool)
                if rnd.random() < 0.7
                else None
            )
            cut = rnd.choice([0, n // 3])
            out = [[] for _ in chains]
            _simulate_cache_levels(
                [(slot, list(configs)) for slot, configs in enumerate(chains)],
                addrs, None, cut, out,
            )
            for slot, configs in enumerate(chains):
                assert out[slot] == _scalar_chain_misses(
                    configs, addrs, writes, cut
                ), f"trial={trial} slot={slot}"

    @pytest.mark.parametrize(
        "policy", [ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM]
    )
    def test_simulate_level_matches_scalar_state(self, policy):
        rnd = rng_for("simulate-level-state", policy.value)
        for trial in range(16):
            config = sample_cache_config(rnd, policy=policy)
            seed = rnd.randrange(1 << 30)
            fast = Cache(config, rng=np.random.default_rng(seed))
            ref = Cache(config, rng=np.random.default_rng(seed))
            if rnd.random() < 0.5:
                # Pre-warm both identically (dirty lines included) so
                # initial residency is exercised, not just cold sets.
                for _ in range(60):
                    a = rnd.randrange(0, 1 << 14)
                    is_write = rnd.random() < 0.3
                    fast.access(a, is_write=is_write)
                    ref.access(a, is_write=is_write)
            n = rnd.choice([0, 1, 7, 250, 600])
            addrs = np.array(
                [rnd.randrange(0, 1 << 14) for _ in range(n)], dtype=np.int64
            )
            expected = [
                i for i, a in enumerate(addrs.tolist()) if not ref.access(a)
            ]
            got = _simulate_level(fast, addrs)
            assert got.tolist() == expected
            assert_cache_states_equal(fast, ref)
            # The RANDOM policy must also leave the generator at the
            # same stream position (same number of draws consumed).
            assert int(fast._rng.integers(0, 1 << 20)) == int(
                ref._rng.integers(0, 1 << 20)
            )

    def test_simulate_level_rejects_lru(self):
        config = CacheConfig(size_bytes=1024, line_bytes=64, associativity=2)
        with pytest.raises(ConfigurationError):
            _simulate_level(Cache(config), np.zeros(4, dtype=np.int64))

    def test_hit_array_matches_scalar_outcomes(self):
        # The LRU stack-depth pass yields exactly the scalar miss
        # positions, per access, for every associativity it serves.
        rnd = rng_for("cache-hit-array")
        addrs = np.array(
            [rnd.randrange(0, 1 << 12) for _ in range(300)], dtype=np.int64
        )
        lines = addrs >> 6
        order, bounds = _set_partition(lines, 8)
        misses = _lru_miss_streams(lines[order], order, bounds, [1, 2, 4])
        for assoc, got in misses.items():
            config = CacheConfig(
                size_bytes=64 * assoc * 8, line_bytes=64, associativity=assoc
            )
            (cache,) = build_hierarchy([config])
            expected = [
                i for i, a in enumerate(addrs.tolist()) if not cache.access(a)
            ]
            assert got.tolist() == expected, f"assoc={assoc}"


def _tlb_machine(l1, l2, unified):
    return replace(
        get_machine("skylake-i7-6700"),
        itlb=l1, dtlb=l1, l2tlb=l2, unified_l2tlb=unified,
    )


class TestTlbParity:
    """Fused TLB replay vs. the scalar translate loop."""

    @pytest.mark.parametrize("shape", ["no_l2", "unified", "split"])
    def test_randomized_hierarchies(self, shape):
        rnd = rng_for("tlb-parity", shape)
        for trial in range(12):
            l1 = sample_tlb_config(rnd)
            l2 = (
                None
                if shape == "no_l2"
                else TlbConfig(entries=128, associativity=8)
            )
            unified = shape == "unified"
            h = TlbHierarchy(itlb=l1, dtlb=l1, l2=l2, unified_l2=unified)
            n = rnd.choice([0, 5, 400])
            daddrs = np.array(
                [rnd.randrange(0, 1 << 30) for _ in range(n)], dtype=np.int64
            )
            # A second pass over the same pages exercises warm residency.
            daddrs = np.concatenate((daddrs, daddrs))
            iaddrs = np.array(
                [rnd.randrange(0, 1 << 30) for _ in range(n)], dtype=np.int64
            )
            for a in daddrs.tolist():
                h.translate_data(a)
            data_walks = h.page_walks
            for a in iaddrs.tolist():
                h.translate_inst(a)
            ((dtlb, d_walks, itlb, total_walks, last),) = _tlb_counts(
                [_tlb_machine(l1, l2, unified)], daddrs, iaddrs, 0, 0
            )
            assert (dtlb, d_walks, itlb, total_walks, last) == (
                h.dtlb.misses,
                data_walks,
                h.itlb.misses,
                h.page_walks,
                h.last_level_misses(),
            ), f"trial={trial}"

    def test_walks_flag_marks_last_level_misses(self):
        # Without an L2 TLB, every L1 miss walks.
        l1 = TlbConfig(entries=8, associativity=2)
        h = TlbHierarchy(itlb=l1, dtlb=l1, l2=None)
        addrs = np.arange(0, 64 << 12, 1 << 12, dtype=np.int64)
        for a in addrs.tolist():
            h.translate_data(a)
        empty = np.zeros(0, dtype=np.int64)
        ((dtlb, data_walks, _itlb, _total, _last),) = _tlb_counts(
            [_tlb_machine(l1, None, True)], addrs, empty, 0, 0
        )
        assert data_walks == dtlb == h.page_walks == 64


class TestPredictorParity:
    """predict_many vs. the scalar predict_and_update loop."""

    @pytest.mark.parametrize(
        "kind", ["static", "bimodal", "gshare", "tournament"]
    )
    def test_randomized_streams(self, kind):
        rnd = rng_for("predictor-parity", kind)
        for trial in range(12):
            spec = PredictorSpec(
                kind=kind,
                table_entries=sample_predictor_spec(rnd).table_entries,
            )
            pv = build_predictor(spec)
            ps = build_predictor(spec)
            n = rnd.choice([0, 3, 500])
            pcs = np.array(
                [rnd.randrange(0, 1 << 16) for _ in range(n)], dtype=np.int64
            )
            taken = np.array(
                [rnd.random() < 0.6 for _ in range(n)], dtype=bool
            )
            expected = np.array(
                [
                    ps.predict_and_update(int(p), bool(t))
                    for p, t in zip(pcs, taken)
                ],
                dtype=bool,
            )
            got = pv.predict_many(pcs, taken)
            assert np.array_equal(got, expected)
            assert_predictor_states_equal(pv, ps)

    def test_base_class_fallback_matches(self):
        # A predictor without a batch override must still work through
        # the scalar fallback of BranchPredictor.predict_many.
        spec = PredictorSpec(kind="bimodal", table_entries=64)
        pv = build_predictor(spec)
        ps = build_predictor(spec)
        pcs = np.arange(120, dtype=np.int64)
        taken = (pcs % 3 == 0).astype(bool)
        from repro.uarch.branch import BranchPredictor

        got = BranchPredictor.predict_many(pv, pcs, taken)
        expected = np.array(
            [ps.predict_and_update(int(p), bool(t)) for p, t in zip(pcs, taken)],
            dtype=bool,
        )
        assert np.array_equal(got, expected)
        assert np.array_equal(pv._counters, ps._counters)


class TestEngineParity:
    """profile_trace scalar vs. vector must agree metric-for-metric."""

    @pytest.mark.parametrize("machine", PAPER_MACHINE_NAMES)
    @pytest.mark.parametrize("warmup", [0.0, 0.25])
    def test_metrics_identical_across_machines(self, machine, warmup):
        spec = get_workload("505.mcf_r")
        config = get_machine(machine)
        scalar = profile_trace(
            spec,
            config,
            instructions=3_000,
            warmup_fraction=warmup,
            kernel="scalar",
        )
        vector = profile_trace(
            spec,
            config,
            instructions=3_000,
            warmup_fraction=warmup,
            kernel="vector",
        )
        assert scalar.metrics == vector.metrics
        assert scalar.cpi_stack == vector.cpi_stack
        assert scalar.instructions == vector.instructions

    def test_sweep_digest_identical(self):
        from repro.perf.dataset import build_feature_matrix

        workloads = ["505.mcf_r", "525.x264_r"]
        machines = PAPER_MACHINE_NAMES[:2]
        digests = {}
        for kernel in TRACE_KERNELS:
            profiler = Profiler(
                engine="trace", trace_instructions=2_000, trace_kernel=kernel
            )
            matrix = build_feature_matrix(
                workloads=workloads, machines=machines, profiler=profiler
            )
            digests[kernel] = matrix.digest()
        assert digests["scalar"] == digests["vector"]


class TestKernelKnob:
    """Selection, validation and cache keying of the kernel knob."""

    def test_validate_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            validate_trace_kernel("simd")
        with pytest.raises(ConfigurationError):
            resolve_trace_kernel("turbo")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_KERNEL", raising=False)
        assert default_trace_kernel() == "vector"
        assert resolve_trace_kernel(None) == "vector"
        monkeypatch.setenv("REPRO_TRACE_KERNEL", "scalar")
        assert default_trace_kernel() == "scalar"
        assert resolve_trace_kernel(None) == "scalar"
        # An explicit choice still beats the environment.
        assert resolve_trace_kernel("vector") == "vector"
        monkeypatch.setenv("REPRO_TRACE_KERNEL", "bogus")
        with pytest.raises(ConfigurationError):
            default_trace_kernel()

    def test_profiler_resolves_kernel(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_KERNEL", raising=False)
        assert Profiler(engine="trace").trace_kernel == "vector"
        assert (
            Profiler(engine="trace", trace_kernel="scalar").trace_kernel
            == "scalar"
        )
        monkeypatch.setenv("REPRO_TRACE_KERNEL", "scalar")
        assert Profiler(engine="trace").trace_kernel == "scalar"
        with pytest.raises(ConfigurationError):
            Profiler(engine="trace", trace_kernel="nope")

    def test_zero_instructions_rejected(self):
        spec = get_workload("505.mcf_r")
        config = get_machine(PAPER_MACHINE_NAMES[0])
        for kernel in TRACE_KERNELS:
            with pytest.raises(ConfigurationError):
                profile_trace(spec, config, instructions=0, kernel=kernel)
            with pytest.raises(ConfigurationError):
                profile_trace(spec, config, instructions=-5, kernel=kernel)
        with pytest.raises(ConfigurationError):
            Profiler(engine="trace", trace_instructions=0)

    def test_cache_key_distinguishes_trace_kernels_only(self):
        spec = get_workload("505.mcf_r")
        config = get_machine(PAPER_MACHINE_NAMES[0])
        trace_scalar = cache_key(
            spec, config, "trace", 1000, 1, trace_kernel="scalar"
        )
        trace_vector = cache_key(
            spec, config, "trace", 1000, 1, trace_kernel="vector"
        )
        assert trace_scalar != trace_vector
        # The analytic engine has no trace kernel: keys must not differ.
        analytic_scalar = cache_key(
            spec, config, "analytic", 1000, 1, trace_kernel="scalar"
        )
        analytic_vector = cache_key(
            spec, config, "analytic", 1000, 1, trace_kernel="vector"
        )
        assert analytic_scalar == analytic_vector

    def test_cli_flag_threads_into_profiler(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_KERNEL", raising=False)
        from repro.cli import _make_profiler, build_parser

        parser = build_parser()
        args = parser.parse_args(
            [
                "profile",
                "505.mcf_r",
                "--engine",
                "trace",
                "--trace-kernel",
                "scalar",
                "--no-disk-cache",
            ]
        )
        profiler = _make_profiler(args)
        assert profiler.trace_kernel == "scalar"
        args = parser.parse_args(
            ["profile", "505.mcf_r", "--engine", "trace", "--no-disk-cache"]
        )
        assert _make_profiler(args).trace_kernel == "vector"
