"""Shared property-testing harness for the bit-identity parity suites.

The repo's performance contract is *bit-identity*: every fast path
(batch kernels, geometry-shared traces, fused multi-machine replay)
must produce exactly the results of the scalar per-access oracle, not
merely statistically similar ones.  Three suites enforce that contract
— ``test_kernel_parity.py`` (batch kernels vs. scalar simulators),
``test_trace_cache.py`` (trace identity and sharing) and
``test_fused_replay.py`` (fused replay vs. the scalar oracle) — and
they all need the same machinery:

* **seeded generators** (stdlib :mod:`random`, never global state) for
  cache/TLB/predictor geometries, machine configs sampled *around* the
  Table IV machines, and workload specs perturbed over their
  locality/branch profiles, so failures replay deterministically from
  the printed seed;
* **comparators** that check *state*, not just statistics: full tag
  arrays, stamps, dirty bits, predictor counter tables, trace arrays,
  and canonical report digests.

This module is the single home for both.  It is a plain helper module
(no ``test_`` prefix), imported by the suites; keeping one copy means a
new fast path gets the whole harness — and the harness gets every
hardening fix exactly once.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.perf.diskcache import canonical_encoding
from repro.uarch.branch import PredictorSpec
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.machine import MachineConfig, paper_machines
from repro.uarch.tlb import TlbConfig
from repro.workloads.spec import WorkloadSpec, all_workloads

#: Predictor kinds understood by build_predictor, in registry order.
PREDICTOR_KINDS = ("static", "bimodal", "gshare", "tournament")

#: Warm-up fractions exercised by the property suites (0.0 = count
#: everything; 0.5 = the paper-style half-warm split).
WARMUP_FRACTIONS = (0.0, 0.1, 0.25, 0.5)


# ---------------------------------------------------------------------------
# deterministic seeding
# ---------------------------------------------------------------------------


def stable_seed(*parts: object) -> int:
    """A process-invariant 63-bit seed derived from ``parts``.

    Never ``hash()``: string hashing is randomized per process, which
    would make a property-test failure unreproducible.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(*parts: object) -> random.Random:
    """A dedicated stdlib generator seeded from ``parts``."""
    return random.Random(stable_seed(*parts))


# ---------------------------------------------------------------------------
# config generators
# ---------------------------------------------------------------------------


def sample_policy(rnd: random.Random) -> ReplacementPolicy:
    """A uniformly random replacement policy."""
    return rnd.choice(list(ReplacementPolicy))


def sample_cache_config(
    rnd: random.Random,
    line_bytes: Optional[int] = None,
    policy: Optional[ReplacementPolicy] = None,
) -> CacheConfig:
    """A small random cache geometry (incl. non-power-of-two set counts).

    Small on purpose: tiny caches conflict and evict constantly, which
    is exactly where replacement-state divergence would show.
    """
    associativity = rnd.choice([1, 2, 4, 8])
    line = line_bytes if line_bytes is not None else rnd.choice([32, 64])
    sets = rnd.choice([2, 3, 4, 6, 8, 16])
    return CacheConfig(
        size_bytes=line * associativity * sets,
        line_bytes=line,
        associativity=associativity,
        policy=policy if policy is not None else sample_policy(rnd),
    )


def sample_tlb_config(
    rnd: random.Random, page_bytes: int = 4096
) -> TlbConfig:
    """A small random TLB geometry (associativity divides entries)."""
    associativity = rnd.choice([2, 4, 8])
    entries = associativity * rnd.choice([2, 4, 8, 16])
    return TlbConfig(
        entries=entries, associativity=associativity, page_bytes=page_bytes
    )


def sample_predictor_spec(rnd: random.Random) -> PredictorSpec:
    """A random predictor over every kind and a range of table sizes."""
    return PredictorSpec(
        kind=rnd.choice(PREDICTOR_KINDS),
        strength=round(rnd.uniform(0.5, 0.99), 3),
        table_entries=rnd.choice([64, 256, 1024, 4096]),
    )


def _scale_cache(
    rnd: random.Random, config: CacheConfig, vary_policy: bool = False
) -> CacheConfig:
    """Resize a cache around its Table IV geometry, keeping it valid.

    With ``vary_policy`` the replacement policy is redrawn as well.
    """
    factor = rnd.choice([0.5, 1.0, 2.0])
    associativity = rnd.choice([config.associativity, 2, 4])
    quantum = config.line_bytes * associativity
    size = max(quantum, int(config.size_bytes * factor) // quantum * quantum)
    policy = sample_policy(rnd) if vary_policy else config.policy
    return replace(
        config, size_bytes=size, associativity=associativity, policy=policy
    )


def _scale_tlb(rnd: random.Random, config: TlbConfig) -> TlbConfig:
    """Resize a TLB around its Table IV geometry, keeping it valid."""
    factor = rnd.choice([0.5, 1.0, 2.0])
    entries = max(
        config.associativity,
        int(config.entries * factor)
        // config.associativity
        * config.associativity,
    )
    return replace(config, entries=entries)


def sample_machine(
    rnd: random.Random,
    base: Optional[MachineConfig] = None,
    vary_policy: bool = False,
) -> MachineConfig:
    """A machine sampled *around* one of the Table IV machines.

    Every structural knob (cache sizes/ways, TLB entries, predictor
    kind/table, memory latency) is perturbed, but the trace-shaping
    geometry — ``(line_bytes, page_bytes)`` — is inherited from the
    base so sampled machines keep sharing traces the way the paper
    machines do.  ``vary_policy`` also redraws every cache level's
    replacement policy (the paper machines are all LRU).
    """
    base = base if base is not None else rnd.choice(paper_machines())
    changes = {
        "name": f"{base.name}+prop{rnd.randrange(1 << 16)}",
        "l1i": _scale_cache(rnd, base.l1i, vary_policy),
        "l1d": _scale_cache(rnd, base.l1d, vary_policy),
        "l2": _scale_cache(rnd, base.l2, vary_policy),
        "itlb": _scale_tlb(rnd, base.itlb),
        "dtlb": _scale_tlb(rnd, base.dtlb),
        "predictor": replace(
            sample_predictor_spec(rnd),
            mispredict_penalty=base.predictor.mispredict_penalty,
        ),
        "latencies": replace(
            base.latencies,
            memory=base.latencies.memory * rnd.uniform(0.8, 1.25),
        ),
    }
    if base.l3 is not None:
        changes["l3"] = _scale_cache(rnd, base.l3, vary_policy)
    if base.l2tlb is not None:
        changes["l2tlb"] = _scale_tlb(rnd, base.l2tlb)
    return replace(base, **changes)


def sample_machine_batch(
    rnd: random.Random,
    size: int,
    base: Optional[MachineConfig] = None,
    vary_policy: bool = False,
) -> List[MachineConfig]:
    """A geometry-sharing batch of ``size`` machines around one base.

    This is the fused-replay input shape: one trace, many machines with
    equal ``(line_bytes, page_bytes)`` — including occasional exact
    duplicates, which exercise the memoized simulation paths.
    """
    base = base if base is not None else rnd.choice(paper_machines())
    machines = [sample_machine(rnd, base, vary_policy) for _ in range(size)]
    if size > 1 and rnd.random() < 0.3:
        machines[-1] = machines[0]  # duplicate config in one batch
    return machines


def sample_workload(rnd: random.Random) -> WorkloadSpec:
    """A real workload spec perturbed over its locality/branch profiles.

    Perturbing (rather than fabricating) keeps the sampled traces in
    the regime the models were built for while still varying page
    locality, streaming cold mass and branch bias.
    """
    spec = rnd.choice(all_workloads())
    branches = replace(
        spec.branches,
        taken_fraction=min(
            0.95,
            max(0.05, spec.branches.taken_fraction * rnd.uniform(0.8, 1.2)),
        ),
    )
    data_reuse = replace(
        spec.data_reuse,
        cold_fraction=min(
            0.9, spec.data_reuse.cold_fraction * rnd.uniform(0.5, 1.5)
        ),
    )
    return replace(
        spec,
        branches=branches,
        data_reuse=data_reuse,
        data_page_factor=min(
            64.0,
            max(1.0, spec.data_page_factor * rnd.choice([0.5, 1.0, 2.0])),
        ),
    )


def sample_warmup(rnd: random.Random) -> float:
    """One of the exercised warm-up fractions."""
    return rnd.choice(WARMUP_FRACTIONS)


def sample_window(rnd: random.Random) -> int:
    """A trace window length in the 1k–5k property-test range."""
    return rnd.choice([1_000, 2_000, 3_000, 5_000])


# ---------------------------------------------------------------------------
# state comparators
# ---------------------------------------------------------------------------


def assert_cache_states_equal(vec, ref) -> None:
    """Full-state equality of two cache chains (not just statistics)."""
    assert np.array_equal(vec._tags, ref._tags)
    assert np.array_equal(vec._dirty, ref._dirty)
    assert np.array_equal(vec._stamp, ref._stamp)
    assert vec._clock == ref._clock
    assert vars(vec.stats) == vars(ref.stats)


def assert_predictor_states_equal(vec, ref) -> None:
    """Counter-table/chooser/history equality of two predictors."""
    for attr in ("_counters", "_chooser", "_history"):
        if hasattr(ref, attr):
            a, b = getattr(vec, attr), getattr(ref, attr)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b
    if hasattr(ref, "_bimodal"):  # tournament internals
        assert np.array_equal(vec._bimodal._counters, ref._bimodal._counters)
        assert np.array_equal(vec._gshare._counters, ref._gshare._counters)
        assert vec._gshare._history == ref._gshare._history


def trace_arrays(trace) -> Tuple[np.ndarray, ...]:
    """The five arrays that constitute a synthesized trace."""
    return (
        trace.data_addresses,
        trace.data_is_store,
        trace.ifetch_addresses,
        trace.branch_sites,
        trace.branch_taken,
    )


def traces_equal(a, b) -> bool:
    """Bit-identity of two traces (every array, every element)."""
    return all(
        np.array_equal(x, y) for x, y in zip(trace_arrays(a), trace_arrays(b))
    )


def report_digest(report) -> str:
    """Canonical content digest of one :class:`CounterReport`.

    Uses the disk cache's canonical encoding, so two reports share a
    digest iff every field — metrics, CPI stack, power, instruction
    count — is bit-identical (floats encode via ``repr``).
    """
    encoded = json.dumps(
        canonical_encoding(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


def assert_reports_identical(got, want, context: str = "") -> None:
    """Bit-identity of two reports, with a digest cross-check.

    Field comparisons fail first (they name the diverging metric);
    the digest comparison then guarantees nothing escaped them.
    """
    label = f" [{context}]" if context else ""
    assert got.workload == want.workload, label
    assert got.machine == want.machine, label
    assert got.metrics == want.metrics, f"metrics diverge{label}"
    assert got.cpi_stack == want.cpi_stack, f"cpi_stack diverges{label}"
    assert got.instructions == want.instructions, label
    assert report_digest(got) == report_digest(want), label
