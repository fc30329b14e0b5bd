"""Closed-form profiling engine.

Evaluates a workload's statistical profiles against a machine's cache,
TLB and branch-predictor geometry to produce the Table III counter
metrics without synthesizing a trace.  The cache/TLB math uses the
reuse-distance miss-ratio model of
:meth:`repro.workloads.profiles.ReuseProfile.miss_ratio` (fully
associative LRU with a binomial set-occupancy correction); branches use
:meth:`repro.workloads.profiles.BranchProfile.mispredict_rate`.

ISA effects are modelled through ``MachineConfig.isa_path_factor``: a
RISC build of the same program executes more, simpler instructions, so
every per-instruction rate is renormalized to machine instructions.
That keeps the *event counts* (misses, walks, mispredictions) invariant
— they are properties of the algorithm — while the per-instruction
metrics become machine-dependent, exactly the bias the paper's
seven-machine methodology is designed to average out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.trace import instrument
from repro.perf.counters import CounterReport, Metric
from repro.uarch.machine import MachineConfig
from repro.uarch.pipeline import compute_cpi_stack
from repro.workloads.constants import AVERAGE_INSTRUCTION_BYTES, TAKEN_LINE_BREAK
from repro.workloads.spec import WorkloadSpec

__all__ = ["profile_analytic", "AVERAGE_INSTRUCTION_BYTES"]

# Backwards-compatible alias; the canonical definitions moved to
# repro.workloads.constants, shared with the trace synthesizer.
_TAKEN_LINE_BREAK = TAKEN_LINE_BREAK


@dataclass(frozen=True)
class _EventRates:
    """Per-x86-kilo-instruction event rates, before ISA renormalization."""

    mem_refs: float
    ifetch_lines: float
    branches: float
    taken: float


def _event_rates(spec: WorkloadSpec, line_bytes: int) -> _EventRates:
    mix = spec.mix
    branches = mix.branch * 1000.0
    taken = branches * spec.branches.taken_fraction
    sequential = 1000.0 * AVERAGE_INSTRUCTION_BYTES / line_bytes
    ifetch = sequential + _TAKEN_LINE_BREAK * taken
    return _EventRates(
        mem_refs=mix.memory * 1000.0,
        ifetch_lines=ifetch,
        branches=branches,
        taken=taken,
    )


def _monotone(*ratios: float) -> tuple:
    """Clamp a sequence of global miss ratios to be non-increasing."""
    result = []
    ceiling = 1.0
    for ratio in ratios:
        ratio = min(ratio, ceiling)
        result.append(ratio)
        ceiling = ratio
    return tuple(result)


@instrument("engine.analytic")
def profile_analytic(
    spec: WorkloadSpec,
    machine: MachineConfig,
    memo: Optional[Dict[tuple, float]] = None,
) -> CounterReport:
    """Profile one workload on one machine in closed form.

    ``memo`` is the caller's reuse-component quadrature memo (see
    :meth:`~repro.workloads.profiles.ReuseProfile.miss_ratio`); ``None``
    recomputes every quadrature.  The result is the same either way.
    """
    obs_metrics.incr("analytic.profiles")
    factor = machine.isa_path_factor
    rates = _event_rates(spec, machine.l1d.line_bytes)
    # Memo traffic is tallied locally and published once per call.
    lookups = 0
    memo_size = len(memo) if memo is not None else 0

    def miss_ratio(profile, capacity_blocks: float, associativity: int) -> float:
        nonlocal lookups
        if capacity_blocks > 0.0:
            lookups += len(profile.components)
        return profile.miss_ratio(capacity_blocks, associativity, memo)

    # ---- caches (global miss ratios, line granularity) -------------------
    data = spec.data_reuse
    inst = spec.inst_reuse
    l1d_ratio = miss_ratio(data, machine.l1d.num_lines, machine.l1d.associativity)
    l2d_ratio = miss_ratio(data, machine.l2.num_lines, machine.l2.associativity)
    if machine.l3 is not None:
        l3d_ratio = miss_ratio(data, machine.l3.num_lines, machine.l3.associativity)
    else:
        l3d_ratio = l2d_ratio
    l1d_ratio, l2d_ratio, l3d_ratio = _monotone(l1d_ratio, l2d_ratio, l3d_ratio)

    l1i_ratio = miss_ratio(inst, machine.l1i.num_lines, machine.l1i.associativity)
    l2i_ratio = miss_ratio(inst, machine.l2.num_lines, machine.l2.associativity)
    if machine.l3 is not None:
        l3i_ratio = miss_ratio(inst, machine.l3.num_lines, machine.l3.associativity)
    else:
        l3i_ratio = l2i_ratio
    l1i_ratio, l2i_ratio, l3i_ratio = _monotone(l1i_ratio, l2i_ratio, l3i_ratio)

    # Misses per x86 kilo-instruction.
    l1d = l1d_ratio * rates.mem_refs
    l2d = l2d_ratio * rates.mem_refs
    l3d = l3d_ratio * rates.mem_refs
    l1i = l1i_ratio * rates.ifetch_lines
    l2i = l2i_ratio * rates.ifetch_lines
    l3i = l3i_ratio * rates.ifetch_lines

    # ---- TLBs (page granularity) -----------------------------------------
    page_scale = machine.dtlb.page_bytes / 4096.0
    lines_per_page = machine.dtlb.page_bytes / machine.l1d.line_bytes
    dpage_factor = min(lines_per_page, spec.data_page_factor * page_scale)
    ipage_factor = min(lines_per_page, spec.inst_page_factor * page_scale)
    dpages = data.scaled(1.0 / dpage_factor)
    ipages = inst.scaled(1.0 / ipage_factor)

    dtlb_ratio = miss_ratio(dpages, machine.dtlb.entries, machine.dtlb.associativity)
    itlb_ratio = miss_ratio(ipages, machine.itlb.entries, machine.itlb.associativity)
    dtlb_misses = dtlb_ratio * rates.mem_refs          # per x86 KI
    itlb_misses = itlb_ratio * rates.ifetch_lines

    if machine.l2tlb is not None:
        l2tlb = machine.l2tlb
        dwalk_ratio = miss_ratio(dpages, l2tlb.entries, l2tlb.associativity)
        iwalk_ratio = miss_ratio(ipages, l2tlb.entries, l2tlb.associativity)
        dwalks = min(dtlb_misses, dwalk_ratio * rates.mem_refs)
        iwalks = min(itlb_misses, iwalk_ratio * rates.ifetch_lines)
        last_tlb_misses = dwalks + iwalks
    else:
        dwalks, iwalks = dtlb_misses, itlb_misses
        last_tlb_misses = dtlb_misses + itlb_misses

    if memo is not None:
        computed = len(memo) - memo_size
        obs_metrics.incr("analytic.memo.hit", lookups - computed)
        obs_metrics.incr("analytic.memo.miss", computed)

    # ---- branches ----------------------------------------------------------
    predictor = machine.predictor
    mispredict = spec.branches.mispredict_rate(
        predictor.strength, predictor.table_entries
    )
    branch_misses = mispredict * rates.branches        # per x86 KI

    # ---- renormalize everything to machine instructions -------------------
    def per_ki(x86_value: float) -> float:
        return x86_value / factor

    metrics: Dict[Metric, float] = {
        Metric.L1D_MPKI: per_ki(l1d),
        Metric.L1I_MPKI: per_ki(l1i),
        Metric.L2D_MPKI: per_ki(l2d),
        Metric.L2I_MPKI: per_ki(l2i),
        Metric.L3_MPKI: per_ki(l3d + l3i),
        Metric.L1_DTLB_MPMI: per_ki(dtlb_misses) * 1000.0,
        Metric.L1_ITLB_MPMI: per_ki(itlb_misses) * 1000.0,
        Metric.LAST_TLB_MPMI: per_ki(last_tlb_misses) * 1000.0,
        Metric.PAGE_WALKS_PMI: per_ki(dwalks + iwalks) * 1000.0,
        Metric.BRANCH_MPKI: per_ki(branch_misses),
        Metric.BRANCH_TAKEN_PKI: per_ki(rates.taken),
    }

    # Instruction-mix percentages on this machine: the extra RISC
    # instructions are integer ALU work.
    mix = spec.mix
    extra = factor - 1.0
    metrics[Metric.PCT_LOAD] = mix.load / factor * 100.0
    metrics[Metric.PCT_STORE] = mix.store / factor * 100.0
    metrics[Metric.PCT_BRANCH] = mix.branch / factor * 100.0
    metrics[Metric.PCT_FP] = mix.fp / factor * 100.0
    metrics[Metric.PCT_SIMD] = mix.simd / factor * 100.0
    metrics[Metric.PCT_INT] = (mix.int_alu + mix.other + extra) / factor * 100.0
    metrics[Metric.PCT_KERNEL] = mix.kernel * 100.0
    metrics[Metric.PCT_USER] = (1.0 - mix.kernel) * 100.0

    # ---- CPI stack ----------------------------------------------------------
    stack = compute_cpi_stack(
        width=machine.width,
        ilp=spec.ilp,
        mlp=spec.mlp,
        latencies=machine.latencies,
        mispredict_penalty=predictor.mispredict_penalty,
        l1d_mpki=metrics[Metric.L1D_MPKI],
        l2d_mpki=metrics[Metric.L2D_MPKI],
        l3_mpki=per_ki(l3d),
        l1i_mpki=metrics[Metric.L1I_MPKI],
        l2i_mpki=metrics[Metric.L2I_MPKI],
        branch_mpki=metrics[Metric.BRANCH_MPKI],
        dtlb_walks_pmi=per_ki(dwalks) * 1000.0,
        itlb_walks_pmi=per_ki(iwalks) * 1000.0,
    )
    metrics[Metric.CPI] = stack.total

    # ---- power ---------------------------------------------------------------
    power = None
    if machine.power is not None:
        power = machine.power.sample(
            frequency_ghz=machine.frequency_ghz,
            cpi=stack.total,
            fp_fraction=mix.fp / factor,
            simd_fraction=mix.simd / factor,
            llc_accesses_per_ki=per_ki(l2d + l2i),
            dram_accesses_per_ki=per_ki(l3d + l3i),
        )
        metrics[Metric.CORE_POWER_W] = power.core_watts
        metrics[Metric.LLC_POWER_W] = power.llc_watts
        metrics[Metric.DRAM_POWER_W] = power.dram_watts

    return CounterReport(
        workload=spec.name,
        machine=machine.name,
        metrics=metrics,
        cpi_stack=stack,
        power=power,
        instructions=spec.icount_billions * 1e9 * factor,
    )
