"""Per-layer tracing of the benchmark, done entirely from outside ``src/``.

``LAYERS`` is the single table that maps every per-layer metric to the
public functions it wraps.  :func:`installed` patches each listed
function (module attribute, every ``from ... import`` copy held by a
``repro`` or benchmark module, or the class attribute of a method) with a
timing wrapper and restores the originals on exit.  A wrapped name that
no longer exists fails the traced run at install time; a wrapped name
that a workload is expected to call but never does fails it in
:func:`check_expected`.

Timing model.  Every wrapped call is a span.  A layer's ``busy`` time is
the duration of its outermost calls; its ``self`` time is that minus the
time spent in nested calls of wrapped functions, so self times over all
layers partition the covered part of a pass and ``1 - sum(self) / wall``
is the share no named layer covers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_BENCH_DIR = str(Path(__file__).resolve().parent)

REPORT = "report"
DATASET = "trace-dataset"
CAMPAIGN = "campaign"
APPEND = "append"
ALL = frozenset({REPORT, DATASET, CAMPAIGN, APPEND})


class ProbeError(RuntimeError):
    """The layer table no longer matches the program."""


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


@dataclass
class Trace:
    """What one traced phase recorded."""

    layers: Dict[str, LayerStats] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    sums: Dict[str, float] = field(default_factory=dict)
    keys: Dict[str, object] = field(default_factory=dict)

    def layer(self, name: str) -> LayerStats:
        return self.layers.get(name) or LayerStats()

    def add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def covered_s(self) -> float:
        return sum(stats.self_time for stats in self.layers.values())


# ---------------------------------------------------------------------------
# hooks: per-call work counts, recorded where the work happens
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _analytic_key(trace: Trace, args, kwargs, result) -> None:
    # Fingerprint each spec/machine object once per phase; the memo holds
    # the object so its id cannot be reused while the trace lives.
    from repro.perf.diskcache import content_fingerprint

    memo = trace.keys.setdefault("fingerprints", {})
    key = []
    for value in (_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "machine")):
        entry = memo.get(id(value))
        if entry is None:
            entry = memo[id(value)] = (value, content_fingerprint(value))
        key.append(entry[1])
    trace.keys.setdefault("analytic", set()).add(tuple(key))


def _fitted(trace: Trace, args, kwargs, result) -> None:
    # Specs without a published CPI come back unfitted.
    spec = _arg(args, kwargs, 0, "spec")
    trace.add("calibration.fits", 1.0 if spec.reference_cpi is not None else 0.0)


def _lookup_hit(trace: Trace, args, kwargs, result) -> None:
    trace.add("profiler.hits", 1.0 if result is not None else 0.0)


def _synthesized(trace: Trace, args, kwargs, result) -> None:
    trace.add("synthesis.minstr", result.instructions / 1e6)


def _replayed(trace: Trace, args, kwargs, result) -> None:
    trace.add("replay.machines", len(_arg(args, kwargs, 0, "machines")))


def _executor_tasks(trace: Trace, args, kwargs, result) -> None:
    trace.add("executor.tasks", len(_arg(args, kwargs, 1, "pairs")))


def _rows_written(trace: Trace, args, kwargs, result) -> None:
    trace.add("campaign_store.bytes", _arg(args, kwargs, 2, "values").nbytes)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One wrapped public function: ``module:qualname``."""

    ref: str
    expect: frozenset
    hook: Optional[Callable] = None


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    #: metric name -> (unit, value of the metric given the phase's Trace)
    metrics: Dict[str, Tuple[str, Callable[[Trace], float]]]
    #: "setup" layers are read from the traced set-up, the rest per pass.
    phase: str = "pass"


def _calls(layer: str) -> Callable[[Trace], float]:
    return lambda trace: float(trace.layer(layer).calls)


def _busy(layer: str) -> Callable[[Trace], float]:
    return lambda trace: trace.layer(layer).busy


def _self(layer: str) -> Callable[[Trace], float]:
    return lambda trace: trace.layer(layer).self_time


def _ratio(numerator: Callable[[Trace], float],
           denominator: Callable[[Trace], float]) -> Callable[[Trace], float]:
    """``numerator / denominator``, 0 where the layer did no work."""

    def value(trace: Trace) -> float:
        base = denominator(trace)
        return numerator(trace) / base if base else 0.0

    return value


def _count(ref: str) -> Callable[[Trace], float]:
    return lambda trace: float(trace.counts.get(ref, 0))


def _sum(key: str) -> Callable[[Trace], float]:
    return lambda trace: trace.sums.get(key, 0.0)


def _t(ref: str, expect, hook=None) -> Target:
    return Target(ref, frozenset(expect), hook)


def _core(name: str, module: str, function: str) -> "Layer":
    return Layer(
        name,
        (_t(f"repro.core.{module}:{function}", {REPORT}),),
        {f"{name}.self_s": ("s", _self(name))},
    )


_LOOKUP = "repro.perf.profiler:Profiler.lookup"
_REFACTORIZE = "repro.stats.incremental:IncrementalPca.refactorize"
_ENGINE_APPEND = "repro.core.feature_store:AnalysisEngine.append"

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "calibration",
        (_t("repro.workloads.calibration:calibrate_spec", ALL, _fitted),),
        {
            "calibration.fits": ("count", _sum("calibration.fits")),
            "calibration.busy_s": ("s", _busy("calibration")),
        },
        phase="setup",
    ),
    Layer(
        "analytic",
        (_t("repro.perf.analytic:profile_analytic", {REPORT, APPEND},
            _analytic_key),),
        {
            "analytic.calls": ("count", _calls("analytic")),
            "analytic.busy_s": ("s", _busy("analytic")),
            "analytic.distinct_ratio": (
                "ratio",
                _ratio(lambda t: float(len(t.keys.get("analytic", ()))),
                       _calls("analytic")),
            ),
        },
    ),
    Layer(
        "profiler",
        (
            _t("repro.perf.profiler:Profiler.profile", {REPORT, DATASET, APPEND}),
            _t(_LOOKUP, ALL, _lookup_hit),
        ),
        {
            "profiler.requests": ("count", _count(_LOOKUP)),
            "profiler.hit_ratio": (
                "ratio", _ratio(_sum("profiler.hits"), _count(_LOOKUP))),
        },
    ),
    Layer(
        "dataset",
        (_t("repro.perf.dataset:build_feature_matrix",
            {REPORT, DATASET, APPEND}),),
        {
            "dataset.calls": ("count", _calls("dataset")),
            "dataset.self_s": ("s", _self("dataset")),
        },
    ),
    _core("similarity", "similarity", "analyze_similarity"),
    Layer(
        "subsetting",
        (
            _t("repro.core.subsetting:subset_suite", {REPORT}),
            _t("repro.core.subsetting:select_subset", {REPORT}),
        ),
        {"subsetting.self_s": ("s", _self("subsetting"))},
    ),
    _core("validation", "validation", "validate_subset"),
    _core("inputsets", "inputsets", "analyze_input_sets"),
    _core("balance", "balance", "analyze_balance"),
    _core("power", "power_analysis", "analyze_power_spectrum"),
    _core("casestudies", "casestudies", "analyze_case_studies"),
    Layer(
        "pca",
        (
            _t("repro.stats.pca:fit_pca", {REPORT, CAMPAIGN, APPEND}),
            _t(_REFACTORIZE, {CAMPAIGN, APPEND}),
        ),
        {
            "pca.calls": ("count", _calls("pca")),
            "pca.busy_s": ("s", _busy("pca")),
        },
    ),
    Layer(
        "cluster",
        (
            _t("repro.stats.cluster:linkage_matrix", {REPORT}),
            _t("repro.stats.cluster:cut_into_clusters", {REPORT}),
            _t("repro.stats.cluster:representatives", {REPORT}),
        ),
        {"cluster.busy_s": ("s", _busy("cluster"))},
    ),
    Layer(
        "kmeans",
        (
            _t("repro.stats.kmeans:kmeans", {CAMPAIGN}),
            _t("repro.stats.incremental:IncrementalKMeans.update", {APPEND}),
        ),
        {"kmeans.busy_s": ("s", _busy("kmeans"))},
    ),
    Layer(
        "synthesis",
        (_t("repro.workloads.synthesis:synthesize_trace", {DATASET, CAMPAIGN},
            _synthesized),),
        {
            "synthesis.calls": ("count", _calls("synthesis")),
            "synthesis.busy_s": ("s", _busy("synthesis")),
            "synthesis.minstr": ("Minstr", _sum("synthesis.minstr")),
        },
    ),
    Layer(
        "trace_cache",
        (_t("repro.perf.trace_cache:TraceCache.get_or_synthesize",
            {DATASET, CAMPAIGN}),),
        {
            # Read from the cache's own always-live counters at pass end.
            "trace_cache.hit_ratio": ("ratio", _sum("trace_cache.hit_ratio")),
            "trace_cache.resident_mb": ("MB", _sum("trace_cache.resident_mb")),
        },
    ),
    Layer(
        "trace_engine",
        (
            _t("repro.perf.trace_engine:profile_trace", {DATASET}),
            _t("repro.perf.trace_engine:profile_trace_batch",
               {DATASET, CAMPAIGN}),
        ),
        {"trace_engine.self_s": ("s", _self("trace_engine"))},
    ),
    Layer(
        "replay",
        (_t("repro.uarch.fused:replay_fused", {DATASET, CAMPAIGN}, _replayed),),
        {
            "replay.calls": ("count", _calls("replay")),
            # replay_fused receives synthesized streams, so this is
            # replay alone, synthesis excluded.
            "replay.busy_s": ("s", _busy("replay")),
            "replay.machines_per_call": (
                "count", _ratio(_sum("replay.machines"), _calls("replay"))),
        },
    ),
    Layer(
        "executor",
        (_t("repro.perf.executor:ProfilingExecutor.run", {CAMPAIGN},
            _executor_tasks),),
        {
            "executor.tasks": ("count", _sum("executor.tasks")),
            "executor.busy_s": ("s", _busy("executor")),
            # Filled from the jobs=1 and jobs=nproc campaign passes.
            "executor.parallel_efficiency": (
                "ratio", _sum("executor.parallel_efficiency")),
        },
    ),
    Layer(
        "generator",
        (_t("repro.campaign.generator:generate_machines", {CAMPAIGN}),),
        {"generator.busy_s": ("s", _busy("generator"))},
    ),
    Layer(
        "campaign_store.write",
        (_t("repro.campaign.store:CampaignStore.write_rows", {CAMPAIGN},
            _rows_written),),
        {
            "campaign_store.write_s": ("s", _busy("campaign_store.write")),
            "campaign_store.mb_written": (
                "MB", lambda t: t.sums.get("campaign_store.bytes", 0.0) / 2**20),
        },
    ),
    Layer(
        "campaign_store.seal",
        (_t("repro.campaign.store:CampaignStore.seal", {CAMPAIGN}),),
        {"campaign_store.seal_s": ("s", _busy("campaign_store.seal"))},
    ),
    Layer(
        "fold",
        (_t("repro.campaign.runner:CampaignRunner.fold", {CAMPAIGN}),),
        {"fold.busy_s": ("s", _busy("fold"))},
    ),
    Layer(
        "feature_store.open",
        (_t("repro.core.feature_store:FeatureMatrixStore.open",
            {CAMPAIGN, APPEND}),),
        {"feature_store.open_s": ("s", _busy("feature_store.open"))},
    ),
    Layer(
        "feature_store.append",
        (_t("repro.core.feature_store:FeatureMatrixStore.append_row",
            {CAMPAIGN, APPEND}),),
        {"feature_store.append_s": ("s", _busy("feature_store.append"))},
    ),
    Layer(
        "analysis.load",
        (_t("repro.core.feature_store:AnalysisEngine.__init__",
            {CAMPAIGN, APPEND}),),
        {"analysis.load_s": ("s", _busy("analysis.load"))},
    ),
    Layer(
        "analysis",
        (
            _t(_ENGINE_APPEND, {APPEND}),
            _t("repro.core.feature_store:AnalysisEngine.refresh",
               {CAMPAIGN, APPEND}),
        ),
        {
            "analysis.append_s": ("s", _self("analysis")),
            "analysis.refactorize_ratio": (
                "ratio", _ratio(_count(_REFACTORIZE), _count(_ENGINE_APPEND))),
            # From the pass gate: the final clustering against a cold
            # refit of the same store (1 = same partition and
            # representatives), and incremental / cold k-means inertia.
            "analysis.cold_match": ("ratio", _sum("analysis.cold_match")),
            "analysis.cold_inertia_ratio": (
                "ratio", _sum("analysis.cold_inertia_ratio")),
        },
    ),
    Layer(
        "analysis.save",
        (_t("repro.core.feature_store:AnalysisEngine.save", {CAMPAIGN, APPEND}),),
        {"analysis.save_s": ("s", _busy("analysis.save"))},
    ),
)

#: Metrics the benchmark itself adds to the layer table's.
BENCH_METRICS = {
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in table order."""
    units = {
        name: unit
        for layer in LAYERS
        for name, (unit, _value) in layer.metrics.items()
    }
    units.update(BENCH_METRICS)
    return units


def layer_metrics(trace: Trace, phase: str) -> Dict[str, float]:
    return {
        name: float(value(trace))
        for layer in LAYERS
        if layer.phase == phase
        for name, (_unit, value) in layer.metrics.items()
    }


def check_expected(trace: Trace, workload: str, phase: str) -> None:
    """Fail loudly when an expected wrapped name was never called."""
    missing = [
        target.ref
        for layer in LAYERS
        if layer.phase == phase
        for target in layer.targets
        if workload in target.expect and not trace.counts.get(target.ref)
    ]
    if missing:
        raise ProbeError(
            f"{workload}: wrapped functions never called during the traced "
            f"{phase}: {', '.join(missing)}"
        )


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Span stack + per-layer accounting for wrapped calls (one thread)."""

    def __init__(self) -> None:
        self.trace = Trace()
        self.active = False
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}

    def reset(self) -> Trace:
        """Start a fresh phase; returns the previous phase's trace."""
        previous, self.trace = self.trace, Trace()
        return previous

    def wrap(self, layer: str, target: Target, function: Callable) -> Callable:
        tracer = self
        ref = target.ref
        hook = target.hook

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            depth = tracer._depth
            stack = tracer._stack
            outermost = not depth.get(layer)
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                depth[layer] -= 1
                trace = tracer.trace
                stats = trace.layers.get(layer)
                if stats is None:
                    stats = trace.layers[layer] = LayerStats()
                stats.self_time += elapsed - frame[0]
                if outermost:
                    stats.calls += 1
                    stats.busy += elapsed
                if stack:
                    stack[-1][0] += elapsed
                trace.counts[ref] = trace.counts.get(ref, 0) + 1
            if hook is not None:
                hook(tracer.trace, args, kwargs, result)
            return result

        return wrapper


def _holders(original: Callable):
    """(module, attribute) pairs holding ``original`` in program or bench code."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        path = getattr(module, "__file__", "") or ""
        if not (name == "repro" or name.startswith("repro.")
                or path.startswith(_BENCH_DIR)):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                yield module, attribute


@contextmanager
def installed(tracer: Tracer, layers: Sequence[Layer] = LAYERS):
    """Wrap every target of ``layers`` for the duration of the block."""
    patches: List[Tuple[object, str, object]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                module_name, qualname = target.ref.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attribute = qualname.split(".")
                    owner = getattr(module, class_name, None)
                    raw = vars(owner).get(attribute) if owner else None
                    if raw is None:
                        raise ProbeError(f"wrapped name {target.ref} is missing")
                    if isinstance(raw, classmethod):
                        new = classmethod(tracer.wrap(layer.name, target, raw.__func__))
                    else:
                        new = tracer.wrap(layer.name, target, raw)
                    patches.append((owner, attribute, raw))
                    setattr(owner, attribute, new)
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    raise ProbeError(f"wrapped name {target.ref} is missing")
                wrapped = tracer.wrap(layer.name, target, original)
                for holder, attribute in list(_holders(original)):
                    patches.append((holder, attribute, original))
                    setattr(holder, attribute, wrapped)
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def executor_only() -> Tuple[Layer, ...]:
    """The executor row alone (the jobs=nproc efficiency passes)."""
    return tuple(layer for layer in LAYERS if layer.name == "executor")
