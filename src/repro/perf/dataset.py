"""Feature-matrix construction for the statistical analyses.

Section III of the paper treats each (performance counter, machine) pair
as one variable — 20 metrics x 7 machines = 140 features per benchmark
— then standardizes the matrix before PCA.  :class:`FeatureMatrix`
carries the matrix together with its row (workload) and column
(metric@machine) labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.obs.progress import progress as obs_progress
from repro.obs.trace import span
from repro.perf.counters import SIMILARITY_METRICS, Metric
from repro.perf.profiler import Profiler
from repro.uarch.machine import MachineConfig, PAPER_MACHINE_NAMES, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["FeatureMatrix", "build_feature_matrix"]


@dataclass(frozen=True)
class FeatureMatrix:
    """A workloads x features matrix with labels.

    Attributes
    ----------
    values:
        Raw (unstandardized) feature values, shape ``(n_workloads,
        n_features)``.
    workloads:
        Row labels (workload names).
    features:
        Column labels, ``"<metric>@<machine>"``.
    """

    values: np.ndarray
    workloads: Tuple[str, ...]
    features: Tuple[str, ...]

    def __post_init__(self) -> None:
        rows, cols = self.values.shape
        if rows != len(self.workloads) or cols != len(self.features):
            raise AnalysisError(
                f"matrix shape {self.values.shape} does not match labels "
                f"({len(self.workloads)} workloads, {len(self.features)} features)"
            )

    @property
    def n_workloads(self) -> int:
        return len(self.workloads)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def digest(self) -> str:
        """SHA-256 over labels and raw value bytes.

        Two matrices have equal digests iff workloads, features and
        every float bit pattern match — the byte-identity check used by
        the parallel-determinism tests and ``repro dataset``.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update("\x00".join(self.workloads).encode())
        digest.update(b"\x01")
        digest.update("\x00".join(self.features).encode())
        digest.update(b"\x01")
        digest.update(np.ascontiguousarray(self.values, dtype=float).tobytes())
        return digest.hexdigest()

    def standardized(self) -> np.ndarray:
        """Z-scored copy; zero-variance columns become all-zero."""
        mean = self.values.mean(axis=0)
        std = self.values.std(axis=0)
        safe = np.where(std > 0.0, std, 1.0)
        return (self.values - mean) / safe

    def row(self, workload: str) -> np.ndarray:
        """The raw feature vector of one workload."""
        try:
            index = self.workloads.index(workload)
        except ValueError:
            raise AnalysisError(f"workload {workload!r} not in matrix") from None
        return self.values[index]

    def subset(self, workloads: Sequence[str]) -> "FeatureMatrix":
        """A new matrix restricted to the given workloads, in order."""
        indices = []
        for name in workloads:
            try:
                indices.append(self.workloads.index(name))
            except ValueError:
                raise AnalysisError(f"workload {name!r} not in matrix") from None
        return FeatureMatrix(
            values=self.values[indices],
            workloads=tuple(workloads),
            features=self.features,
        )

    def select_metrics(self, metrics: Sequence[Metric]) -> "FeatureMatrix":
        """A new matrix keeping only columns for the given metrics."""
        wanted = {metric.value for metric in metrics}
        keep = [
            j
            for j, feature in enumerate(self.features)
            if feature.split("@", 1)[0] in wanted
        ]
        if not keep:
            raise AnalysisError("no matching feature columns")
        return FeatureMatrix(
            values=self.values[:, keep],
            workloads=self.workloads,
            features=tuple(self.features[j] for j in keep),
        )


def build_feature_matrix(
    workloads: Iterable[Union[str, WorkloadSpec]],
    machines: Optional[Iterable[Union[str, MachineConfig]]] = None,
    metrics: Sequence[Metric] = SIMILARITY_METRICS,
    profiler: Optional[Profiler] = None,
    jobs: int = 1,
    profile: str = "off",
) -> FeatureMatrix:
    """Profile workloads on machines and assemble the feature matrix.

    Defaults to the paper's setup: the Table III similarity metrics on
    the seven Table IV machines.

    With ``jobs > 1`` the profiling sweep fans out over ``jobs`` worker
    processes (:mod:`repro.perf.executor`).  The matrix is assembled
    from the per-pair reports in input order and each report is
    deterministic, so the result is bit-identical to the serial build
    for any worker count.  ``profile`` forwards the ``--profile``
    resource mode to pool workers (observability only; never changes
    the matrix).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    specs = [
        get_workload(w) if isinstance(w, str) else w for w in workloads
    ]
    if not specs:
        raise AnalysisError("need at least one workload")
    machine_configs = [
        get_machine(m) if isinstance(m, str) else m
        for m in (machines if machines is not None else PAPER_MACHINE_NAMES)
    ]
    if not machine_configs:
        raise AnalysisError("need at least one machine")
    profiler = profiler or Profiler()

    features = tuple(
        f"{metric.value}@{machine.name}"
        for machine in machine_configs
        for metric in metrics
    )
    rows = np.empty((len(specs), len(features)), dtype=float)
    with span(
        "dataset.build_matrix",
        workloads=len(specs),
        machines=len(machine_configs),
        features=len(features),
        jobs=jobs,
        engine=profiler.engine,
        kernel=profiler.trace_kernel,
    ):
        if jobs > 1:
            from repro.perf.executor import ProfilingExecutor

            pairs = [
                (spec, machine)
                for spec in specs
                for machine in machine_configs
            ]
            executor = ProfilingExecutor(profiler, jobs=jobs, profile=profile)
            reports = executor.run(pairs, progress_label="dataset.sweep")

            def report_for(i: int, j: int):
                return reports[i * len(machine_configs) + j]

        else:
            ticker = obs_progress(
                "dataset.sweep", total=len(specs) * len(machine_configs)
            )

            def report_for(i: int, j: int):
                report = profiler.profile(specs[i], machine_configs[j])
                ticker.advance()
                return report

        for i in range(len(specs)):
            row: List[float] = []
            for j in range(len(machine_configs)):
                report = report_for(i, j)
                row.extend(
                    report.metrics.get(metric, 0.0) for metric in metrics
                )
            rows[i] = row
    return FeatureMatrix(
        values=rows,
        workloads=tuple(spec.name for spec in specs),
        features=features,
    )
