"""The four benchmark workloads, run in-process through the public API.

Each workload is prepared once (set-up) and then run as cold passes:
every pass gets fresh directories, a cleared process-wide trace cache and
a fresh ``Profiler`` (built by the program, as the CLI does).  The
calibrated workload registry is set-up and stays warm.

A pass is split in three: :meth:`Workload.begin` (untimed per-pass
preparation), :meth:`Workload.work` (the timed program call) and
:meth:`Workload.gate` (untimed output checks).  Why each workload was
chosen is in README.md.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign import CampaignConfig, CampaignRunner
from repro.campaign.runner import pair_digest
from repro.campaign.store import CampaignStore
from repro.core.feature_store import AnalysisEngine, FeatureMatrixStore
from repro.errors import AnalysisError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_cache import default_trace_cache
from repro.reporting.report import generate_report
from repro.stats.incremental import SCORE_TOLERANCE
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine
from repro.workloads.spec import Suite, all_workloads, workloads_in_suite

#: Trace length per (workload, machine) pair on the trace workloads.
TRACE_INSTRUCTIONS = 200_000

CAMPAIGN_MACHINES = 64
CAMPAIGN_WORKLOADS = (
    "505.mcf_r",
    "500.perlbench_r",
    "525.x264_r",
    "519.lbm_r",
    "557.xz_r",
    "502.gcc_r",
)
#: ``repro analyze init`` defaults for the append store.
APPEND_CLUSTERS = 3
APPEND_ANALYSIS_SEED = 2017


@dataclass
class PassResult:
    wall_s: float
    op_s: List[float]
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    #: Measured, ungated observations of the pass's output.
    notes: Dict[str, float] = field(default_factory=dict)


class Context:
    """Per-run state: the seed and a scratch area inside the checkout."""

    def __init__(self, seed: int, work: Path, jobs: int) -> None:
        self.seed = seed
        self.work = work
        self.jobs = jobs
        self._made = 0
        self._pending: List[Path] = []

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory, removed by the next :meth:`clean`."""
        self._made += 1
        path = self.work / f"{label}-{self._made:04d}"
        path.mkdir(parents=True)
        self._pending.append(path)
        return path

    def keep(self) -> None:
        """Exempt every directory made so far (the set-up's) from cleaning."""
        self._pending.clear()

    def clean(self) -> None:
        for path in self._pending:
            shutil.rmtree(path, ignore_errors=True)
        self._pending.clear()


class Workload:
    name = ""
    engine = "analytic"
    #: Simulated million instructions per pass (trace workloads only).
    minstr = 0.0

    def prepare(self, ctx: Context) -> None:
        """Set-up paid once per process (timed as part of ``setup_s``)."""

    def ops_per_pass(self) -> int:
        """Operations one pass stands for in ``attempted``/``failed``."""
        return 1

    def begin(self, ctx: Context) -> dict:
        default_trace_cache().clear()
        return {}

    def work(self, ctx: Context, state: dict, jobs: int) -> PassResult:
        raise NotImplementedError

    def gate(self, ctx: Context, state: dict, result: PassResult) -> None:
        """Append to ``result.problems`` anything wrong with the output."""


class Report(Workload):
    """``repro report`` on the analytic engine; seed-independent output."""

    name = "report"

    def begin(self, ctx: Context) -> dict:
        state = super().begin(ctx)
        state["out"] = ctx.fresh_dir("report") / "REPORT.md"
        return state

    def work(self, ctx: Context, state: dict, jobs: int) -> PassResult:
        started = time.perf_counter()
        generate_report(state["out"])
        wall = time.perf_counter() - started
        return PassResult(wall, [wall])

    def gate(self, ctx: Context, state: dict, result: PassResult) -> None:
        result.digest = hashlib.sha256(state["out"].read_bytes()).hexdigest()


class TraceDataset(Workload):
    """SPECrate INT x 7 machines on the trace engine, serial."""

    name = "trace-dataset"
    engine = "trace"

    def prepare(self, ctx: Context) -> None:
        self.names = [spec.name for spec in workloads_in_suite(Suite.SPEC2017_RATE_INT)]
        self.minstr = (
            len(self.names) * len(PAPER_MACHINE_NAMES) * TRACE_INSTRUCTIONS / 1e6
        )

    def work(self, ctx: Context, state: dict, jobs: int) -> PassResult:
        started = time.perf_counter()
        matrix = build_feature_matrix(
            self.names,
            profiler=Profiler(
                engine="trace",
                trace_instructions=TRACE_INSTRUCTIONS,
                seed=ctx.seed,
            ),
            jobs=1,
        )
        wall = time.perf_counter() - started
        state["matrix"] = matrix
        return PassResult(wall, [wall])

    def gate(self, ctx: Context, state: dict, result: PassResult) -> None:
        matrix = state["matrix"]
        result.digest = matrix.digest()
        if matrix.values.shape != (len(self.names), len(matrix.features)):
            result.problems.append(f"matrix shape {matrix.values.shape}")


class Campaign(Workload):
    """64 generated machines x 6 workloads, process backend."""

    name = "campaign"
    engine = "trace"
    minstr = (
        CAMPAIGN_MACHINES * len(CAMPAIGN_WORKLOADS) * TRACE_INSTRUCTIONS / 1e6
    )

    def begin(self, ctx: Context) -> dict:
        state = super().begin(ctx)
        state["dir"] = ctx.fresh_dir("campaign") / "campaign"
        return state

    def work(self, ctx: Context, state: dict, jobs: int) -> PassResult:
        config = CampaignConfig(
            machines=CAMPAIGN_MACHINES,
            workloads=CAMPAIGN_WORKLOADS,
            seed=ctx.seed,
            trace_instructions=TRACE_INSTRUCTIONS,
        )
        started = time.perf_counter()
        runner = CampaignRunner(
            state["dir"], config=config, jobs=jobs, backend="process"
        )
        summary = runner.run()
        wall = time.perf_counter() - started
        state["runner"] = runner
        state["summary"] = summary
        return PassResult(wall, [wall])

    def gate(self, ctx: Context, state: dict, result: PassResult) -> None:
        runner = state["runner"]
        result.digest = state["summary"]["digest"] or ""
        if runner.campaign_digest() != result.digest or not result.digest:
            result.problems.append("campaign digest is missing or unstable")
        bad = CampaignStore.open(runner.store_dir).verify()
        if bad:
            result.problems.append(f"store columns fail verify: {bad}")


def pca_agrees(incremental: dict, cold: dict) -> List[str]:
    """Where an incremental analysis departs from a cold refit's PCA.

    The engine documents its PCA as exact within ``SCORE_TOLERANCE`` of a
    batch fit.  Its k-means is not held to a cold refit: both paths are
    local searches whose result depends on row order, so the clustering
    is measured by :func:`clustering_agreement` instead of gated.
    """
    problems = []
    for key in ("rows", "features", "kaiser_components"):
        if incremental[key] != cold[key]:
            problems.append(f"{key}: {incremental[key]} != {cold[key]}")
    variance = abs(
        incremental["cumulative_variance"] - cold["cumulative_variance"]
    )
    if variance > SCORE_TOLERANCE:
        problems.append(f"cumulative variance off by {variance:.3g}")
    return problems


def clustering_agreement(incremental: dict, cold: dict) -> Dict[str, float]:
    """Whether the partition and representatives match a cold refit (1/0),
    and the incremental inertia over the cold one."""

    def partition(analysis: dict) -> Dict[frozenset, str]:
        # k-means labels are arbitrary; compare member sets.
        return {
            frozenset(members): representative
            for members, representative in zip(
                analysis["clusters"], analysis["representatives"]
            )
        }

    return {
        "analysis.cold_match": float(partition(incremental) == partition(cold)),
        "analysis.cold_inertia_ratio": incremental["inertia"] / cold["inertia"],
    }


class Append(Workload):
    """``repro analyze append`` of 57 workloads onto a SPECrate store."""

    name = "append"

    def prepare(self, ctx: Context) -> None:
        seeded = [
            spec.name
            for spec in workloads_in_suite(
                Suite.SPEC2017_RATE_INT, Suite.SPEC2017_RATE_FP
            )
        ]
        self.seed_dir = ctx.fresh_dir("append-seed") / "store"
        matrix = build_feature_matrix(seeded, profiler=Profiler())
        store = FeatureMatrixStore.create(
            self.seed_dir,
            matrix.features,
            extra={
                "suite": "rate",
                "engine": "analytic",
                "clusters": APPEND_CLUSTERS,
                "seed": APPEND_ANALYSIS_SEED,
            },
        )
        for name, row in zip(matrix.workloads, matrix.values):
            store.append_workload(name, row)
        AnalysisEngine(
            store, clusters=APPEND_CLUSTERS, seed=APPEND_ANALYSIS_SEED
        ).refresh()
        self.seed_rows = len(seeded)
        taken = set(seeded)
        self.order = [spec.name for spec in all_workloads() if spec.name not in taken]
        random.Random(ctx.seed).shuffle(self.order)

    def ops_per_pass(self) -> int:
        return len(self.order)

    def begin(self, ctx: Context) -> dict:
        state = super().begin(ctx)
        state["dir"] = ctx.fresh_dir("append") / "store"
        shutil.copytree(self.seed_dir, state["dir"])
        return state

    def work(self, ctx: Context, state: dict, jobs: int) -> PassResult:
        directory = state["dir"]
        ops: List[float] = []
        problems: List[str] = []
        engine: Optional[AnalysisEngine] = None
        started = time.perf_counter()
        for name in self.order:
            # What one ``repro analyze append`` call does.
            began = time.perf_counter()
            row = build_feature_matrix([name], profiler=Profiler())
            store = FeatureMatrixStore.open(directory)
            engine = AnalysisEngine(
                store,
                clusters=int(store.extra.get("clusters", APPEND_CLUSTERS)),
                seed=int(store.extra.get("seed", APPEND_ANALYSIS_SEED)),
            )
            if row.features != store.features:
                problems.append(f"{name}: profiled features do not match the store")
                continue
            engine.append(name, row.values[0])
            ops.append(time.perf_counter() - began)
        wall = time.perf_counter() - started
        state["engine"] = engine
        return PassResult(wall, ops, problems=problems)

    def gate(self, ctx: Context, state: dict, result: PassResult) -> None:
        store = FeatureMatrixStore.open(state["dir"])
        try:
            store.verify()
        except AnalysisError as error:
            result.problems.append(f"store fails verify: {error}")
        result.digest = store.digest()
        if list(store.labels[self.seed_rows:]) != self.order:
            result.problems.append("appended rows are missing or out of order")
        cold = AnalysisEngine(
            store,
            clusters=APPEND_CLUSTERS,
            seed=APPEND_ANALYSIS_SEED,
            directory=ctx.fresh_dir("append-cold"),
        ).refresh()
        last = state["engine"].last_analysis
        result.problems.extend(pca_agrees(last, cold))
        result.notes.update(clustering_agreement(last, cold))


WORKLOADS = {cls.name: cls for cls in (Report, TraceDataset, Campaign, Append)}


def scalar_spot_check(seed: int) -> Optional[str]:
    """Re-profile one seed-chosen trace-dataset pair on the scalar oracle.

    Returns a problem description, or ``None`` when the scalar report is
    bit-identical to the fast path's.
    """
    rng = random.Random(f"scalar-spot-check:{seed}")
    spec = rng.choice(workloads_in_suite(Suite.SPEC2017_RATE_INT))
    machine = get_machine(rng.choice(PAPER_MACHINE_NAMES))
    reports = {}
    for kernel in ("vector", "scalar"):
        default_trace_cache().clear()
        reports[kernel] = Profiler(
            engine="trace",
            trace_instructions=TRACE_INSTRUCTIONS,
            seed=seed,
            trace_kernel=kernel,
        ).profile(spec, machine)
    if pair_digest(reports["vector"]) != pair_digest(reports["scalar"]):
        return f"scalar oracle disagrees on {spec.name}@{machine.name}"
    return None
