"""End-to-end benchmark of the repro pipeline, with a traced layer breakdown.

Run from the repository root::

    python3 e2ebench/run.py --workload report --seed 2017 --seconds 15 --trace 0

Workloads: ``report``, ``trace-dataset``, ``campaign``, ``append`` (see
README.md for why each was chosen).  With ``--trace 0`` the run times
untraced cold passes for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of ``layers.LAYERS``.  Every pass is gated
on its output digest (pinned in ``pins.json`` for the default seed) and
every run re-profiles one pair on the scalar oracle.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
WORKLOAD_NAMES = ("report", "trace-dataset", "campaign", "append")

#: The repo's default seed; ``pins.json`` holds its output digests.
DEFAULT_SEED = 2017
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPS = 3
#: Timed passes per run, at least (a run may exceed ``--seconds`` for them).
MIN_PASSES = 3
#: Seconds the reference kernel takes on the nominal host (the 2-vCPU
#: guest of README.md's baseline, in a quiet phase).  End-to-end times are
#: scaled by this over the run's median reference time, so the host's own
#: speed swings -- up to 2x within minutes on a shared VM, hitting every
#: workload alike -- do not read as changes of the program.
REFERENCE_NOMINAL_S = 0.070
#: Reference timings taken before each timed pass.
REFERENCE_PER_PASS = 2
#: Engine knobs cleared before every workload, so a stray variable cannot
#: change what is measured.
ENGINE_ENV = (
    "REPRO_TRACE_KERNEL",
    "REPRO_TRACE_SEED_SCOPE",
    "REPRO_REPLAY",
    "REPRO_ANALYSIS",
    "REPRO_CACHE_DIR",
    "REPRO_TRACE_SPILL_DIR",
    "REPRO_TRACE_CACHE_BYTES",
)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, calibrate and prepare the workload, then exit "
             "(one setup_s sample)",
    )
    return parser.parse_args(argv)


def _pin_environment(work: Path) -> None:
    for name in ENGINE_ENV:
        os.environ.pop(name, None)
    for sub in ("obs", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_OBS_DIR"] = str(work / "obs")
    os.environ["TMPDIR"] = str(work / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _set_up(args: argparse.Namespace, work: Path):
    """Import the program, load the calibrated registry, prepare the workload."""
    from repro.workloads.spec import all_workloads
    from workloads import WORKLOADS, Context

    ctx = Context(args.seed, work / "passes", jobs=_nproc())
    workload = WORKLOADS[args.workload]()
    all_workloads()
    workload.prepare(ctx)
    ctx.keep()
    return ctx, workload


class HostSpeed:
    """Timings of a fixed CPU kernel that runs no program code.

    The kernel mixes what the workloads spend host time on: interpreter
    work (dict updates), many numpy calls on small arrays, and sorts and
    gathers.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self, times: int = 1) -> None:
        import numpy as np

        rng = np.random.default_rng(2017)
        keys = rng.integers(0, 1 << 30, 100_000)  # small: keeps peak RSS
        small = rng.random(512)
        for _ in range(times):
            started = time.perf_counter()
            table: Dict[int, int] = {}
            for i in range(60_000):
                table[i & 1023] = table.get(i & 1023, 0) + i
            acc = small
            for _ in range(1500):
                acc = np.exp(-acc) * small + 0.5
            for _ in range(4):
                keys[np.argsort(keys, kind="stable")][::7].sum()
            self.samples.append(time.perf_counter() - started)

    def scale(self) -> float:
        """Factor from this run's host seconds to nominal-host seconds."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


def _setup_samples(args: argparse.Namespace, host: HostSpeed) -> List[float]:
    """Wall seconds of fresh interpreters that only do the set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPS):
        host.probe()
        started = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up process exited {done.returncode}")
    return samples


class Gate:
    """Digest gate: the pin for the default seed, else the first pass."""

    def __init__(self, workload: str, seed: int) -> None:
        pins = json.loads(PINS.read_text())
        self.expected = None
        if seed == pins["seed"] or workload in pins["seed_independent"]:
            self.expected = pins["digests"][workload]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, result, ops: int) -> None:
        if self.expected is None:
            self.expected = result.digest
        problems = list(result.problems)
        if result.digest != self.expected:
            problems.append(
                f"digest {result.digest[:12]} != expected {self.expected[:12]}"
            )
        self.record(ops, problems)

    def record(self, ops: int, problems: List[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)


def _run_pass(workload, ctx, gate: Gate, jobs: int, tracer=None, probes=()):
    """One cold pass; traced over ``probes`` when a tracer is given."""
    state = workload.begin(ctx)
    if tracer is None:
        result = workload.work(ctx, state, jobs)
    else:
        import layers

        tracer.reset()
        with layers.installed(tracer, probes):
            tracer.active = True
            try:
                result = workload.work(ctx, state, jobs)
            finally:
                tracer.active = False
    workload.gate(ctx, state, result)
    gate.check(result, workload.ops_per_pass())
    ctx.clean()
    return result


def _percentile(values: List[float], q: int) -> float:
    """The q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _config(workload) -> Dict[str, object]:
    import numpy

    from repro.perf.diskcache import code_version
    from repro.perf.profiler import Profiler
    from repro.stats.incremental import resolve_analysis_mode

    profiler = Profiler(engine=workload.engine)
    return {
        "engine": workload.engine,
        "kernel": profiler.trace_kernel,
        "seed_scope": profiler.seed_scope,
        "replay": profiler.replay,
        "analysis": resolve_analysis_mode(None),
        "code_version": code_version(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _scalar_check(args, gate: Gate) -> None:
    from workloads import scalar_spot_check

    problem = scalar_spot_check(args.seed)
    gate.record(1, [problem] if problem else [])


def _measure(args: argparse.Namespace, work: Path) -> dict:
    """The untraced run: end-to-end metrics."""
    host = HostSpeed()
    setup = _setup_samples(args, host)
    ctx, workload = _set_up(args, work)
    gate = Gate(workload.name, args.seed)
    _run_pass(workload, ctx, gate, ctx.jobs)  # untimed first pass
    passes = []
    started = time.perf_counter()
    while True:
        host.probe(REFERENCE_PER_PASS)
        passes.append(_run_pass(workload, ctx, gate, ctx.jobs))
        elapsed = time.perf_counter() - started
        wall = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _scalar_check(args, gate)

    ops_ms = [op * 1e3 for p in passes for op in p.op_s]
    raw = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "op_p50_ms": _percentile(ops_ms, 50),
    }
    scale = host.scale()
    metrics = {name: (value * scale, name.rsplit("_", 1)[1])
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(f"config: {json.dumps(_config(workload), sort_keys=True)}")
    print(f"host speed: reference kernel median "
          f"{statistics.median(host.samples) * 1e3:.2f} ms over "
          f"{len(host.samples)} samples (nominal "
          f"{REFERENCE_NOMINAL_S * 1e3:.0f} ms), time scale {scale:.4f}")
    print("unscaled host times: " + ", ".join(
        f"{name} {value:.6g}" for name, value in raw.items()))
    print(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setup)}")
    print(f"passes: {len(passes)}, operations per pass: "
          f"{len(passes[0].op_s)}, latency samples: {len(ops_ms)}")
    if workload.minstr:
        print(f"sim_minstr_per_s: {workload.minstr / wall:.3f} Minstr/s "
              f"(unscaled)")
    if workload.name == "append":
        notes = passes[-1].notes
        print(f"final clustering equals a cold refit: "
              f"{'yes' if notes['analysis.cold_match'] else 'no'} "
              f"(inertia ratio {notes['analysis.cold_inertia_ratio']:.4f})")
        print(f"append_p50_ms: {_percentile(ops_ms, 50) * scale:.3f} ms, "
              f"append_p90_ms: {_percentile(ops_ms, 90) * scale:.3f} ms "
              f"(scaled; n={len(ops_ms)})")
    return _result(gate, metrics)


def _result(gate: Gate, metrics: Dict[str, tuple]) -> dict:
    print(f"error_rate: {gate.failed}/{gate.attempted}")
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _measure_traced(args: argparse.Namespace, work: Path) -> dict:
    """The traced run: per-layer metrics, median over traced passes."""
    import layers
    import workloads  # noqa: F401  (program modules load before wrapping)
    from repro.perf.trace_cache import default_trace_cache

    full = layers.Tracer()
    executor = layers.Tracer()
    executor_probes = layers.executor_only()

    with layers.installed(full, layers.LAYERS):
        full.active = True
        try:
            ctx, workload = _set_up(args, work)
        finally:
            full.active = False
    setup_trace = full.reset()
    layers.check_expected(setup_trace, workload.name, "setup")

    gate = Gate(workload.name, args.seed)
    campaign = workload.name == "campaign"
    # Worker-side layers are invisible under the process backend, so the
    # traced campaign passes run at jobs=1.
    traced_jobs = 1 if campaign else ctx.jobs
    _run_pass(workload, ctx, gate, traced_jobs)  # untimed first pass

    plain, traced, per_pass, parallel = [], [], [], []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        if campaign:
            result = _run_pass(workload, ctx, gate, 1, executor, executor_probes)
            serial_run_s = executor.trace.layer("executor").busy
        else:
            result = _run_pass(workload, ctx, gate, traced_jobs)
        plain.append(result.wall_s)

        result = _run_pass(workload, ctx, gate, traced_jobs, full, layers.LAYERS)
        layers.check_expected(full.trace, workload.name, "pass")
        cache = default_trace_cache().stats()
        full.trace.sums["trace_cache.hit_ratio"] = cache.hit_rate
        full.trace.sums["trace_cache.resident_mb"] = cache.resident_bytes / 2**20
        full.trace.sums.update(result.notes)
        values = layers.layer_metrics(full.trace, "pass")
        values["trace.unattributed_ratio"] = 1 - full.trace.covered_s() / result.wall_s
        per_pass.append(values)
        traced.append(result.wall_s)

        if campaign:
            _run_pass(workload, ctx, gate, ctx.jobs, executor, executor_probes)
            parallel.append(
                serial_run_s
                / (ctx.jobs * executor.trace.layer("executor").busy)
            )
        round_s = time.perf_counter() - began
        if time.perf_counter() - started + round_s > args.seconds:
            break
    _scalar_check(args, gate)

    metrics = {
        name: statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    metrics.update(layers.layer_metrics(setup_trace, "setup"))
    if parallel:
        metrics["executor.parallel_efficiency"] = statistics.median(parallel)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1
    )
    units = layers.metric_units()
    print(f"config: {json.dumps(_config(workload), sort_keys=True)}")
    print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}")
    for index, (wall, values) in enumerate(zip(traced, per_pass)):
        print(f"traced pass {index}: {wall:.3f} s, "
              f"{values['trace.unattributed_ratio']:.2%} unattributed")
    return _result(gate, {name: (metrics[name], units[name]) for name in units})


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        _pin_environment(work)
        if args.setup_only:
            _set_up(args, work)
            return 0
        result = _measure_traced(args, work) if args.trace else _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
