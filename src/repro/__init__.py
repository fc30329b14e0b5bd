"""repro — reproduction of "Wait of a Decade: Did SPEC CPU 2017 Broaden
the Performance Horizon?" (Panda, Song, Dean, John; HPCA 2018).

The library models every workload the paper measures (SPEC CPU2017,
CPU2006, CPU2000-EDA, Cassandra/YCSB, graph analytics), simulates the
paper's seven profiled machines, and reimplements the paper's entire
statistical methodology: performance-counter feature matrices, PCA with
the Kaiser criterion, hierarchical clustering, benchmark subsetting and
validation, input-set selection, rate-vs-speed comparison, suite-balance
and sensitivity analyses.

Quickstart::

    from repro import subset_suite, Suite

    result = subset_suite(Suite.SPEC2017_SPEED_INT, k=3)
    print(result.subset, result.time_reduction)

See ``examples/`` for complete walkthroughs and ``benchmarks/`` for the
per-table / per-figure reproduction harness.
"""

import os

# One BLAS thread: every analysis matrix is small (at most ~1000 x 140),
# where multi-threaded OpenBLAS only adds start-up and contention noise
# (a 48 x 48 ``eigh`` measured 16 ms in one process and 0.3 ms in the
# next on a 2-vCPU host).  Set before the first numpy import so BLAS
# reads it; a value the user exported wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from repro.core.similarity import SimilarityResult, analyze_similarity
from repro.core.subsetting import SubsetResult, select_subset, subset_suite
from repro.core.validation import validate_subset
from repro.errors import (
    AnalysisError,
    ConfigurationError,
    ReproError,
    UnknownMachineError,
    UnknownWorkloadError,
)
from repro.perf.counters import Metric
from repro.perf.profiler import Profiler, profile
from repro.uarch.machine import all_machines, get_machine
from repro.workloads.spec import (
    Suite,
    WorkloadSpec,
    all_workloads,
    get_workload,
    workloads_in_suite,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ConfigurationError",
    "Metric",
    "Profiler",
    "ReproError",
    "SimilarityResult",
    "SubsetResult",
    "Suite",
    "UnknownMachineError",
    "UnknownWorkloadError",
    "WorkloadSpec",
    "all_machines",
    "all_workloads",
    "analyze_similarity",
    "get_machine",
    "get_workload",
    "profile",
    "select_subset",
    "subset_suite",
    "validate_subset",
    "workloads_in_suite",
]
