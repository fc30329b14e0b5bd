"""Incremental statistical machinery for the analysis engine.

The batch pipeline (``fit_pca`` → ``kmeans`` → representative
selection) recomputes everything from the full feature matrix whenever
the population changes.  The PCA step is cheap at analysis scale (a
correlation eigendecomposition over at most a few hundred features), so
the engine refits it exactly on every fold; what dominates a fold is
the restarted k-means and the full representative rescan.  This module
provides their incremental counterparts:

* :class:`IncrementalKMeans` — Lloyd iterations seeded from the
  previous assignment (no restarts), reporting exactly which clusters
  changed membership.
* :func:`reselect_representatives` — per-cluster representative
  selection that only re-scores clusters whose membership changed.

:class:`IncrementalPca` is the exact PCA step itself: a named
:func:`fit_pca` call, so every fold's PCA equals a cold batch fit over
the same matrix bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kmeans import KMeansResult, kmeans
from repro.stats.pca import PcaResult, fit_pca

__all__ = [
    "IncrementalPca",
    "IncrementalKMeans",
    "reselect_representatives",
]

#: The cumulative-variance bound ``e2ebench/workloads.py`` holds an
#: appended analysis to against a cold refit.  Kept only for that
#: import: every fold is an exact ``fit_pca``, so the two agree bit for
#: bit.
SCORE_TOLERANCE = 1e-2


def resolve_analysis_mode(value: Optional[str] = None) -> str:
    """The name of the one analysis path, ``"incremental"``.

    Kept only because ``e2ebench/run.py``'s ``_config()`` records it;
    nothing in ``repro`` calls it.
    """
    return "incremental"


class IncrementalPca:
    """The engine's PCA step: an exact :func:`fit_pca` per fold."""

    def __init__(
        self, feature_labels: Optional[Tuple[str, ...]] = None
    ) -> None:
        self.feature_labels = feature_labels

    def refactorize(self, matrix: np.ndarray) -> PcaResult:
        """:func:`fit_pca` over the full matrix, under its own span.

        The result *is* the batch result, bit for bit.  The name and
        the ``analysis.refactorize`` span are what ``e2ebench/`` counts
        as the engine's PCA calls.
        """
        matrix = np.asarray(matrix, dtype=float)
        with span("analysis.refactorize", rows=matrix.shape[0]):
            return fit_pca(matrix, self.feature_labels)


class IncrementalKMeans:
    """Lloyd iterations seeded from the previous assignment.

    The batch path restarts k-means++ several times per fit; the
    incremental path assumes the previous clustering is a good seed —
    new points join their nearest centroid and Lloyd iterations run
    until the assignment stabilizes.  :meth:`update` reports exactly
    which clusters changed membership, which is what lets subset
    re-selection skip the untouched ones.
    """

    def __init__(self, k: int, seed: int = 2017) -> None:
        if k < 1:
            raise AnalysisError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None
        self.assignment: Optional[np.ndarray] = None
        self.inertia = float("nan")

    @property
    def fitted(self) -> bool:
        return self.centroids is not None

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Exact batch fit (k-means++ with restarts) seeding the state."""
        result = kmeans(points, min(self.k, points.shape[0]), seed=self.seed)
        self.centroids = result.centroids.copy()
        self.assignment = result.assignment.copy()
        self.inertia = result.inertia
        return result

    def seed_from(self, result: KMeansResult) -> None:
        """Adopt an existing clustering as the incremental seed."""
        self.centroids = result.centroids.copy()
        self.assignment = result.assignment.copy()
        self.inertia = result.inertia

    def update(
        self, points: np.ndarray, max_iterations: int = 100
    ) -> Tuple[KMeansResult, frozenset]:
        """Re-cluster ``points`` starting from the previous state.

        ``points`` may have grown (appended rows) and existing rows may
        have moved (the PCA refit rotates them).  Returns the refreshed
        clustering and the set of cluster indices whose membership
        changed — clusters absent from that set kept exactly their
        previous member rows.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise AnalysisError(
                f"expected a 2-D matrix, got shape {points.shape}"
            )
        if not self.fitted:
            result = self.fit(points)
            return result, frozenset(range(result.k))
        assert self.centroids is not None and self.assignment is not None
        n = points.shape[0]
        previous = self.assignment
        if previous.shape[0] > n:
            raise AnalysisError(
                f"points shrank from {previous.shape[0]} to {n} rows; "
                "incremental k-means is append-only"
            )
        k = self.centroids.shape[0]
        centroids = self.centroids
        if centroids.shape[1] != points.shape[1]:
            # The PC basis changed dimension (the refit retained a
            # different component count): reproject the seed
            # centroids from the previous assignment on the new points.
            centroids = np.stack(
                [
                    points[: previous.shape[0]][previous == cluster].mean(axis=0)
                    if (previous == cluster).any()
                    else points[0]
                    for cluster in range(k)
                ]
            )
        assignment = previous
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            distances = (
                (points ** 2).sum(axis=1)[:, None]
                + (centroids ** 2).sum(axis=1)[None, :]
                - 2.0 * points @ centroids.T
            )
            np.maximum(distances, 0.0, out=distances)
            new_assignment = distances.argmin(axis=1)
            for cluster in range(k):
                if not (new_assignment == cluster).any():
                    worst = int(
                        distances[np.arange(n), new_assignment].argmax()
                    )
                    new_assignment[worst] = cluster
            if (
                new_assignment.shape == assignment.shape
                and (new_assignment == assignment).all()
                and iterations > 1
            ):
                break
            assignment = new_assignment
            for cluster in range(k):
                members = points[assignment == cluster]
                if members.size:
                    centroids[cluster] = members.mean(axis=0)
        inertia = float(((points - centroids[assignment]) ** 2).sum())
        changed: Set[int] = set()
        for cluster in range(k):
            old_members = set(np.nonzero(previous == cluster)[0].tolist())
            new_members = set(np.nonzero(assignment == cluster)[0].tolist())
            if old_members != new_members:
                changed.add(cluster)
        self.centroids = centroids
        self.assignment = assignment
        self.inertia = inertia
        result = KMeansResult(
            centroids=centroids.copy(),
            assignment=assignment.copy(),
            inertia=inertia,
            iterations=iterations,
        )
        return result, frozenset(changed)


def reselect_representatives(
    points: np.ndarray,
    result: KMeansResult,
    labels: Sequence[str],
    previous: Optional[dict] = None,
    changed: Optional[frozenset] = None,
) -> Tuple[List[str], dict]:
    """Per-cluster representatives, re-scoring only changed clusters.

    ``previous`` maps cluster index to its cached representative label;
    clusters not in ``changed`` reuse the cache instead of re-scoring
    their members.  Pass ``previous=None`` (or ``changed=None``) to
    score everything — the batch-equivalent path.

    Uses the exact tie-break of :meth:`KMeansResult.representatives`
    (minimal ``(distance, label)``), so a full re-scan reproduces the
    batch selection bit for bit.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] != len(labels):
        raise AnalysisError("labels must match the number of points")
    cache = dict(previous or {})
    rescore_all = previous is None or changed is None
    chosen: List[str] = []
    representatives: dict = {}
    rescored = 0
    for cluster in range(result.k):
        members = np.nonzero(result.assignment == cluster)[0]
        if members.size == 0:
            continue
        if not rescore_all and cluster not in changed and cluster in cache:
            representatives[cluster] = cache[cluster]
            chosen.append(cache[cluster])
            continue
        gaps = np.linalg.norm(
            points[members] - result.centroids[cluster], axis=1
        )
        order = np.argsort(gaps, kind="stable")
        best = min((float(gaps[i]), labels[int(members[i])]) for i in order)
        representatives[cluster] = best[1]
        chosen.append(best[1])
        rescored += 1
    obs_metrics.incr("analysis.clusters_rescored", rescored)
    return chosen, representatives
