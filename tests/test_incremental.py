"""Tests for the incremental clustering steps (stats/incremental.py).

The load-bearing guarantee: seeded k-means and representative
re-selection only touch what changed, and a full re-scan reproduces the
batch selection.  The PCA step is an exact ``fit_pca`` per fold; its
bit-equality with a cold refit is tested in ``test_feature_store``.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.parity import stable_seed
from repro import obs
from repro.errors import AnalysisError
from repro.stats.incremental import IncrementalKMeans, reselect_representatives
from repro.stats.kmeans import kmeans


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


def _clustered_matrix(
    rng: np.random.Generator, n: int, d: int, centers: int = 4
) -> np.ndarray:
    """Rows drawn around a few well-separated centers (cluster shape)."""
    base = rng.normal(size=(centers, d)) * 3.0
    rows = [
        base[i % centers] + rng.normal(size=d) * 0.5 for i in range(n)
    ]
    return np.stack(rows)


# ----------------------------------------------------------------------
# incremental k-means
# ----------------------------------------------------------------------


class TestIncrementalKMeans:
    def test_fit_is_the_batch_fit(self):
        rng = np.random.default_rng(stable_seed("ikm", "fit"))
        points = _clustered_matrix(rng, 30, 3, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        result = engine.fit(points)
        batch = kmeans(points, 3, seed=2017)
        assert (result.assignment == batch.assignment).all()
        assert result.inertia == batch.inertia

    def test_update_without_fit_falls_back_to_batch(self):
        rng = np.random.default_rng(stable_seed("ikm", "cold"))
        points = _clustered_matrix(rng, 24, 3, centers=3)
        engine = IncrementalKMeans(3)
        result, changed = engine.update(points)
        assert changed == frozenset(range(result.k))

    def test_appended_point_joins_a_cluster_and_flags_it(self):
        rng = np.random.default_rng(stable_seed("ikm", "append"))
        points = _clustered_matrix(rng, 30, 2, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        seeded = engine.fit(points)
        # Drop the new point on top of cluster 0's centroid: only that
        # cluster's membership can change.
        new_point = seeded.centroids[0]
        grown = np.vstack([points, new_point])
        result, changed = engine.update(grown)
        assert result.assignment.shape == (31,)
        assert int(result.assignment[30]) in changed
        stable = set(range(result.k)) - set(changed)
        for cluster in stable:
            before = set(np.nonzero(seeded.assignment == cluster)[0])
            after = set(np.nonzero(result.assignment == cluster)[0])
            assert before == after

    def test_no_change_reports_no_changed_clusters(self):
        rng = np.random.default_rng(stable_seed("ikm", "stable"))
        points = _clustered_matrix(rng, 30, 2, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        engine.fit(points)
        _, changed = engine.update(points)
        assert changed == frozenset()

    def test_shrinking_population_rejected(self):
        rng = np.random.default_rng(stable_seed("ikm", "shrink"))
        points = _clustered_matrix(rng, 20, 2)
        engine = IncrementalKMeans(3)
        engine.fit(points)
        with pytest.raises(AnalysisError, match="append-only"):
            engine.update(points[:10])

    def test_dimension_change_reprojects_the_seed(self):
        rng = np.random.default_rng(stable_seed("ikm", "dims"))
        points = _clustered_matrix(rng, 24, 4, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        engine.fit(points)
        wider = np.hstack([points, rng.normal(size=(24, 1)) * 0.01])
        result, _ = engine.update(wider)
        assert result.centroids.shape == (3, 5)

    def test_invalid_k_rejected(self):
        with pytest.raises(AnalysisError):
            IncrementalKMeans(0)


# ----------------------------------------------------------------------
# representative re-selection
# ----------------------------------------------------------------------


class TestReselectRepresentatives:
    def test_full_rescan_matches_batch_representatives(self):
        rng = np.random.default_rng(stable_seed("reps", "full"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        chosen, _ = reselect_representatives(points, result, labels)
        assert chosen == result.representatives(points, labels)

    def test_unchanged_clusters_reuse_the_cache(self):
        rng = np.random.default_rng(stable_seed("reps", "cache"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        _, cache = reselect_representatives(points, result, labels)
        obs.enable()
        obs.metrics.reset()
        poisoned = dict(cache)
        victim = next(iter(poisoned))
        poisoned[victim] = "sentinel"
        chosen, refreshed = reselect_representatives(
            points, result, labels,
            previous=poisoned, changed=frozenset(),
        )
        # Nothing changed, so the sentinel must have been trusted (the
        # cached path) and no cluster re-scored.
        assert "sentinel" in chosen
        assert refreshed[victim] == "sentinel"
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("analysis.clusters_rescored", 0.0) == 0.0

    def test_changed_clusters_are_rescored(self):
        rng = np.random.default_rng(stable_seed("reps", "changed"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        _, cache = reselect_representatives(points, result, labels)
        victim = next(iter(cache))
        poisoned = {**cache, victim: "sentinel"}
        chosen, refreshed = reselect_representatives(
            points, result, labels,
            previous=poisoned, changed=frozenset({victim}),
        )
        assert refreshed[victim] == cache[victim]  # re-scored, not trusted
        assert "sentinel" not in chosen

    def test_label_count_mismatch_rejected(self):
        points = np.zeros((4, 2))
        result = kmeans(points + np.arange(4)[:, None], 2, seed=1)
        with pytest.raises(AnalysisError, match="labels"):
            reselect_representatives(points, result, ["a", "b"])
