"""Tests for the persistent feature-matrix store and analysis engine.

Covers the on-disk format (checksummed schema, per-row ledger, memmap
growth), tamper detection, and the engine's two refresh paths: cold
(exact refit, bit-comparable with the batch pipeline) and warm (seeded
k-means with state persisted across processes).  On both paths the PCA
is an exact ``fit_pca``: appended analyses equal a cold fit bit for bit.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from tests.parity import stable_seed
from repro import obs
from repro.core.feature_store import AnalysisEngine, FeatureMatrixStore
from repro.errors import AnalysisError, ConfigurationError
from repro.stats.kmeans import kmeans
from repro.stats.pca import fit_pca


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


FEATURES = ("ipc", "l1d_mpki", "l2_mpki", "branch_mpki")


def _matrix(n: int, *parts, d: int = len(FEATURES)) -> np.ndarray:
    rng = np.random.default_rng(stable_seed("feature_store", n, d, *parts))
    centers = rng.normal(size=(3, d)) * 2.0
    return np.stack(
        [centers[i % 3] + rng.normal(size=d) * 0.4 for i in range(n)]
    )


def _filled_store(tmp_path, n=6, name="store"):
    store = FeatureMatrixStore.create(tmp_path / name, FEATURES)
    matrix = _matrix(n)
    for i, row in enumerate(matrix):
        store.append_workload(f"w{i:03d}", row)
    return store, matrix


# ----------------------------------------------------------------------
# store lifecycle
# ----------------------------------------------------------------------


class TestFeatureMatrixStore:
    def test_create_append_and_read_back(self, tmp_path):
        store, matrix = _filled_store(tmp_path)
        assert store.rows == 6
        assert store.features == FEATURES
        assert store.n_features == len(FEATURES)
        assert store.labels == tuple(f"w{i:03d}" for i in range(6))
        assert (store.values() == matrix).all()
        assert (store.row(2) == matrix[2]).all()

    def test_create_refuses_existing_directory(self, tmp_path):
        FeatureMatrixStore.create(tmp_path / "s", FEATURES)
        with pytest.raises(ConfigurationError, match="exists"):
            FeatureMatrixStore.create(tmp_path / "s", FEATURES)

    def test_create_requires_features(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FeatureMatrixStore.create(tmp_path / "s", ())
        with pytest.raises(ConfigurationError):
            FeatureMatrixStore.create(tmp_path / "s", ("a", "a"))

    def test_reopen_preserves_everything(self, tmp_path):
        store, matrix = _filled_store(tmp_path)
        digest = store.digest()
        reopened = FeatureMatrixStore.open(store.directory)
        assert reopened.labels == store.labels
        assert (reopened.values() == matrix).all()
        assert reopened.digest() == digest
        assert reopened.schema_checksum() == store.schema_checksum()

    def test_growth_past_initial_capacity(self, tmp_path):
        store = FeatureMatrixStore.create(tmp_path / "s", FEATURES)
        matrix = _matrix(70)
        for i, row in enumerate(matrix):
            store.append_workload(f"w{i:03d}", row)
        assert store.rows == 70
        assert (store.values() == matrix).all()
        reopened = FeatureMatrixStore.open(store.directory)
        assert (reopened.values() == matrix).all()

    def test_append_machine_block_ravels_one_row(self, tmp_path):
        # Campaign-space stores: one raveled (workloads x metrics)
        # block per machine.
        block_features = tuple(
            f"w{i}.{m}" for i in range(3) for m in FEATURES
        )
        store = FeatureMatrixStore.create(
            tmp_path / "s", block_features
        )
        block = _matrix(3)
        store.append_machine_block("m0", block)
        assert store.rows == 1
        assert (store.row(0) == block.ravel()).all()

    def test_duplicate_label_rejected(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        with pytest.raises(ConfigurationError, match="w001"):
            store.append_workload("w001", np.ones(len(FEATURES)))

    def test_bad_rows_rejected(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        with pytest.raises(AnalysisError):
            store.append_workload("bad", np.ones(len(FEATURES) + 1))
        with pytest.raises(AnalysisError, match="finite"):
            store.append_workload(
                "bad", np.array([1.0, np.nan, 1.0, 1.0])
            )
        assert store.rows == 6  # nothing landed

    def test_verify_detects_tampered_rows(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        assert store.verify() is True
        matrix = np.lib.format.open_memmap(
            store.matrix_path, mode="r+"
        )
        matrix[3, 0] += 1.0
        matrix.flush()
        del matrix
        reopened = FeatureMatrixStore.open(store.directory)
        with pytest.raises(AnalysisError, match="checksum"):
            reopened.verify()

    def test_open_detects_tampered_schema(self, tmp_path):
        store, _ = _filled_store(tmp_path)
        schema_path = store.directory / "schema.json"
        payload = json.loads(schema_path.read_text())
        payload["features"] = list(payload["features"]) + ["extra"]
        schema_path.write_text(json.dumps(payload))
        with pytest.raises(AnalysisError, match="checksum"):
            FeatureMatrixStore.open(store.directory)

    def test_digest_tracks_content(self, tmp_path):
        a, _ = _filled_store(tmp_path, name="a")
        b, _ = _filled_store(tmp_path, name="b")
        assert a.digest() == b.digest()
        b.append_workload("wxyz", np.ones(len(FEATURES)))
        assert a.digest() != b.digest()


# ----------------------------------------------------------------------
# analysis engine
# ----------------------------------------------------------------------


class TestAnalysisEngine:
    def test_refresh_needs_two_rows(self, tmp_path):
        store = FeatureMatrixStore.create(tmp_path / "s", FEATURES)
        store.append_workload("only", np.ones(len(FEATURES)))
        engine = AnalysisEngine(store, clusters=2)
        with pytest.raises(AnalysisError, match="at least two"):
            engine.refresh()

    def test_cold_refresh_matches_batch_pipeline_bitwise(self, tmp_path):
        store, matrix = _filled_store(tmp_path, n=12)
        engine = AnalysisEngine(store, clusters=3, seed=2017)
        analysis = engine.refresh()
        pca = fit_pca(matrix, FEATURES)
        points = pca.retained_scores()
        clustering = kmeans(points, 3, seed=2017)
        assert analysis["rows"] == 12
        assert analysis["kaiser_components"] == pca.kaiser_components
        assert analysis["clusters"] == clustering.clusters(
            list(store.labels)
        )
        assert analysis["representatives"] == clustering.representatives(
            points, list(store.labels)
        )
        assert analysis["inertia"] == clustering.inertia

    def test_refresh_without_new_rows_is_a_noop(self, tmp_path):
        obs.enable()
        store, _ = _filled_store(tmp_path, n=8)
        engine = AnalysisEngine(store, clusters=3)
        first = engine.refresh()
        obs.metrics.reset()
        second = engine.refresh()
        assert second == first
        counters = obs.metrics.snapshot()["counters"]
        assert counters["analysis.refresh_noops"] == 1.0

    def test_state_survives_a_process_boundary(self, tmp_path):
        obs.enable()
        store, _ = _filled_store(tmp_path, n=10)
        engine = AnalysisEngine(store, clusters=3, seed=2017)
        engine.refresh()
        engine.append("fresh", _matrix(1, "x")[0])

        obs.metrics.reset()
        reopened = FeatureMatrixStore.open(store.directory)
        resumed = AnalysisEngine(reopened, clusters=3, seed=2017)
        # The resumed engine starts from the persisted state, not a
        # cold start.
        assert resumed.rows_folded == 11
        assert resumed.kmeans.fitted
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("analysis.state_resets", 0.0) == 0.0
        analysis = resumed.refresh()
        assert analysis["rows"] == 11
        assert analysis == engine.last_analysis

    def test_corrupted_state_falls_back_to_cold_start(self, tmp_path):
        obs.enable()
        store, _ = _filled_store(tmp_path, n=10)
        engine = AnalysisEngine(store, clusters=3, seed=2017)
        baseline = engine.refresh()
        state_path = engine.directory / "state.json"
        state_path.write_text(state_path.read_text()[:-20])
        obs.metrics.reset()
        recovered = AnalysisEngine(store, clusters=3, seed=2017)
        analysis = recovered.refresh()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["analysis.state_resets"] == 1.0
        for key in ("rows", "kaiser_components", "clusters",
                    "representatives", "inertia"):
            assert analysis[key] == baseline[key]

    def test_identity_mismatch_resets_state(self, tmp_path):
        obs.enable()
        store, _ = _filled_store(tmp_path, n=10)
        AnalysisEngine(store, clusters=3, seed=2017).refresh()
        obs.metrics.reset()
        other = AnalysisEngine(store, clusters=4, seed=2017)
        # Different identity -> cold.
        assert other.rows_folded == 0
        assert not other.kmeans.fitted
        counters = obs.metrics.snapshot()["counters"]
        assert counters["analysis.state_resets"] == 1.0

    def test_append_reports_coordinates_cluster_and_impact(self, tmp_path):
        store, _ = _filled_store(tmp_path, n=10)
        engine = AnalysisEngine(store, clusters=3, seed=2017)
        engine.refresh()
        report = engine.append("fresh", _matrix(1, "append")[0])
        assert report["label"] == "fresh"
        assert report["index"] == 10
        assert len(report["coordinates"]) >= 1
        assert 0 <= report["cluster"] < 3
        assert "fresh" in report["cluster_members"]
        impact = report["subset_impact"]
        assert set(impact) == {
            "changed_representatives", "subset_changed", "representatives"
        }
        assert isinstance(impact["subset_changed"], bool)
        assert store.rows == 11  # the row landed in the store


# ----------------------------------------------------------------------
# exact appends
# ----------------------------------------------------------------------


def _assert_exact(store, engine, report):
    """The engine's PCA output equals a cold ``fit_pca``, bit for bit."""
    cold = fit_pca(store.values(), store.features)
    scores = cold.retained_scores()
    assert report["coordinates"] == [float(v) for v in scores[report["index"]]]
    analysis = engine.last_analysis
    assert analysis["kaiser_components"] == cold.kaiser_components
    assert analysis["cumulative_variance"] == cold.cumulative_variance()


class TestExactAppends:
    @pytest.mark.parametrize("case", range(4))
    def test_appends_across_process_boundaries_equal_a_cold_fit(
        self, tmp_path, case
    ):
        """Seeded append sequences, reopening store and engine per append.

        Large enough stores that one append barely moves the spectrum:
        an approximate eigen-update would be accepted there, and would
        miss bit-equality.
        """
        rng = np.random.default_rng(stable_seed("exact_appends", case))
        d = int(rng.integers(8, 24))
        n0 = int(rng.integers(120, 240))
        appends = int(rng.integers(4, 9))
        centers = rng.normal(size=(5, d)) * 3.0 * 0.7 ** np.arange(5)[:, None]
        rows = np.stack(
            [centers[i % 5] + rng.normal(size=d) * 0.5
             for i in range(n0 + appends)]
        )
        features = tuple(f"f{j}" for j in range(d))
        store = FeatureMatrixStore.create(tmp_path / "s", features)
        for i, row in enumerate(rows[:n0]):
            store.append_workload(f"w{i:04d}", row)
        AnalysisEngine(store, clusters=5, seed=2017).refresh()
        for i, row in enumerate(rows[n0:], start=n0):
            store = FeatureMatrixStore.open(tmp_path / "s")
            engine = AnalysisEngine(store, clusters=5, seed=2017)
            report = engine.append(f"w{i:04d}", row)
            _assert_exact(store, engine, report)

    def test_old_engine_state_cold_starts_and_stays_exact(self, tmp_path):
        """State in the retired rank-one layout is never folded."""
        obs.enable()
        store, matrix = _filled_store(tmp_path, n=12)
        directory = store.directory / "engine"
        directory.mkdir()
        # The ``repro.analysis_engine/1`` layout: a tolerance in the
        # identity, drift bookkeeping in the state, and the Gram /
        # moment / eigensystem arrays — here from a stale matrix.
        stale = matrix[:6]
        d = len(FEATURES)
        arrays_path = directory / "arrays.npz"
        with arrays_path.open("wb") as handle:
            np.savez(
                handle,
                mean=stale.mean(axis=0),
                m2=((stale - stale.mean(axis=0)) ** 2).sum(axis=0),
                gram=stale.T @ stale,
                corr=np.eye(d),
                eigenvalues=np.ones(d),
                vectors=np.eye(d),
                centroids=stale[:3],
                assignment=np.array([0, 1, 2, 0, 1, 2]),
            )
        document = {
            "schema": "repro.analysis_engine/1",
            "identity": {
                "store_schema": store.schema_checksum(),
                "features": d,
                "clusters": 3,
                "seed": 2017,
                "tolerance": 1e-4,
            },
            "rows_folded": 6,
            "drift": 0.0,
            "refactorizations": 1,
            "inertia": 1.0,
            "representatives": {"0": "w000", "1": "w001", "2": "w002"},
            "analysis": None,
            "arrays_sha256": hashlib.sha256(
                arrays_path.read_bytes()
            ).hexdigest(),
        }
        canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
        document["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        (directory / "state.json").write_text(json.dumps(document))

        obs.metrics.reset()
        engine = AnalysisEngine(store, clusters=3, seed=2017)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["analysis.state_resets"] == 1.0
        assert engine.rows_folded == 0
        assert not engine.kmeans.fitted
        assert engine.last_analysis is None

        report = engine.append("fresh", _matrix(1, "old-state")[0])
        _assert_exact(store, engine, report)
        cold = AnalysisEngine(
            store, clusters=3, seed=2017, directory=tmp_path / "cold"
        ).refresh()
        assert engine.last_analysis == cold
