"""Append-only feature-matrix store and the incremental analysis engine.

:class:`FeatureMatrixStore` is the persistence substrate for the
streaming analysis pipeline (ROADMAP item 5): a checksummed,
memmap-backed feature matrix that grows by appending rows — one per
workload (workload-space analyses) or one per machine block
(campaign-space analyses).  The layout mirrors the campaign store:

* ``schema.json`` — checksummed identity: schema version, feature
  labels, and caller extras (e.g. the machine list a workload row must
  be profiled on).
* ``matrix.npy`` — a ``capacity x n_features`` float64 memmap, NaN in
  the unused tail, grown by doubling (copy + atomic replace).
* ``rows.jsonl`` — append-only row ledger: one line per landed row with
  its label and the sha256 of its float64 bytes, so :meth:`verify` can
  prove the matrix never mutated behind the ledger.

:class:`AnalysisEngine` sits on top: it refits the PCA exactly
(``fit_pca``) on every fold, keeps the seeded k-means / representative
state from :mod:`repro.stats.incremental`, persists that state next to
the store, and exposes :meth:`refresh` (fold rows appended since the
last analysis) and :meth:`append` (land one row and report its PC
coordinates, cluster, and subset impact).  A cold or invalidated engine
also restarts k-means, so its analysis is bit-comparable with the batch
pipeline by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import atomic_write_text
from repro.obs.trace import span
from repro.stats.incremental import (
    IncrementalKMeans,
    IncrementalPca,
    reselect_representatives,
)

__all__ = ["FeatureMatrixStore", "AnalysisEngine"]

_STORE_SCHEMA = "repro.feature_store/1"
_ENGINE_SCHEMA = "repro.analysis_engine/2"
_SCHEMA_FILE = "schema.json"
_MATRIX_FILE = "matrix.npy"
_ROWS_FILE = "rows.jsonl"
_STATE_FILE = "state.json"
_ARRAYS_FILE = "arrays.npz"
_INITIAL_CAPACITY = 64

PathLike = Union[str, Path]


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _checksummed(document: dict) -> dict:
    checksum = hashlib.sha256(_canonical(document).encode()).hexdigest()
    return {**document, "checksum": checksum}


def _verify_checksum(document: dict, what: str) -> dict:
    payload = {k: v for k, v in document.items() if k != "checksum"}
    expected = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    if document.get("checksum") != expected:
        raise AnalysisError(f"{what} failed its checksum")
    return payload


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _row_sha256(row: np.ndarray) -> str:
    data = np.ascontiguousarray(row, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


class FeatureMatrixStore:
    """A persistent, append-only, checksummed feature matrix."""

    def __init__(
        self,
        directory: Path,
        features: Tuple[str, ...],
        extra: dict,
        rows: List[dict],
    ) -> None:
        self.directory = directory
        self.features = features
        self.extra = extra
        self._rows = rows

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: PathLike,
        features: Sequence[str],
        extra: Optional[dict] = None,
    ) -> "FeatureMatrixStore":
        """Create an empty store for the given feature labels."""
        directory = Path(directory)
        features = tuple(str(label) for label in features)
        if not features:
            raise ConfigurationError("a feature store needs feature labels")
        if len(set(features)) != len(features):
            raise ConfigurationError("feature labels must be unique")
        if (directory / _SCHEMA_FILE).exists():
            raise ConfigurationError(
                f"feature store already exists at {directory}"
            )
        directory.mkdir(parents=True, exist_ok=True)
        schema = _checksummed(
            {
                "schema": _STORE_SCHEMA,
                "features": list(features),
                "extra": extra or {},
            }
        )
        atomic_write_text(
            directory / _SCHEMA_FILE,
            json.dumps(schema, indent=2, sort_keys=True) + "\n",
        )
        matrix = np.lib.format.open_memmap(
            directory / _MATRIX_FILE,
            mode="w+",
            dtype=np.float64,
            shape=(_INITIAL_CAPACITY, len(features)),
        )
        matrix[:] = np.nan
        matrix.flush()
        del matrix
        (directory / _ROWS_FILE).write_text("")
        obs_metrics.incr("feature_store.created")
        return cls(directory, features, dict(extra or {}), [])

    @classmethod
    def open(cls, directory: PathLike) -> "FeatureMatrixStore":
        """Open an existing store, verifying the schema checksum."""
        directory = Path(directory)
        schema_path = directory / _SCHEMA_FILE
        if not schema_path.exists():
            raise ConfigurationError(f"no feature store at {directory}")
        schema = _verify_checksum(
            json.loads(schema_path.read_text()), "feature store schema"
        )
        if schema.get("schema") != _STORE_SCHEMA:
            raise ConfigurationError(
                f"unsupported feature store schema {schema.get('schema')!r}"
            )
        rows: List[dict] = []
        rows_path = directory / _ROWS_FILE
        if rows_path.exists():
            for line in rows_path.read_text().splitlines():
                if line.strip():
                    rows.append(json.loads(line))
        for index, entry in enumerate(rows):
            if entry.get("index") != index:
                raise AnalysisError(
                    f"row ledger is out of order at entry {index}"
                )
        return cls(
            directory,
            tuple(schema["features"]),
            dict(schema.get("extra") or {}),
            rows,
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(entry["label"] for entry in self._rows)

    @property
    def matrix_path(self) -> Path:
        return self.directory / _MATRIX_FILE

    def schema_checksum(self) -> str:
        """The checksum of the store's identity document."""
        document = json.loads((self.directory / _SCHEMA_FILE).read_text())
        return str(document["checksum"])

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def _capacity(self) -> int:
        matrix = np.load(self.matrix_path, mmap_mode="r")
        capacity = int(matrix.shape[0])
        del matrix
        return capacity

    def _grow(self, minimum: int) -> None:
        capacity = self._capacity()
        if capacity >= minimum:
            return
        while capacity < minimum:
            capacity *= 2
        old = np.load(self.matrix_path, mmap_mode="r")
        tmp = self.matrix_path.with_suffix(".npy.tmp")
        grown = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=np.float64,
            shape=(capacity, self.n_features),
        )
        grown[: old.shape[0]] = old[:]
        grown[old.shape[0]:] = np.nan
        grown.flush()
        del grown, old
        os.replace(tmp, self.matrix_path)
        obs_metrics.incr("feature_store.grows")

    def append_row(self, label: str, values: np.ndarray) -> int:
        """Land one feature row; returns its row index."""
        label = str(label)
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape != (self.n_features,):
            raise AnalysisError(
                f"expected {self.n_features} features for row {label!r}, "
                f"got {values.shape[0]}"
            )
        if not np.isfinite(values).all():
            raise AnalysisError(
                f"row {label!r} contains non-finite features"
            )
        if label in set(self.labels):
            raise ConfigurationError(
                f"row {label!r} is already in the store"
            )
        index = self.rows
        self._grow(index + 1)
        matrix = np.load(self.matrix_path, mmap_mode="r+")
        matrix[index] = values
        matrix.flush()
        del matrix
        entry = {
            "index": index,
            "label": label,
            "sha256": _row_sha256(values),
        }
        with (self.directory / _ROWS_FILE).open("a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._rows.append(entry)
        obs_metrics.incr("feature_store.rows_appended")
        return index

    # ``append_workload`` / ``append_machine_block`` are the two entry
    # points named by the store's users: one row per workload in
    # workload-space stores, one raveled (workloads x metrics) block per
    # machine in campaign-space stores.
    def append_workload(self, workload: str, values: np.ndarray) -> int:
        """Land one workload's feature row (workload-space stores)."""
        return self.append_row(workload, values)

    def append_machine_block(self, machine: str, block: np.ndarray) -> int:
        """Land one machine's raveled (workloads x metrics) block."""
        return self.append_row(machine, np.asarray(block, dtype=float).ravel())

    # ------------------------------------------------------------------
    # reads / integrity
    # ------------------------------------------------------------------

    def values(self) -> np.ndarray:
        """The landed rows as an in-memory ``rows x features`` matrix."""
        if self.rows == 0:
            return np.empty((0, self.n_features), dtype=np.float64)
        matrix = np.load(self.matrix_path, mmap_mode="r")
        values = np.array(matrix[: self.rows], dtype=np.float64)
        del matrix
        return values

    def row(self, index: int) -> np.ndarray:
        """One landed feature row by index."""
        if not 0 <= index < self.rows:
            raise AnalysisError(
                f"row index {index} out of range [0, {self.rows})"
            )
        matrix = np.load(self.matrix_path, mmap_mode="r")
        values = np.array(matrix[index], dtype=np.float64)
        del matrix
        return values

    def verify(self) -> bool:
        """Check every landed row against its ledgered checksum."""
        values = self.values()
        for entry in self._rows:
            if _row_sha256(values[entry["index"]]) != entry["sha256"]:
                raise AnalysisError(
                    f"row {entry['label']!r} (index {entry['index']}) does "
                    "not match its ledgered checksum"
                )
        return True

    def digest(self) -> str:
        """Content digest over the schema identity and every row hash."""
        digest = hashlib.sha256()
        digest.update(self.schema_checksum().encode())
        for entry in self._rows:
            digest.update(entry["sha256"].encode())
        return digest.hexdigest()


class AnalysisEngine:
    """Exact PCA → seeded k-means → representatives over a feature store.

    Every fold refits the PCA with ``fit_pca`` over the whole stored
    matrix, so its scores equal a cold batch fit bit for bit.  The
    engine persists only what seeds the next fold (centroids,
    assignment, representative cache, and the last analysis document)
    next to the store, so repeated refreshes across processes re-cluster
    from the previous partition instead of restarting k-means.  Any
    identity mismatch or corruption silently degrades to a cold start —
    restarted k-means — never to a wrong answer.
    """

    def __init__(
        self,
        store: FeatureMatrixStore,
        clusters: int,
        seed: int = 2017,
        directory: Optional[PathLike] = None,
    ) -> None:
        if clusters < 1:
            raise ConfigurationError(
                f"clusters must be >= 1, got {clusters}"
            )
        self.store = store
        self.clusters = int(clusters)
        self.seed = int(seed)
        self.directory = Path(directory or (store.directory / "engine"))
        self.pca = IncrementalPca(feature_labels=store.features)
        self.kmeans = IncrementalKMeans(self.clusters, seed=self.seed)
        self.rows_folded = 0
        self.representatives: Dict[int, str] = {}
        self.last_analysis: Optional[dict] = None
        self._scores: Optional[np.ndarray] = None
        self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _identity(self) -> dict:
        return {
            "store_schema": self.store.schema_checksum(),
            "features": self.store.n_features,
            "clusters": self.clusters,
            "seed": self.seed,
        }

    def _load(self) -> None:
        state_path = self.directory / _STATE_FILE
        arrays_path = self.directory / _ARRAYS_FILE
        if not state_path.exists() or not arrays_path.exists():
            return
        try:
            state = _verify_checksum(
                json.loads(state_path.read_text()), "analysis engine state"
            )
            if state.get("schema") != _ENGINE_SCHEMA:
                raise AnalysisError("unsupported engine schema")
            if state.get("identity") != self._identity():
                raise AnalysisError("engine state belongs to another store")
            if state.get("arrays_sha256") != _file_sha256(arrays_path):
                raise AnalysisError("engine arrays do not match the ledger")
            if state["rows_folded"] > self.store.rows:
                raise AnalysisError("engine state is ahead of the store")
            with np.load(arrays_path) as arrays:
                centroids = arrays["centroids"]
                assignment = arrays["assignment"].astype(int)
        except (AnalysisError, ValueError, KeyError, json.JSONDecodeError):
            # Unusable state: fall back to a cold start (restarted k-means).
            obs_metrics.incr("analysis.state_resets")
            return
        self.kmeans.centroids = centroids
        self.kmeans.assignment = assignment
        self.kmeans.inertia = float(state["inertia"])
        self.rows_folded = int(state["rows_folded"])
        self.representatives = {
            int(cluster): label
            for cluster, label in state["representatives"].items()
        }
        self.last_analysis = state.get("analysis")

    def save(self) -> None:
        """Persist the engine state (atomic, checksummed)."""
        if not self.kmeans.fitted:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        arrays_path = self.directory / _ARRAYS_FILE
        tmp = arrays_path.with_name("arrays.tmp.npz")
        np.savez(
            tmp,
            centroids=self.kmeans.centroids,
            assignment=self.kmeans.assignment,
        )
        os.replace(tmp, arrays_path)
        state = _checksummed(
            {
                "schema": _ENGINE_SCHEMA,
                "identity": self._identity(),
                "rows_folded": self.rows_folded,
                "inertia": self.kmeans.inertia,
                "representatives": {
                    str(cluster): label
                    for cluster, label in sorted(self.representatives.items())
                },
                "analysis": self.last_analysis,
                "arrays_sha256": _file_sha256(arrays_path),
            }
        )
        atomic_write_text(
            self.directory / _STATE_FILE,
            json.dumps(state, indent=2, sort_keys=True) + "\n",
        )

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def _effective_k(self, rows: int) -> int:
        return max(1, min(self.clusters, rows))

    def refresh(self) -> dict:
        """Fold rows appended since the last analysis; return it.

        Every fold refits the PCA exactly — a verbatim ``fit_pca`` over
        the stored matrix.  Cold (or invalidated) state then runs a
        restarted ``kmeans`` fit, bit-comparable with the batch
        pipeline; warm state runs a k-means update seeded from the
        previous partition and re-scores representatives only in
        clusters whose membership changed.
        """
        if self.store.rows < 2:
            raise AnalysisError(
                "analysis needs at least two rows in the store "
                f"({self.store.rows} landed)"
            )
        new_rows = self.store.rows - self.rows_folded
        if new_rows == 0 and self.last_analysis is not None:
            obs_metrics.incr("analysis.refresh_noops")
            return self.last_analysis
        with span(
            "analysis.refresh",
            rows=self.store.rows,
            new_rows=new_rows,
        ):
            matrix = self.store.values()
            labels = list(self.store.labels)
            k = self._effective_k(self.store.rows)
            centroids = self.kmeans.centroids
            warm = (
                centroids is not None
                and self.rows_folded > 0
                and centroids.shape[0] == k
            )
            result = self.pca.refactorize(matrix)
            scores = result.retained_scores()
            if warm:
                clustering, changed = self.kmeans.update(scores)
                previous: Optional[Dict[int, str]] = self.representatives
            else:
                clustering = self.kmeans.fit(scores)
                changed = frozenset(range(clustering.k))
                previous = None
            chosen, representatives = reselect_representatives(
                scores,
                clustering,
                labels,
                previous=previous,
                changed=changed,
            )
            analysis = {
                "rows": self.store.rows,
                "features": self.store.n_features,
                "kaiser_components": result.kaiser_components,
                "cumulative_variance": result.cumulative_variance(),
                "clusters": clustering.clusters(labels),
                "representatives": chosen,
                "inertia": clustering.inertia,
                "rows_folded": new_rows,
            }
            self.rows_folded = self.store.rows
            self.representatives = representatives
            self.last_analysis = analysis
            self._scores = scores
            obs_metrics.incr("analysis.refreshes")
            obs_metrics.set_gauge("analysis.rows_folded", self.rows_folded)
            self.save()
        return analysis

    def append(self, label: str, values: np.ndarray) -> dict:
        """Land one row and report where it falls.

        Returns the row's PC coordinates (retained components), its
        cluster assignment and members, and the subset impact — which
        representatives changed relative to the analysis before the
        append.
        """
        before = dict(self.representatives)
        had_analysis = self.last_analysis is not None
        index = self.store.append_row(label, values)
        analysis = self.refresh()
        assert self.kmeans.assignment is not None
        assert self._scores is not None
        cluster = int(self.kmeans.assignment[index])
        members = analysis["clusters"][cluster]
        after = self.representatives
        changed_representatives = sorted(
            {
                after[c]
                for c in after
                if before.get(c) != after[c]
            }
            | {
                before[c]
                for c in before
                if after.get(c) != before[c]
            }
        ) if had_analysis else sorted(set(after.values()))
        return {
            "label": label,
            "index": index,
            "coordinates": [float(v) for v in self._scores[index]],
            "cluster": cluster,
            "cluster_members": members,
            "representative": after.get(cluster),
            "subset_impact": {
                "changed_representatives": changed_representatives,
                "subset_changed": (
                    set(before.values()) != set(after.values())
                    if had_analysis
                    else True
                ),
                "representatives": analysis["representatives"],
            },
        }
