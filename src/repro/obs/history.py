"""Append-only run-history ledger for observed runs.

The ledger is the one per-run artifact: every observed run (``--obs
summary``, ``--trace-out``, ``--profile`` or ``--serve-port``) appends
its manifest to ``<obs dir>/history/`` exactly once, as one
content-checksummed JSON document plus an entry in a compact index.
Runs are therefore *longitudinal*: baselines (:mod:`repro.obs.baseline`)
and ``repro obs {report,history,diff,check,flame,top,serve}`` read the
last N runs without re-parsing every manifest.

Layout::

    .repro-obs/history/
        index.json              # compact listing, atomic rewrites
        000000-4f6a1c2b9d.json  # one run: {id, seq, checksum, manifest}
        000001-8e02d7aa31.json

Properties:

* **Append-only, atomic.**  Run documents and the index are written via
  the temp-file + ``os.replace`` pattern of ``repro.perf.diskcache``;
  a crash mid-record leaves either the previous ledger or the new one,
  never a truncated file.
* **Content-checksummed.**  A run's id embeds the SHA-256 of its
  manifest's canonical JSON; :func:`load_run` re-verifies it, so silent
  corruption surfaces as an error instead of a poisoned baseline.
* **Self-healing index.**  A missing or damaged ``index.json`` is
  rebuilt by scanning the run documents.
* **Keyed runs.**  Each run carries a ``run_key`` — a digest of the
  command plus its argv with obs-only flags scrubbed — so baselines
  only ever compare statistically like-for-like invocations.
* **Bounded.**  :func:`prune` keeps the newest ``keep`` runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.obs.manifest import atomic_write_text, manifest_dir

__all__ = [
    "RunInfo",
    "history_dir",
    "checksum_manifest",
    "run_key",
    "scrub_argv",
    "record_run",
    "list_runs",
    "load_run",
    "resolve_run",
    "prune",
    "HISTORY_DIR_NAME",
    "INDEX_NAME",
]

PathLike = Union[str, Path]

#: Ledger subdirectory inside the obs directory.
HISTORY_DIR_NAME = "history"

#: Compact index file inside the ledger directory.
INDEX_NAME = "index.json"

_RUN_SCHEMA = "repro.obs.history.run/1"
_INDEX_SCHEMA = "repro.obs.history.index/1"

#: CLI flags that configure observation itself; scrubbed from the run
#: key so e.g. ``--trace-out /tmp/x.json``, ``--profile all`` or
#: ``--serve-port 0`` doesn't split the series.
_OBS_FLAGS = ("--obs", "--trace-out", "--profile", "--serve-port")


@dataclasses.dataclass(frozen=True)
class RunInfo:
    """One ledger entry, as listed by the index."""

    id: str
    seq: int
    checksum: str
    run_key: str
    command: str
    elapsed_s: float

    def to_dict(self) -> dict:
        """JSON-serializable form (one index entry)."""
        return dataclasses.asdict(self)


def history_dir(directory: Optional[PathLike] = None) -> Path:
    """The ledger directory under the obs dir (not created)."""
    return manifest_dir(directory) / HISTORY_DIR_NAME


def checksum_manifest(manifest: dict) -> str:
    """SHA-256 hex digest of the manifest's canonical JSON."""
    canonical = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def scrub_argv(argv: Sequence[str]) -> List[str]:
    """Drop obs-only flags (and their values) from an argv list."""
    scrubbed: List[str] = []
    skip_next = False
    for token in argv:
        if skip_next:
            skip_next = False
            continue
        if token in _OBS_FLAGS:
            skip_next = True
            continue
        if any(token.startswith(flag + "=") for flag in _OBS_FLAGS):
            continue
        scrubbed.append(token)
    return scrubbed


def run_key(command: str, argv: Sequence[str]) -> str:
    """Digest identifying statistically comparable invocations."""
    payload = json.dumps([command, scrub_argv(argv)], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _run_path(target: Path, run_id: str) -> Path:
    return target / f"{run_id}.json"


def _info_from_document(document: dict) -> RunInfo:
    manifest = document.get("manifest", {})
    return RunInfo(
        id=str(document["id"]),
        seq=int(document["seq"]),
        checksum=str(document["checksum"]),
        run_key=str(document.get("run_key", "")),
        command=str(manifest.get("command", "?")),
        elapsed_s=float(manifest.get("elapsed_s", 0.0)),
    )


def _scan_runs(target: Path) -> List[RunInfo]:
    """Rebuild run infos from the run documents on disk."""
    infos: List[RunInfo] = []
    for path in sorted(target.glob("*-*.json")):
        try:
            document = json.loads(path.read_text())
            if document.get("schema") != _RUN_SCHEMA:
                continue
            infos.append(_info_from_document(document))
        except (OSError, ValueError, KeyError):
            continue
    infos.sort(key=lambda info: info.seq)
    return infos


def _read_index(target: Path) -> Optional[List[RunInfo]]:
    path = target / INDEX_NAME
    try:
        document = json.loads(path.read_text())
        if document.get("schema") != _INDEX_SCHEMA:
            return None
        return [RunInfo(**entry) for entry in document["runs"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_index(target: Path, infos: Sequence[RunInfo]) -> None:
    document = {
        "schema": _INDEX_SCHEMA,
        "next_seq": (max(info.seq for info in infos) + 1) if infos else 0,
        "runs": [info.to_dict() for info in infos],
    }
    atomic_write_text(
        target / INDEX_NAME, json.dumps(document, indent=2, sort_keys=True)
    )


def list_runs(directory: Optional[PathLike] = None) -> List[RunInfo]:
    """All ledger entries in recording order (oldest first).

    Reads the compact index; a missing or corrupt index is rebuilt from
    the run documents (and rewritten) so the ledger survives partial
    damage.
    """
    target = history_dir(directory)
    if not target.is_dir():
        return []
    infos = _read_index(target)
    if infos is None:
        infos = _scan_runs(target)
        if infos:
            _write_index(target, infos)
    return infos


def record_run(
    manifest: dict, directory: Optional[PathLike] = None
) -> RunInfo:
    """Append one manifest to the ledger; returns its :class:`RunInfo`.

    The run document is written atomically before the index is updated,
    so a crash between the two leaves a recoverable ledger (the next
    :func:`list_runs` rescan picks the run up).
    """
    target = history_dir(directory)
    target.mkdir(parents=True, exist_ok=True)
    infos = list_runs(directory)
    seq = (infos[-1].seq + 1) if infos else 0
    checksum = checksum_manifest(manifest)
    run_id = f"{seq:06d}-{checksum[:10]}"
    document = {
        "schema": _RUN_SCHEMA,
        "id": run_id,
        "seq": seq,
        "checksum": checksum,
        "run_key": run_key(
            str(manifest.get("command", "?")), manifest.get("argv", [])
        ),
        "manifest": manifest,
    }
    atomic_write_text(
        _run_path(target, run_id),
        json.dumps(document, indent=2, sort_keys=True),
    )
    info = _info_from_document(document)
    _write_index(target, list(infos) + [info])
    return info


def resolve_run(
    reference: str, runs: Sequence[RunInfo]
) -> RunInfo:
    """Find one run by reference: id, unique id prefix, seq, or offset.

    ``latest`` and negative offsets (``-1`` = newest, ``-2`` = the one
    before) address the tail; a bare non-negative integer addresses a
    sequence number; anything else matches run ids by prefix.
    """
    from repro.errors import AnalysisError

    if not runs:
        raise AnalysisError(
            "run history is empty; run a command with --obs summary, "
            "--trace-out, --profile or --serve-port first"
        )
    if reference in ("latest", "-1"):
        return runs[-1]
    try:
        offset = int(reference)
    except ValueError:
        offset = None
    if offset is not None:
        if offset < 0:
            if -offset <= len(runs):
                return runs[offset]
            raise AnalysisError(
                f"offset {reference} out of range (history has "
                f"{len(runs)} runs)"
            )
        for info in runs:
            if info.seq == offset:
                return info
        raise AnalysisError(f"no run with sequence number {reference}")
    matches = [info for info in runs if info.id.startswith(reference)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise AnalysisError(f"no run matching {reference!r}")
    raise AnalysisError(
        f"ambiguous run reference {reference!r} "
        f"({len(matches)} matches)"
    )


def load_run(
    reference: str, directory: Optional[PathLike] = None
) -> dict:
    """Load and checksum-verify one run document by reference."""
    from repro.errors import AnalysisError

    info = resolve_run(reference, list_runs(directory))
    path = _run_path(history_dir(directory), info.id)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise AnalysisError(f"cannot read run {info.id}: {error}")
    actual = checksum_manifest(document.get("manifest", {}))
    if actual != document.get("checksum"):
        raise AnalysisError(
            f"run {info.id} failed checksum verification "
            f"(ledger entry corrupted)"
        )
    return document


def prune(
    keep: int, directory: Optional[PathLike] = None
) -> int:
    """Keep only the newest ``keep`` runs; returns the count removed."""
    from repro.errors import ConfigurationError

    if keep < 0:
        raise ConfigurationError("keep must be >= 0")
    target = history_dir(directory)
    infos = list_runs(directory)
    excess = infos[: max(0, len(infos) - keep)]
    removed = 0
    for info in excess:
        try:
            _run_path(target, info.id).unlink()
            removed += 1
        except OSError:
            pass
    if excess:
        _write_index(target, infos[len(excess):])
    return removed
