"""Tests for the append-only run-history ledger (repro.obs.history)."""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import history


def make_manifest(command="profile", elapsed=1.0, stages=None, **extra):
    manifest = {
        "schema": "repro.obs.manifest/1",
        "version": "1.0.0",
        "command": command,
        "argv": [command, "505.mcf_r", "--obs", "summary"],
        "elapsed_s": elapsed,
        "cpu_s": elapsed / 2,
        "stages": stages or {
            "profile": {"calls": 1, "wall_s": elapsed / 2, "cpu_s": 0.1}
        },
        "metrics": {
            "counters": {"profiler.cache.miss": 1},
            "gauges": {},
            "histograms": {},
        },
    }
    manifest.update(extra)
    return manifest


class TestRecordAndList:
    def test_record_returns_info_and_lists(self, tmp_path):
        info = history.record_run(make_manifest(), tmp_path)
        assert info.seq == 0
        assert info.command == "profile"
        assert info.id.startswith("000000-")
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [info.id]

    def test_sequence_numbers_increase(self, tmp_path):
        ids = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path).seq
            for i in range(4)
        ]
        assert ids == [0, 1, 2, 3]
        runs = history.list_runs(tmp_path)
        assert [r.seq for r in runs] == [0, 1, 2, 3]

    def test_id_embeds_content_checksum(self, tmp_path):
        manifest = make_manifest()
        info = history.record_run(manifest, tmp_path)
        checksum = history.checksum_manifest(manifest)
        assert info.checksum == checksum
        assert info.id == f"000000-{checksum[:10]}"

    def test_empty_directory_lists_nothing(self, tmp_path):
        assert history.list_runs(tmp_path) == []

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        history.record_run(make_manifest())
        assert len(history.list_runs()) == 1
        assert (tmp_path / "history").is_dir()

    def test_no_leftover_temp_files(self, tmp_path):
        history.record_run(make_manifest(), tmp_path)
        strays = list((tmp_path / "history").glob(".tmp-*"))
        assert strays == []


class TestLoadAndVerify:
    def test_load_roundtrip(self, tmp_path):
        manifest = make_manifest(elapsed=2.5)
        info = history.record_run(manifest, tmp_path)
        document = history.load_run(info.id, tmp_path)
        assert document["manifest"] == manifest
        assert document["seq"] == 0

    def test_load_detects_tampering(self, tmp_path):
        info = history.record_run(make_manifest(), tmp_path)
        path = history.history_dir(tmp_path) / f"{info.id}.json"
        document = json.loads(path.read_text())
        document["manifest"]["elapsed_s"] = 999.0
        path.write_text(json.dumps(document))
        with pytest.raises(AnalysisError, match="checksum"):
            history.load_run(info.id, tmp_path)

    def test_load_empty_history_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="empty"):
            history.load_run("latest", tmp_path)


class TestResolve:
    def _seed(self, tmp_path, n=3):
        return [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(n)
        ]

    def test_latest_and_offsets(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run("latest", runs).id == infos[-1].id
        assert history.resolve_run("-1", runs).id == infos[-1].id
        assert history.resolve_run("-3", runs).id == infos[0].id

    def test_sequence_number(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run("1", runs).id == infos[1].id

    def test_id_prefix(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run(infos[2].id[:8], runs).id == infos[2].id

    def test_unknown_reference_raises(self, tmp_path):
        self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        with pytest.raises(AnalysisError):
            history.resolve_run("zzzz", runs)
        with pytest.raises(AnalysisError):
            history.resolve_run("-9", runs)
        with pytest.raises(AnalysisError):
            history.resolve_run("77", runs)


class TestIndexRecovery:
    def test_corrupt_index_is_rebuilt(self, tmp_path):
        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(3)
        ]
        index = history.history_dir(tmp_path) / history.INDEX_NAME
        index.write_text("{ not json")
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [i.id for i in infos]
        # The rebuilt index is persisted.
        assert json.loads(index.read_text())["runs"]

    def test_missing_index_is_rebuilt(self, tmp_path):
        info = history.record_run(make_manifest(), tmp_path)
        (history.history_dir(tmp_path) / history.INDEX_NAME).unlink()
        assert [r.id for r in history.list_runs(tmp_path)] == [info.id]

    def test_recording_continues_after_rebuild(self, tmp_path):
        history.record_run(make_manifest(), tmp_path)
        (history.history_dir(tmp_path) / history.INDEX_NAME).unlink()
        info = history.record_run(make_manifest(elapsed=2.0), tmp_path)
        assert info.seq == 1


class TestPrune:
    def test_prune_keeps_newest(self, tmp_path):
        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(5)
        ]
        removed = history.prune(2, tmp_path)
        assert removed == 3
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [infos[3].id, infos[4].id]
        files = list(history.history_dir(tmp_path).glob("*-*.json"))
        assert len(files) == 2

    def test_prune_noop_when_under_limit(self, tmp_path):
        history.record_run(make_manifest(), tmp_path)
        assert history.prune(10, tmp_path) == 0
        assert len(history.list_runs(tmp_path)) == 1

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(ConfigurationError):
            history.prune(-1, tmp_path)


class TestRunKey:
    def test_scrub_removes_obs_flags(self):
        argv = [
            "profile", "505.mcf_r", "--obs", "summary",
            "--trace-out", "t.json", "--serve-port=0",
        ]
        assert history.scrub_argv(argv) == ["profile", "505.mcf_r"]

    def test_key_ignores_obs_flags(self):
        base = history.run_key("profile", ["profile", "505.mcf_r"])
        observed = history.run_key(
            "profile",
            ["profile", "505.mcf_r", "--serve-port", "0", "--trace-out",
             "x"],
        )
        assert base == observed

    def test_key_differs_across_workloads(self):
        assert history.run_key("profile", ["profile", "505.mcf_r"]) != \
            history.run_key("profile", ["profile", "541.leela_r"])

    def test_recorded_runs_share_key_across_obs_modes(self, tmp_path):
        first = history.record_run(make_manifest(), tmp_path)
        manifest = make_manifest()
        manifest["argv"] = [
            "profile", "505.mcf_r", "--serve-port", "0", "--trace-out", "t",
        ]
        second = history.record_run(manifest, tmp_path)
        assert first.run_key == second.run_key
