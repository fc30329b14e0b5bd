"""Tests for the command-line interface."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_observability_surface(self):
        parser = build_parser()
        (commands,) = [
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(commands) == {
            "list", "profile", "subset", "dendrogram", "inputsets",
            "rate-speed", "balance", "power", "casestudies", "sensitivity",
            "report", "dataset", "export", "campaign", "analyze", "obs",
        }
        (group,) = [
            group for group in commands["list"]._action_groups
            if group.title == "observability"
        ]
        flags = {
            action.option_strings[0]: action.choices
            for action in group._group_actions
        }
        assert flags == {
            "--obs": ("off", "summary"),
            "--trace-out": None,
            "--profile": ("off", "cpu", "mem", "all"),
        }
        args = parser.parse_args(["obs", "report"])
        assert (args.run, args.dir, args.json) == ("latest", None, False)


class TestJobsValidation:
    """Out-of-range numeric flags exit 2 before any work or side effect."""

    def _assert_usage_error(self, capsys, target, verb, flag, value):
        argv = [arg.format(dir=target) for arg in verb] + [flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("jobs", ("0", "-3"))
    @pytest.mark.parametrize(
        "verb",
        (
            ["dataset", "--suite", "rate-int"],
            ["export", "--suite", "rate-int", "--out", "{dir}/matrix.csv"],
            ["profile", "505.mcf_r"],
            ["campaign", "run", "{dir}"],
        ),
        ids=("dataset", "export", "profile", "campaign-run"),
    )
    def test_jobs_below_one_is_a_usage_error(
        self, capsys, tmp_path, verb, jobs
    ):
        self._assert_usage_error(
            capsys, tmp_path / "out", verb, "--jobs", jobs
        )

    @pytest.mark.parametrize(
        ("verb", "flag", "value"),
        (
            (["analyze", "init", "{dir}"], "--clusters", "0"),
            (["campaign", "run", "{dir}"], "--clusters", "0"),
            (["obs", "check", "--dir", "{dir}"], "--window", "0"),
            (["obs", "check", "--dir", "{dir}"], "--window", "-3"),
            (["obs", "check", "--dir", "{dir}"], "--z-threshold", "-1"),
            (["obs", "check", "--dir", "{dir}"], "--z-threshold", "nan"),
            (["obs", "history", "--dir", "{dir}"], "--limit", "0"),
            (["obs", "history", "--dir", "{dir}"], "--limit", "-1"),
            (["obs", "top", "--dir", "{dir}"], "-n", "-2"),
            (["profile", "505.mcf_r"], "--serve-port", "-5"),
            (["obs", "serve", "--dir", "{dir}"], "--port", "70000"),
            (["obs", "serve", "--dir", "{dir}"], "--for-seconds", "nan"),
            (["obs", "serve", "--dir", "{dir}"], "--for-seconds", "inf"),
            (["obs", "serve", "--dir", "{dir}"], "--for-seconds", "-1"),
            (["obs", "history", "--dir", "{dir}"], "--prune", "-1"),
        ),
        ids=lambda param: (
            "-".join(param[:2]) if isinstance(param, list) else None
        ),
    )
    def test_out_of_range_value_is_a_usage_error(
        self, capsys, tmp_path, verb, flag, value
    ):
        self._assert_usage_error(capsys, tmp_path / "out", verb, flag, value)


class TestList:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "cas-WA" in out

    def test_list_suite(self, capsys):
        assert main(["list", "--suite", "rate-int"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "cas-WA" not in out

    def test_list_machines(self, capsys):
        assert main(["list", "--machines"]) == 0
        out = capsys.readouterr().out
        assert "Intel Core i7-6700" in out
        assert "SPARC T4" in out


class TestBrokenPipe:
    def test_reader_closing_after_one_line_is_quiet(self):
        """``repro list | head -1`` exits without a traceback."""
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs Linux pipe sizing")
        read_fd, write_fd = os.pipe()
        # A one-page pipe: the listing outgrows it, so the CLI is still
        # writing when the reader goes away after the first line.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "list"],
            stdout=write_fd, stderr=subprocess.PIPE, env=env,
        )
        os.close(write_fd)
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(read_fd, 1)
            if not byte:
                break
            line += byte
        os.close(read_fd)
        _, err = proc.communicate(timeout=120)
        assert line.strip()
        assert err.decode() == ""
        assert proc.returncode == 141


class TestProfile:
    def test_text_output(self, capsys):
        assert main(["profile", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "l1d_mpki" in out
        assert "CPI stack" in out

    def test_json_output(self, capsys):
        assert main(["profile", "541.leela_r", "sparc-t4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "541.leela_r"
        assert data["machine"] == "sparc-t4"

    def test_unknown_workload_is_an_error(self, capsys):
        assert main(["profile", "999.ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestSubset:
    def test_subset(self, capsys):
        assert main(["subset", "rate-int", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "reduction" in out

    def test_subset_with_validation(self, capsys):
        assert main(["subset", "speed-fp", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "mean error" in out


class TestAnalyses:
    def test_dendrogram(self, capsys):
        assert main(["dendrogram", "speed-int"]) == 0
        out = capsys.readouterr().out
        assert "most distinct: 605.mcf_s" in out

    def test_inputsets(self, capsys):
        assert main(["inputsets", "--category", "int"]) == 0
        out = capsys.readouterr().out
        assert "502.gcc_r" in out

    def test_rate_speed(self, capsys):
        assert main(["rate-speed"]) == 0
        out = capsys.readouterr().out
        assert "638.imagick_s" in out

    def test_balance(self, capsys):
        assert main(["balance"]) == 0
        out = capsys.readouterr().out
        assert "429.mcf" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        assert "core power spread" in capsys.readouterr().out

    def test_casestudies(self, capsys):
        assert main(["casestudies"]) == 0
        out = capsys.readouterr().out
        assert "cas-WA" in out and "NOT covered" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "branch_prediction"]) == 0
        assert "high:" in capsys.readouterr().out


class TestExport:
    def test_export_csv(self, capsys, tmp_path):
        out_file = tmp_path / "matrix.csv"
        assert main(["export", "--suite", "rate-int", "--out", str(out_file)]) == 0
        assert out_file.exists()
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("workload,")


class TestDatasetObservability:
    """PR 2's ``dataset`` subcommand under the obs flags."""

    def test_dataset_trace_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        trace_path = tmp_path / "dataset-trace.json"
        assert main(
            ["dataset", "--suite", "rate-int",
             "--trace-out", str(trace_path)]
        ) == 0
        document = json.loads(trace_path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "repro.dataset" in names
        assert "profile" in names

    def test_dataset_obs_records_history(self, capsys, tmp_path, monkeypatch):
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--obs", "summary"]) == 0
        runs = history.list_runs()
        assert len(runs) == 1
        assert runs[0].command == "dataset"

    def test_dataset_record_renders_openmetrics(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.obs import history, openmetrics

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--obs", "summary"]) == 0
        manifest = history.load_run("latest")["manifest"]
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(manifest["metrics"], manifest)
        )
        assert "repro_profiler_cache_miss" in families
        assert any(f.startswith("repro_stage_wall") for f in families)


class TestRunRecord:
    """Every observed run lands exactly once in the ledger."""

    @pytest.mark.parametrize(
        "flags",
        (
            ["--obs", "summary"],
            ["--trace-out", "{dir}/trace.json"],
            ["--profile", "cpu"],
            ["--serve-port", "0"],
        ),
        ids=("obs-summary", "trace-out", "profile", "serve-port"),
    )
    def test_observed_run_records_exactly_once(self, capsys, tmp_path,
                                               monkeypatch, flags):
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        argv = ["profile", "505.mcf_r"]
        argv += [flag.format(dir=tmp_path) for flag in flags]
        assert main(argv) == 0
        runs = history.list_runs()
        assert len(runs) == 1
        assert runs[0].command == "profile"
        assert history.load_run("latest")["manifest"]["argv"] == argv
        assert "--- obs: run recorded as" in capsys.readouterr().err
        # The ledger is the only per-run artifact in the obs dir.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["history"] + (["trace.json"] if "--trace-out" in flags else [])
        )

    def test_unobserved_run_records_nothing(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        assert main(["profile", "505.mcf_r"]) == 0
        assert not (tmp_path / "obs").exists()

    def test_obs_verbs_are_not_recorded(self, capsys, tmp_path,
                                        monkeypatch):
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0
        for verb in (["report"], ["history"], ["top"], ["check"]):
            assert main(["obs"] + verb) == 0
        assert len(history.list_runs()) == 1


class TestObsVerbs:
    """``repro obs {report,history,diff,check,flame,top}``."""

    def _observe(self, monkeypatch, tmp_path, times=1):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        for _ in range(times):
            assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0

    def test_history_lists_runs(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "history"]) == 0
        out = capsys.readouterr().out
        assert out.count("profile") == 2
        assert "000000-" in out and "000001-" in out

    def test_history_json_and_prune(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=3)
        capsys.readouterr()
        assert main(["obs", "history", "--prune", "2", "--json"]) == 0
        out = capsys.readouterr().out
        runs = json.loads(out[out.index("["):])
        assert len(runs) == 2
        assert runs[0]["seq"] == 1

    def test_history_empty_is_not_an_error(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "history"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_diff_two_runs(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "diff", "-2", "-1"]) == 0
        out = capsys.readouterr().out
        assert "diff 000000-" in out
        assert "(total)" in out

    def test_check_passes_on_self_baseline(self, capsys, tmp_path,
                                           monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "check"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_check_single_run_is_vacuously_ok(self, capsys, tmp_path,
                                              monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_check_empty_history_is_an_error(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "check"]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_flags_injected_slowdown(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.obs import history

        self._observe(monkeypatch, tmp_path, times=2)
        # Inject a synthetic 10x slowdown as a third recorded run.
        manifest = history.load_run("latest")["manifest"]
        for entry in manifest["stages"].values():
            entry["wall_s"] *= 10
        manifest["elapsed_s"] *= 10
        history.record_run(manifest)
        capsys.readouterr()
        assert main(["obs", "check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "profile" in out  # the regressed stage is named

    def test_check_json_output(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "check", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["run"].startswith("000001-")

    def test_check_ignores_other_run_keys(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0
        assert main(["profile", "541.leela_r", "--obs", "summary"]) == 0
        capsys.readouterr()
        # The leela run has no prior leela runs: vacuously ok, the
        # mcf run is not a comparable baseline.
        assert main(["obs", "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_profile_flag_records_profile_in_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--profile", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "--- obs: profiled" in out
        from repro.obs import history

        run = history.load_run("latest")
        profile = run["manifest"]["profile"]
        assert profile["mode"] == "cpu"
        assert profile["sample_count"] == sum(profile["samples"].values())

    def test_obs_flame_renders_from_ledger(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--profile", "all"]) == 0
        capsys.readouterr()
        out_html = tmp_path / "flame.html"
        out_collapsed = tmp_path / "stacks.txt"
        assert main(["obs", "flame", "--out", str(out_html),
                     "--collapsed", str(out_collapsed)]) == 0
        message = capsys.readouterr().out
        assert "wrote flamegraph" in message
        html = out_html.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "samples" in html
        collapsed = out_collapsed.read_text()
        assert collapsed  # one "stack count" line per distinct stack
        for line in collapsed.splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

    def test_obs_flame_without_profile_data_errors(self, capsys, tmp_path,
                                                   monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "flame"]) == 1
        assert "--profile" in capsys.readouterr().err

    def test_obs_top_lists_spans_and_frames(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int", "--obs", "summary",
                     "--profile", "all"]) == 0
        capsys.readouterr()
        assert main(["obs", "top", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 span series" in out
        assert "dataset.build_matrix" in out
        assert "top 3 frames" in out
        assert "self" in out

    def test_obs_report_json(self, capsys, tmp_path, monkeypatch):
        from repro.obs import history

        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "report", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest == history.load_run("latest")["manifest"]
        assert manifest["command"] == "profile"
        assert "stages" in manifest and "metrics" in manifest
        first = history.list_runs()[0].id
        assert main(["obs", "report", "--json", first]) == 0
        assert json.loads(capsys.readouterr().out) == \
            history.load_run(first)["manifest"]

    def test_obs_report_renders_the_record(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.obs import export, history

        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "report", "0"]) == 0
        out = capsys.readouterr().out
        assert "command:  profile" in out
        metrics = history.load_run("0")["manifest"]["metrics"]
        for line in export.render_metrics(metrics).splitlines():
            assert "  " + line in out

    def test_obs_report_empty_ledger_is_an_error(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "report"]) == 1
        assert "error" in capsys.readouterr().err

    def test_manifest_has_span_duration_percentiles(self, capsys, tmp_path,
                                                    monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "report", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        histograms = manifest["metrics"]["histograms"]
        # Instruments zeroed by a run-boundary reset stay registered, so
        # only populated histograms carry percentile estimates.
        span_hists = [
            name for name, stats in histograms.items()
            if name.startswith("span.") and stats["count"]
        ]
        assert span_hists
        for name in span_hists:
            assert histograms[name]["p50"] is not None
            assert histograms[name]["p99"] is not None


class TestServe:
    """``--serve-port`` on sweeps and the ``repro obs serve`` verb."""

    def _get(self, url):
        import urllib.request

        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()

    def test_serve_port_serves_a_running_sweep(self, capsys, tmp_path,
                                               monkeypatch):
        import json as json_module
        import threading
        import urllib.request

        from repro.obs import openmetrics

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        scraped = {}

        def scrape(port, tries=500):
            import time

            url = f"http://127.0.0.1:{port}"
            for _ in range(tries):
                try:
                    with urllib.request.urlopen(
                        url + "/status", timeout=1
                    ) as response:
                        status = json_module.loads(response.read())
                    if status["gauges"].get("progress.completed", 0) >= 1:
                        with urllib.request.urlopen(
                            url + "/metrics", timeout=1
                        ) as response:
                            scraped["content_type"] = response.headers[
                                "Content-Type"
                            ]
                            scraped["metrics"] = response.read().decode()
                        scraped["status"] = status
                        return
                except Exception:
                    pass
                time.sleep(0.01)

        port = 18123
        scraper = threading.Thread(target=scrape, args=(port,))
        scraper.start()
        assert main(
            ["dataset", "--suite", "rate-int", "--jobs", "2",
             "--serve-port", str(port), "--no-disk-cache"]
        ) == 0
        scraper.join()
        assert "metrics" in scraped, "scrape never caught the sweep"
        assert scraped["content_type"].startswith(
            "application/openmetrics-text"
        )
        families = openmetrics.parse_openmetrics(scraped["metrics"])
        assert "repro_progress_completed" in families
        assert any(f.startswith("repro_executor_") for f in families)
        assert scraped["status"]["sweeps"], "no in-flight sweep reported"
        # The endpoint must be gone once the command returns.
        from repro.obs import live as obs_live

        assert obs_live.active_hub() is None

    def test_serve_port_does_not_change_the_digest(self, capsys, tmp_path,
                                                   monkeypatch):
        import re

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--no-disk-cache"]) == 0
        control = re.search(r"digest:\s+([0-9a-f]{64})",
                            capsys.readouterr().out).group(1)
        assert main(["dataset", "--suite", "rate-int", "--no-disk-cache",
                     "--serve-port", "0"]) == 0
        served = re.search(r"digest:\s+([0-9a-f]{64})",
                           capsys.readouterr().out).group(1)
        assert served == control

    def test_obs_serve_serves_the_latest_ledger_run(self, capsys, tmp_path,
                                                    monkeypatch):
        import json as json_module
        import threading

        from repro.obs import history, openmetrics

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0
        capsys.readouterr()
        port = 18124
        scraped = {}

        def scrape(tries=500):
            import time

            url = f"http://127.0.0.1:{port}"
            for _ in range(tries):
                try:
                    scraped["metrics"] = self._get(url + "/metrics")[1]
                    scraped["status"] = json_module.loads(
                        self._get(url + "/status")[1]
                    )
                    return
                except Exception:
                    pass
                time.sleep(0.01)

        scraper = threading.Thread(target=scrape)
        scraper.start()
        assert main(["obs", "serve", "--port", str(port),
                     "--for-seconds", "3"]) == 0
        scraper.join()
        assert "metrics" in scraped
        # /metrics is a view of the recorded run, byte for byte.
        manifest = history.load_run("latest")["manifest"]
        assert scraped["metrics"] == openmetrics.render_openmetrics(
            manifest["metrics"], manifest
        )
        families = openmetrics.parse_openmetrics(scraped["metrics"])
        assert "repro_run_info" in families
        assert scraped["status"]["source"] == "ledger"
        assert scraped["status"]["run"]["command"] == "profile"

    def test_obs_serve_empty_ledger_falls_back_to_live(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "serve", "--port", "0", "--for-seconds", "0",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "live"
        assert payload["run"] is None


class TestAnalyze:
    def test_init_append_status_flow(self, capsys, tmp_path):
        directory = str(tmp_path / "store")
        assert main(
            ["analyze", "init", directory, "--suite", "rate-int", "--json"]
        ) == 0
        init = json.loads(capsys.readouterr().out)
        assert init["rows"] >= 2
        assert init["representatives"]

        assert main(
            ["analyze", "append", directory, "619.lbm_s", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "619.lbm_s"
        assert report["index"] == init["rows"]
        assert len(report["coordinates"]) >= 1
        impact = report["subset_impact"]
        assert isinstance(impact["subset_changed"], bool)
        assert impact["representatives"]

        assert main(["analyze", "status", directory, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["rows"] == init["rows"] + 1
        assert status["rows_folded"] == status["rows"]
        assert status["representatives"]

    def test_human_readable_append_mentions_the_subset(
        self, capsys, tmp_path
    ):
        directory = str(tmp_path / "store")
        assert main(["analyze", "init", directory]) == 0
        capsys.readouterr()
        assert main(["analyze", "append", directory, "619.lbm_s"]) == 0
        out = capsys.readouterr().out
        assert "PC coordinates" in out
        assert "cluster" in out
        assert "subset:" in out
        assert "drift" not in out

    def test_append_duplicate_workload_is_an_error(self, capsys, tmp_path):
        directory = str(tmp_path / "store")
        assert main(["analyze", "init", directory]) == 0
        capsys.readouterr()
        assert main(["analyze", "append", directory, "505.mcf_r"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_status_of_missing_store_is_an_error(self, capsys, tmp_path):
        assert main(["analyze", "status", str(tmp_path / "none")]) == 1
        assert "error:" in capsys.readouterr().err
