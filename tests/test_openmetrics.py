"""Round-trip tests for the OpenMetrics renderer (repro.obs.openmetrics).

Every rendered exposition must parse under the strict grammar reader,
and the parsed families must faithfully reproduce the snapshot — so the
renderer cannot drift off the exposition-format spec unnoticed.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import openmetrics


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


def make_snapshot():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("profiler.cache.miss").add(70)
    registry.counter("profiler.cache.hit").add(3)
    registry.gauge("executor.pool.jobs").set(4)
    hist = registry.histogram("span.profile.wall_seconds")
    for value in (0.001, 0.002, 0.004, 0.008, 0.5):
        hist.observe(value)
    return registry.snapshot()


def make_manifest():
    return {
        "command": "profile",
        "version": "1.0.0",
        "elapsed_s": 0.62,
        "stages": {
            "profile": {"calls": 1, "wall_s": 0.002, "cpu_s": 0.001},
            "calibration.fit": {"calls": 78, "wall_s": 0.6, "cpu_s": 0.3},
        },
    }


class TestRender:
    def test_counter_total_suffix(self):
        text = openmetrics.render_openmetrics(make_snapshot())
        assert "# TYPE repro_profiler_cache_miss counter" in text
        assert "repro_profiler_cache_miss_total 70" in text

    def test_gauge(self):
        text = openmetrics.render_openmetrics(make_snapshot())
        assert "# TYPE repro_executor_pool_jobs gauge" in text
        assert "repro_executor_pool_jobs 4" in text

    def test_histogram_buckets_and_quantiles(self):
        text = openmetrics.render_openmetrics(make_snapshot())
        assert "# TYPE repro_span_profile_wall_seconds histogram" in text
        assert 'repro_span_profile_wall_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_span_profile_wall_seconds_count 5" in text
        assert (
            "# TYPE repro_span_profile_wall_seconds_quantiles summary"
            in text
        )
        assert 'quantile="0.5"' in text
        assert 'quantile="0.95"' in text
        assert 'quantile="0.99"' in text

    def test_manifest_stage_series(self):
        text = openmetrics.render_openmetrics(
            make_snapshot(), make_manifest()
        )
        assert 'repro_stage_wall_seconds{stage="calibration.fit"} 0.6' in text
        assert 'repro_stage_calls_total{stage="calibration.fit"} 78' in text
        assert 'repro_run_info{command="profile",version="1.0.0"} 1' in text

    def test_ends_with_eof(self):
        text = openmetrics.render_openmetrics(make_snapshot())
        assert text.endswith("# EOF\n")

    def test_name_sanitization(self):
        assert openmetrics.sanitize_name("a.b-c") == "repro_a_b_c"
        assert openmetrics.sanitize_name("9lives") == "repro__9lives"

    def test_label_escaping_roundtrip(self):
        manifest = make_manifest()
        manifest["stages"] = {
            'tricky "stage"\\path': {
                "calls": 1, "wall_s": 0.1, "cpu_s": 0.1
            }
        }
        text = openmetrics.render_openmetrics({}, manifest)
        families = openmetrics.parse_openmetrics(text)
        samples = families["repro_stage_wall_seconds"]["samples"]
        assert samples[0][1]["stage"] == 'tricky "stage"\\path'

    def test_write_metrics_file(self, tmp_path):
        path = openmetrics.write_metrics(
            tmp_path / "metrics.txt", make_snapshot(), make_manifest()
        )
        openmetrics.parse_openmetrics(path.read_text())


class TestRoundTrip:
    def test_full_roundtrip_values(self):
        snapshot = make_snapshot()
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(snapshot, make_manifest())
        )
        miss = families["repro_profiler_cache_miss"]
        assert miss["type"] == "counter"
        assert miss["samples"] == [
            ("repro_profiler_cache_miss_total", {}, 70.0)
        ]
        hist = families["repro_span_profile_wall_seconds"]
        assert hist["type"] == "histogram"
        counts = {
            labels["le"]: value
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        }
        assert counts["+Inf"] == 5.0

    def test_quantiles_match_snapshot(self):
        snapshot = make_snapshot()
        stats = snapshot["histograms"]["span.profile.wall_seconds"]
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(snapshot)
        )
        quantiles = {
            labels["quantile"]: value
            for name, labels, value in families[
                "repro_span_profile_wall_seconds_quantiles"
            ]["samples"]
            if labels.get("quantile")
        }
        assert quantiles["0.5"] == pytest.approx(stats["p50"])
        assert quantiles["0.95"] == pytest.approx(stats["p95"])
        assert quantiles["0.99"] == pytest.approx(stats["p99"])

    def test_live_registry_roundtrip(self):
        obs.enable()
        obs.incr("trace.engine.instructions", 200_000)
        obs.observe("span.chunk.wall_seconds", 0.25)
        obs.set_gauge("executor.pool.inflight", 2)
        obs.disable()
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(obs.snapshot())
        )
        assert (
            families["repro_trace_engine_instructions"]["samples"][0][2]
            == 200_000
        )

    def test_empty_snapshot_is_valid(self):
        text = openmetrics.render_openmetrics(
            {"counters": {}, "gauges": {}, "histograms": {}}
        )
        assert openmetrics.parse_openmetrics(text) == {}


class TestProfilerSeries:
    def test_profiler_session_series_roundtrip(self):
        # The resource profiler publishes through always-live handles;
        # its series must survive the full render -> parse round trip.
        import time

        from repro.obs import profiling

        profiler = profiling.ResourceProfiler(
            mode="all", sampler="thread", interval_s=0.001
        )
        profiler.start()
        deadline = time.monotonic() + 0.1
        while time.monotonic() < deadline:
            sum(range(100))
        data = profiler.stop()
        obs_metrics.histogram("profiler.queue_wait_seconds").observe(0.125)
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(obs_metrics.snapshot())
        )
        samples = families["repro_profiler_samples"]
        assert samples["type"] == "counter"
        assert samples["samples"] == [
            ("repro_profiler_samples_total", {}, float(data.sample_count))
        ]
        rss = families["repro_profiler_peak_rss_bytes"]
        assert rss["type"] == "gauge"
        assert rss["samples"][0][2] == float(data.peak_rss_bytes)
        assert data.peak_rss_bytes > 0
        assert "repro_profiler_peak_alloc_bytes" in families
        queue = families["repro_profiler_queue_wait_seconds"]
        assert queue["type"] == "histogram"
        inf_bucket = next(
            value
            for name, labels, value in queue["samples"]
            if name.endswith("_bucket") and labels.get("le") == "+Inf"
        )
        assert inf_bucket == 1.0


class TestUnits:
    def test_unit_metadata_for_suffixed_families(self):
        text = openmetrics.render_openmetrics(make_snapshot())
        assert "# UNIT repro_span_profile_wall_seconds seconds" in text
        # No unit suffix -> no UNIT line.
        assert "# UNIT repro_executor_pool_jobs" not in text

    def test_spill_tier_series_roundtrip(self):
        # The trace cache's eviction counter and byte gauge must survive
        # the full render -> parse round trip with their unit metadata
        # intact.
        registry = obs_metrics.MetricsRegistry()
        registry.counter("trace_cache.evict").add(3)
        registry.gauge("trace_cache.resident_bytes").set(4096)
        families = openmetrics.parse_openmetrics(
            openmetrics.render_openmetrics(registry.snapshot())
        )
        assert families["repro_trace_cache_evict"]["samples"] == [
            ("repro_trace_cache_evict_total", {}, 3.0)
        ]
        resident = families["repro_trace_cache_resident_bytes"]
        assert resident["type"] == "gauge"
        assert resident["unit"] == "bytes"
        assert resident["samples"][0][2] == 4096.0

    def test_spill_series_reach_metrics_out_file(self, tmp_path):
        # A gated trace-cache counter recorded while obs is enabled must
        # land in the --metrics-out exposition exactly like the CLI path.
        obs.enable()
        obs.incr("trace_cache.evict")
        obs.set_gauge("trace_cache.resident_bytes", 8192)
        obs.disable()
        path = openmetrics.write_metrics(
            tmp_path / "metrics.txt", obs.snapshot()
        )
        families = openmetrics.parse_openmetrics(path.read_text())
        assert "repro_trace_cache_evict" in families
        assert families["repro_trace_cache_resident_bytes"]["unit"] == "bytes"

    def test_rejects_unit_for_undeclared_family(self):
        text = "# UNIT x_bytes bytes\n# TYPE x_bytes gauge\nx_bytes 1\n# EOF"
        with pytest.raises(ValueError, match="undeclared"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_unit_not_matching_name_suffix(self):
        text = "# TYPE x gauge\n# UNIT x bytes\nx 1\n# EOF"
        with pytest.raises(ValueError, match="suffixed"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_duplicate_unit(self):
        text = (
            "# TYPE x_bytes gauge\n# UNIT x_bytes bytes\n"
            "# UNIT x_bytes bytes\nx_bytes 1\n# EOF"
        )
        with pytest.raises(ValueError, match="duplicate UNIT"):
            openmetrics.parse_openmetrics(text)


class TestParserGrammar:
    def test_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            openmetrics.parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_rejects_undeclared_sample(self):
        with pytest.raises(ValueError, match="no\n?.*TYPE|TYPE"):
            openmetrics.parse_openmetrics("mystery_metric 1\n# EOF")

    def test_rejects_bad_suffix_for_type(self):
        text = "# TYPE x counter\nx 1\n# EOF"
        with pytest.raises(ValueError):
            openmetrics.parse_openmetrics(text)

    def test_rejects_malformed_sample(self):
        text = "# TYPE x gauge\nx one_point_five\n# EOF"
        with pytest.raises(ValueError, match="bad sample value"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_non_cumulative_histogram(self):
        text = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="1"} 5',
            'h_bucket{le="2"} 3',
            'h_bucket{le="+Inf"} 5',
            "h_sum 4",
            "h_count 5",
            "# EOF",
        ])
        with pytest.raises(ValueError, match="cumulative"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_histogram_without_inf_bucket(self):
        text = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="1"} 5',
            "h_sum 4",
            "h_count 5",
            "# EOF",
        ])
        with pytest.raises(ValueError, match="Inf"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="+Inf"} 5',
            "h_sum 4",
            "h_count 7",
            "# EOF",
        ])
        with pytest.raises(ValueError, match="!="):
            openmetrics.parse_openmetrics(text)

    def test_rejects_duplicate_family(self):
        text = "# TYPE x gauge\n# TYPE x gauge\nx 1\n# EOF"
        with pytest.raises(ValueError, match="duplicate"):
            openmetrics.parse_openmetrics(text)

    def test_rejects_bad_label_syntax(self):
        text = '# TYPE x gauge\nx{bad labels} 1\n# EOF'
        with pytest.raises(ValueError):
            openmetrics.parse_openmetrics(text)

    def test_infinite_values_parse(self):
        text = "# TYPE x gauge\nx +Inf\n# EOF"
        families = openmetrics.parse_openmetrics(text)
        assert math.isinf(families["x"]["samples"][0][2])
