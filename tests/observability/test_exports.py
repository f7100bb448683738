"""End-to-end tests of the three metrics export surfaces.

* ``GET /metrics`` — valid Prometheus exposition with pipeline, resilience,
  backend, facade, and simulated-store families populated after builds and
  searches over ``mem://``, ``sim://``, and the emulated ``s3://`` harness
  (the PR's acceptance criterion);
* ``GET /healthz`` — the compact ``metrics`` summary block;
* ``airphant stats`` — the CLI snapshot, in both local-probe and scrape
  modes.
"""

from __future__ import annotations

import http.server
import json
import threading
import urllib.error
import urllib.request

import pytest
from harness.prometheus import parse_prometheus

from repro.cli import main
from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry
from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.service.http import create_server
from repro.storage.registry import open_store

CORPUS = b"error disk full\ninfo started\nerror timeout\nwarn noise"


def _drive(service: AirphantService) -> None:
    """Build a tiny index and run one query of every mode through ``service``."""
    service.store.put("corpora/logs.txt", CORPUS)
    service.build_index("logs", ["corpora/logs.txt"], sketch_config=SketchConfig(num_bins=64))
    assert service.search(SearchRequest(query="error", index="logs")).num_results == 2
    service.search(SearchRequest(query="error AND disk", index="logs", mode="boolean"))
    service.close()


@pytest.fixture
def server():
    """An HTTP server over a mem:// service (resilience wrapper on)."""
    service = AirphantService.from_uri("mem://", ServiceConfig(retries=1))
    http_server = create_server(service)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5)
        service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as response:
        return response.status, response.headers, response.read().decode("utf-8")


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_populated_across_backends(
        self, server, s3_emulator
    ):
        # Drive traffic through all three backend families first: the plain
        # in-memory one behind the server, a simulated store (virtual-clock
        # accounting), and the emulated S3 endpoint (real HTTP requests).
        _drive(AirphantService.from_uri("sim://", ServiceConfig(retries=1)))
        _drive(AirphantService.from_uri(s3_emulator.uri()))
        _drive(server.service)

        status, headers, body = _get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus(body)  # raises on any format violation

        # Pipeline, resilience, backend, facade, and simulated-store
        # families all populated on the one shared exposition page.
        assert families["airphant_pipeline_logical_requests_total"].total() > 0
        assert families["airphant_pipeline_physical_requests_total"].total() > 0
        assert families["airphant_resilience_operations_total"].total() > 0
        assert families["airphant_resilience_attempts_total"].total() > 0
        backend = families["airphant_backend_requests_total"]
        assert any(s.labels.get("backend") == "s3" for s in backend.samples)
        assert families["airphant_backend_request_seconds"].samples
        assert families["airphant_queries_total"].total() > 0
        assert (
            families["airphant_query_seconds"].histogram_count(
                mode="keyword", index="logs"
            )
            > 0
        )
        assert families["airphant_builds_total"].total() > 0
        assert families["airphant_sim_round_trips_total"].total() > 0

    def test_metrics_monotonically_increase_with_traffic(self, server):
        _drive(server.service)
        first = parse_prometheus(_get(f"{server.url}/metrics")[2])
        before = first["airphant_queries_total"].total()
        _drive(server.service)
        second = parse_prometheus(_get(f"{server.url}/metrics")[2])
        assert second["airphant_queries_total"].total() >= before + 2

    def test_metrics_disabled_answers_404(self):
        service = AirphantService.from_uri(
            "mem://", ServiceConfig(metrics_enabled=False)
        )
        http_server = create_server(service)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{http_server.url}/metrics")
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["error"] == "metrics_disabled"
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)
            service.close()


class TestErrorAccounting:
    def test_lookup_failures_land_in_the_error_counter(self):
        registry = MetricsRegistry()
        service = AirphantService(open_store("mem://"), metrics=registry)
        with pytest.raises(ServiceError):
            service.lookup_postings("missing", "word")
        errors = registry.counter("airphant_query_errors_total", label_names=("error",))
        assert errors.value(error="index_not_found") == 1
        service.close()

    def test_untyped_failures_count_as_internal_error(self, monkeypatch):
        """A failure without a typed code (HTTP 500 class) must not be a
        flat line in the error counters."""
        registry = MetricsRegistry()
        service = AirphantService(open_store("mem://"), metrics=registry)
        service.store.put("corpora/logs.txt", CORPUS)
        service.build_index(
            "logs", ["corpora/logs.txt"], sketch_config=SketchConfig(num_bins=64)
        )
        service.searcher("logs")

        def broken(*args, **kwargs):
            raise RuntimeError("a programming error")

        monkeypatch.setattr(service.store, "read_batch", broken)
        with pytest.raises(RuntimeError):
            service.search(SearchRequest(query="error", index="logs"))
        errors = registry.counter("airphant_query_errors_total", label_names=("error",))
        assert errors.value(error="internal_error") == 1
        service.close()

    def test_a_missing_document_blob_counts_as_index_corrupt(self):
        """A blob missing from an index opened from its current manifest is
        the store's fault: typed, and counted under its code."""
        registry = MetricsRegistry()
        service = AirphantService(open_store("mem://"), metrics=registry)
        service.store.put("corpora/logs.txt", CORPUS)
        service.build_index(
            "logs", ["corpora/logs.txt"], sketch_config=SketchConfig(num_bins=64)
        )
        service.store.delete("corpora/logs.txt")
        with pytest.raises(ServiceError) as caught:
            service.search(SearchRequest(query="error", index="logs"))
        assert (caught.value.info.status, caught.value.info.error) == (502, "index_corrupt")
        assert "corpora/logs.txt" in caught.value.info.message
        errors = registry.counter("airphant_query_errors_total", label_names=("error",))
        assert errors.value(error="index_corrupt") == 1
        assert errors.value(error="internal_error") == 0
        service.close()


class TestHealthzMetricsBlock:
    def test_healthz_carries_a_metrics_summary(self, server):
        _drive(server.service)
        _, _, body = _get(f"{server.url}/healthz")
        payload = json.loads(body)
        assert payload["config"]["metrics_enabled"] is True
        summary = payload["metrics"]
        assert summary["airphant_queries_total"] >= 2
        assert summary["airphant_query_seconds"]["count"] >= 2
        assert {"p50", "p95", "p99"} <= set(summary["airphant_query_seconds"])

    def test_disabled_metrics_drop_the_block(self):
        service = AirphantService.from_uri(
            "mem://", ServiceConfig(metrics_enabled=False)
        )
        assert "metrics" not in service.health()
        # The facade records nothing either: the registry stays silent.
        service.store.put("corpora/logs.txt", CORPUS)
        service.build_index(
            "logs", ["corpora/logs.txt"], sketch_config=SketchConfig(num_bins=64)
        )
        service.search(SearchRequest(query="error", index="logs"))
        assert service.metrics.to_prometheus() == ""
        service.close()


class TestStatsCLI:
    @pytest.fixture
    def bucket(self, tmp_path):
        path = tmp_path / "bucket"
        path.mkdir()
        (path / "corpora").mkdir()
        (path / "corpora" / "logs.txt").write_bytes(CORPUS)
        assert (
            main(
                [
                    "build",
                    "--bucket",
                    str(path),
                    "--blobs",
                    "corpora/logs.txt",
                    "--index",
                    "logs",
                    "--bins",
                    "64",
                ]
            )
            == 0
        )
        return path

    def test_local_probe_replays_a_query_and_prints_json(self, bucket, capsys):
        code = main(
            [
                "stats",
                "--bucket",
                str(bucket),
                "--index",
                "logs",
                "--query",
                "error",
                "--repeat",
                "3",
            ]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["airphant_queries_total"]["total"] >= 3
        assert "airphant_query_seconds" in snapshot["histograms"]

    def test_local_probe_prometheus_format_is_valid(self, bucket, capsys):
        code = main(
            [
                "stats",
                "--bucket",
                str(bucket),
                "--index",
                "logs",
                "--query",
                "error",
                "--format",
                "prometheus",
            ]
        )
        assert code == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert (
            families["airphant_queries_total"].value(mode="keyword", index="logs") >= 1
        )

    def test_query_without_index_is_rejected(self, bucket, capsys):
        assert main(["stats", "--bucket", str(bucket), "--query", "error"]) == 2
        assert "--index" in capsys.readouterr().err

    def test_replay_flags_are_rejected_in_scrape_mode(self, capsys):
        # Scrape mode cannot replay queries on the remote node; accepting
        # these flags silently would fake a replay that never happened.
        assert (
            main(["stats", "--url", "http://127.0.0.1:9", "--query", "error"]) == 2
        )
        assert "cannot be combined with --url" in capsys.readouterr().err

    def test_scrape_mode_reads_a_live_node(self, server, capsys):
        _drive(server.service)
        assert main(["stats", "--url", server.url]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["airphant_queries_total"] >= 2

        assert main(["stats", "--url", server.url, "--format", "prometheus"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert families["airphant_queries_total"].total() >= 2

    def test_scrape_mode_reports_unreachable_nodes(self, capsys):
        assert main(["stats", "--url", "http://127.0.0.1:9", "--format", "json"]) == 2
        assert "could not scrape" in capsys.readouterr().err

    def test_scrape_mode_rejects_non_json_answers(self, capsys):
        class _Splash(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                body = b"<html>totally not airphant</html>"
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # noqa: A002
                pass

        splash = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Splash)
        thread = threading.Thread(target=splash.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{splash.server_address[1]}"
            assert main(["stats", "--url", url]) == 2
            assert "did not answer JSON" in capsys.readouterr().err
        finally:
            splash.shutdown()
            splash.server_close()
            thread.join(timeout=5)
