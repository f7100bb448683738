"""Tests for the ``airphant`` command-line interface."""

import functools
import http.server
import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.service.config import READ_CACHE_BYTES


@pytest.fixture
def bucket(tmp_path) -> str:
    return str(tmp_path / "bucket")


def _generate_and_build(bucket: str, capsys) -> None:
    assert main([
        "generate", "--bucket", bucket, "--kind", "hdfs", "--documents", "500", "--seed", "3",
    ]) == 0
    assert main([
        "build", "--bucket", bucket, "--blobs", "corpora/hdfs.txt",
        "--index", "hdfs-index", "--bins", "512",
    ]) == 0
    capsys.readouterr()


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--bucket", "/tmp/b"])
        assert args.kind == "hdfs"
        assert args.documents == 10_000

    def test_search_flags(self):
        args = build_parser().parse_args(
            ["search", "--bucket", "/tmp/b", "--index", "i", "--query", "q", "--mode", "regex"]
        )
        assert args.mode == "regex"
        assert not args.json
        assert args.read_cache_bytes == READ_CACHE_BYTES

    def test_ranked_mode_flags(self):
        args = build_parser().parse_args([
            "search", "--bucket", "/tmp/b", "--index", "i", "--query", "q",
            "--mode", "topk-bm25", "-k", "5", "--weight", "disk=2.5",
        ])
        assert args.mode == "topk-bm25"
        assert args.top_k == 5
        assert args.weight == ["disk=2.5"]

    def test_mode_rejects_unknown_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "search", "--bucket", "/tmp/b", "--index", "i", "--query", "q",
                "--mode", "fuzzy",
            ])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--bucket", "/tmp/b"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.read_cache_bytes == READ_CACHE_BYTES

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--bucket", "/tmp/b", "--port", "0", "--read-cache-bytes", "0"]
        )
        assert args.port == 0
        assert args.read_cache_bytes == 0

    def test_retired_read_path_flags_are_gone(self):
        for flag in ("--query-cache-size", "--coalesce-gap", "--replication-factor"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--bucket", "/tmp/b", flag, "16"])
        search = ["search", "--bucket", "/tmp/b", "--index", "i", "--query", "q"]
        for argv in (
            [*search, "--regex"],
            [*search, "--boolean"],
            ["build", "--bucket", "/tmp/b", "--blobs", "c.txt", "--index", "i", "--format", "v1"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2


class TestGenerate:
    def test_generate_writes_blob(self, bucket, capsys):
        assert main(["generate", "--bucket", bucket, "--kind", "diag", "--documents", "50"]) == 0
        out = capsys.readouterr().out
        assert "50 documents" in out

    def test_generate_cranfield(self, bucket, capsys):
        assert main(
            ["generate", "--bucket", bucket, "--kind", "cranfield", "--documents", "30"]
        ) == 0
        assert "30 documents" in capsys.readouterr().out


class TestProfile:
    def test_profile_reports_statistics(self, bucket, capsys):
        main(["generate", "--bucket", bucket, "--kind", "hdfs", "--documents", "200"])
        capsys.readouterr()
        assert main(["profile", "--bucket", bucket, "--blobs", "corpora/hdfs.txt"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["documents"] == 200
        assert report["terms"] > 0
        assert report["sigma_x"] > 0


class TestBuildAndSearch:
    def test_build_then_search_round_trip(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--top-k", "5",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        results = [line for line in captured.out.splitlines() if line]
        assert 1 <= len(results) <= 5
        assert all("ERROR" in line for line in results)

    def test_search_unknown_word_exits_nonzero(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index", "--query", "zzznotaword",
        ])
        assert exit_code == 1

    def test_boolean_search(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "INFO AND dfs.DataNode", "--mode", "boolean", "--top-k", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        for line in [line for line in captured.out.splitlines() if line]:
            assert "INFO" in line and "dfs.DataNode" in line

    def test_ranked_search_prints_scores(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--mode", "topk-bm25", "-k", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        results = [line for line in captured.out.splitlines() if line]
        assert 1 <= len(results) <= 3
        scores = []
        for line in results:
            score_text, _, text = line.partition("\t")
            assert "ERROR" in text
            scores.append(float(score_text))
        assert all(0.0 <= score <= 1.0 for score in scores)
        assert scores == sorted(scores, reverse=True)

    def test_ranked_search_json_carries_scores(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--mode", "topk-bm25", "-k", "3", "--json",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["mode"] == "topk_bm25"
        assert all("score" in doc for doc in payload["documents"])

    def test_ranked_search_with_weights(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--mode", "topk-bm25", "-k", "3",
            "--weight", "ERROR=2.0",
        ])
        assert exit_code == 0

    def test_malformed_weight_fails_gracefully(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--mode", "topk-bm25", "--weight", "no-equals-sign",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "TERM=MULTIPLIER" in captured.err

    def test_simulated_latency_reported(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "blk_1", "--simulate-latency",
        ])
        captured = capsys.readouterr()
        assert exit_code in (0, 1)
        assert "ms simulated" in captured.err

    def test_search_json_output(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--top-k", "5", "--json",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["query"] == "ERROR"
        # Same SearchResponse shape the HTTP API returns.
        assert payload["index"] == "hdfs-index"
        assert payload["mode"] == "keyword"
        assert 1 <= payload["num_results"] <= 5
        assert all("ERROR" in doc["text"] for doc in payload["documents"])
        assert "latency" in payload

    def test_search_unknown_index_fails_gracefully(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "no-such-index", "--query", "ERROR",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no index named" in captured.err

    def test_search_with_read_cache_flag(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--index", "hdfs-index",
            "--query", "ERROR", "--top-k", "3", "--read-cache-bytes", "4096",
        ])
        assert exit_code == 0

    def test_build_reports_layers_and_storage(self, bucket, capsys):
        main(["generate", "--bucket", bucket, "--kind", "zipf", "--documents", "300"])
        capsys.readouterr()
        assert main([
            "build", "--bucket", bucket, "--blobs", "corpora/zipf.txt",
            "--index", "zipf-index", "--bins", "256", "--layers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "L = 2" in out
        assert "storage" in out


class TestStoreURIs:
    def test_bucket_and_store_are_mutually_exclusive(self, bucket):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "--bucket", bucket, "--store", "mem://", "--index", "i", "--query", "q"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--index", "i", "--query", "q"])

    def test_unknown_scheme_fails_gracefully(self, capsys):
        exit_code = main([
            "search", "--store", "gopher://x", "--index", "i", "--query", "q",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown store scheme" in captured.err

    def test_file_store_uri_round_trip(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--store", f"file://{bucket}", "--index", "hdfs-index",
            "--query", "ERROR", "--top-k", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert all("ERROR" in line for line in captured.out.splitlines() if line)

    def test_search_against_http_store_end_to_end(self, bucket, capsys):
        """Acceptance: `airphant search --store http://…` over stdlib http.server."""
        _generate_and_build(bucket, capsys)
        handler = functools.partial(
            http.server.SimpleHTTPRequestHandler, directory=bucket
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            exit_code = main([
                "search",
                "--store", f"http://127.0.0.1:{server.server_address[1]}",
                "--index", "hdfs-index",
                "--query", "ERROR",
                "--top-k", "3",
                "--retries", "2",
                "--hedge-ms", "200",
            ])
            captured = capsys.readouterr()
            assert exit_code == 0
            results = [line for line in captured.out.splitlines() if line]
            assert 1 <= len(results) <= 3
            assert all("ERROR" in line for line in results)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_build_against_http_store_reports_read_only(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        handler = functools.partial(
            http.server.SimpleHTTPRequestHandler, directory=bucket
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            exit_code = main([
                "build",
                "--store", f"http://127.0.0.1:{server.server_address[1]}",
                "--blobs", "corpora/hdfs.txt",
                "--index", "readonly-target",
                "--bins", "512",
            ])
            captured = capsys.readouterr()
            assert exit_code == 2
            assert "read-only" in captured.err
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_sim_store_uri_reports_latency(self, bucket, capsys):
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--store", f"sim://{bucket}?seed=3", "--simulate-latency",
            "--index", "hdfs-index", "--query", "blk_1",
        ])
        captured = capsys.readouterr()
        assert exit_code in (0, 1)
        assert "ms simulated" in captured.err

    def test_resilience_flags_do_not_zero_simulated_latency(self, bucket, capsys):
        """Regression: wrapping the simulator in ResilientStore used to hide
        it from the fetcher's virtual-clock path, reporting 0.0 ms."""
        _generate_and_build(bucket, capsys)
        exit_code = main([
            "search", "--bucket", bucket, "--simulate-latency", "--retries", "2",
            "--index", "hdfs-index", "--query", "ERROR", "--top-k", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        simulated = [
            part for part in captured.err.split(", ") if "ms simulated" in part
        ]
        assert simulated and not simulated[0].startswith("0.0 ms")

    def test_generate_against_read_only_store_fails_gracefully(self, bucket, capsys):
        """Regression: store errors outside build/search used to traceback."""
        _generate_and_build(bucket, capsys)
        handler = functools.partial(
            http.server.SimpleHTTPRequestHandler, directory=bucket
        )
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            exit_code = main([
                "generate",
                "--store", f"http://127.0.0.1:{server.server_address[1]}",
                "--kind", "diag", "--documents", "10",
            ])
            captured = capsys.readouterr()
            assert exit_code == 2
            assert "read-only" in captured.err
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args([
            "search", "--store", "mem://", "--index", "i", "--query", "q",
            "--retries", "3", "--retry-backoff-ms", "5", "--timeout-s", "2.5",
            "--hedge-ms", "40",
        ])
        assert args.retries == 3
        assert args.retry_backoff_ms == 5.0
        assert args.timeout_s == 2.5
        assert args.hedge_ms == 40.0
