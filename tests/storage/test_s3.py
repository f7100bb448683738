"""Tests for the S3-compatible adapter against the in-test S3 emulator.

The emulator lives in ``tests/harness/s3_emulator.py`` (shared with the
MinIO-style integration tests in ``tests/integration/test_s3_harness.py``)
and speaks just enough of the S3 REST protocol — path-style
GET/HEAD/PUT/DELETE plus paginated ListObjectsV2 XML — to exercise the
adapter end to end, including a full build → search round trip through the
service facade.
"""

import pytest
from harness.connections import ConnectionCounter

from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry
from repro.service import AirphantService, SearchRequest
from repro.storage.base import BlobNotFoundError, RangeRead
from repro.storage.registry import open_store
from repro.storage.s3 import S3Credentials, S3ObjectStore, sign_v4


@pytest.fixture
def store(s3_emulator):
    return S3ObjectStore(
        s3_emulator.bucket, endpoint=s3_emulator.endpoint, credentials=None
    )


class TestCrud:
    def test_put_get_round_trip(self, store, s3_emulator):
        store.put("dir/blob.bin", b"payload-bytes")
        assert s3_emulator.objects["dir/blob.bin"] == b"payload-bytes"
        assert store.get("dir/blob.bin") == b"payload-bytes"

    def test_range_reads_are_served_with_206(self, store):
        blob = bytes(range(200))
        store.put("blob", blob)
        assert store.get_range("blob", 10, 20) == blob[10:30]
        assert store.get_range("blob", 190) == blob[190:]
        assert store.get_range("blob", 500, 10) == b""

    def test_size_exists_delete(self, store):
        store.put("blob", b"12345")
        assert store.size("blob") == 5
        assert store.exists("blob")
        store.delete("blob")
        assert not store.exists("blob")
        store.delete("blob")  # idempotent
        with pytest.raises(BlobNotFoundError):
            store.get("blob")

    def test_list_blobs_paginates(self, store):
        names = [f"idx/part-{i:02d}" for i in range(8)] + ["other/x"]
        for name in names:
            store.put(name, b"1")
        assert store.list_blobs("idx/") == sorted(n for n in names if n.startswith("idx/"))
        assert store.list_blobs() == sorted(names)
        assert store.total_bytes("idx/") == 8

    def test_prefix_scopes_all_operations(self, s3_emulator):
        scoped = S3ObjectStore(
            s3_emulator.bucket,
            prefix="tenant-a",
            endpoint=s3_emulator.endpoint,
            credentials=None,
        )
        scoped.put("blob", b"abc")
        assert s3_emulator.objects == {"tenant-a/blob": b"abc"}
        assert scoped.list_blobs() == ["blob"]
        assert scoped.get_range("blob", 1, 1) == b"b"


class TestConnections:
    """``airphant_backend_connections_total`` is what the server accepted."""

    @staticmethod
    def _metered(s3_emulator):
        registry = MetricsRegistry()
        store = S3ObjectStore(
            s3_emulator.bucket,
            endpoint=s3_emulator.endpoint,
            credentials=S3Credentials("AKIDEXAMPLE", "secret"),
            metrics=registry,
        )
        # The emulator's server, to count what it accepts.
        return store, registry, ConnectionCounter(s3_emulator._server)

    @staticmethod
    def _opened(registry):
        return registry.get("airphant_backend_connections_total").value(backend="s3")

    def test_every_verb_rides_one_connection(self, s3_emulator):
        store, registry, connections = self._metered(s3_emulator)
        for index in range(8):
            store.put(f"idx/part-{index}", bytes(range(index + 1)))
        assert store.get_range("idx/part-7", 2, 3) == bytes([2, 3, 4])
        assert store.size("idx/part-3") == 4 and store.exists("idx/part-0")
        assert len(store.list_blobs("idx/")) == 8  # three signed ListObjectsV2 pages
        store.delete("idx/part-0")
        with pytest.raises(BlobNotFoundError):
            store.get("idx/part-0")
        assert connections.count == self._opened(registry) == 1

    def test_a_64_read_wave_at_width_32_opens_at_most_32(self, s3_emulator):
        store, registry, connections = self._metered(s3_emulator)
        blob = bytes(range(256)) * 4
        store.put("blob", blob)
        requests = [RangeRead("blob", 16 * index, 16) for index in range(64)]
        result = store.read_batch(requests, max_concurrency=32)
        assert result.payloads == [blob[16 * i : 16 * (i + 1)] for i in range(64)]
        assert 1 <= connections.count == self._opened(registry) <= 32
        store.close()


class TestSigning:
    def test_unsigned_requests_without_credentials(self, store, s3_emulator):
        store.put("blob", b"x")
        store.get("blob")
        assert all(header is None for header in s3_emulator.seen_auth_headers)

    def test_signed_requests_carry_sigv4_authorization(self, s3_emulator):
        creds = S3Credentials(access_key="AKIDEXAMPLE", secret_key="secret")
        signed = S3ObjectStore(
            s3_emulator.bucket,
            endpoint=s3_emulator.endpoint,
            credentials=creds,
            region="eu-west-1",
        )
        signed.put("blob", b"x")
        assert signed.get("blob") == b"x"
        headers = [h for h in s3_emulator.seen_auth_headers if h]
        assert headers, "no Authorization header reached the server"
        for header in headers:
            assert header.startswith("AWS4-HMAC-SHA256 Credential=AKIDEXAMPLE/")
            assert "/eu-west-1/s3/aws4_request" in header
            assert "SignedHeaders=" in header and "Signature=" in header

    def test_credentials_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("AWS_ACCESS_KEY_ID", "AKENV")
        monkeypatch.setenv("AWS_SECRET_ACCESS_KEY", "sekrit")
        monkeypatch.setenv("AWS_SESSION_TOKEN", "tok")
        creds = S3Credentials.from_env()
        assert creds == S3Credentials("AKENV", "sekrit", "tok")
        monkeypatch.delenv("AWS_ACCESS_KEY_ID")
        assert S3Credentials.from_env() is None

    def test_sign_v4_is_deterministic(self):
        from datetime import datetime, timezone

        creds = S3Credentials("AKIDEXAMPLE", "wJalrXUtnFEMI")
        now = datetime(2026, 7, 27, 12, 0, 0, tzinfo=timezone.utc)
        first = sign_v4(
            "GET", "http://h/bucket/key?list-type=2", "us-east-1", creds, "e3b0c442", now=now
        )
        second = sign_v4(
            "GET", "http://h/bucket/key?list-type=2", "us-east-1", creds, "e3b0c442", now=now
        )
        assert first == second
        assert first["x-amz-date"] == "20260727T120000Z"


class TestEndToEnd:
    def test_registry_resolves_s3_uri(self, s3_emulator):
        store = open_store(s3_emulator.uri(prefix="exports"))
        assert isinstance(store, S3ObjectStore)
        store.put("blob", b"via-registry")
        assert store.get("blob") == b"via-registry"

    def test_build_and_search_through_the_service(self, s3_emulator):
        service = AirphantService.from_uri(s3_emulator.uri())
        service.store.put(
            "corpora/logs.txt",
            b"error disk full\ninfo started\nerror timeout\nwarn noise",
        )
        service.build_index(
            "logs", ["corpora/logs.txt"], sketch_config=SketchConfig(num_bins=64)
        )
        response = service.search(SearchRequest(query="error", index="logs"))
        assert response.num_results == 2
        assert all("error" in hit.text for hit in response.documents)
        # Discovery works because S3 (unlike plain HTTP) can list.
        assert [info.name for info in service.list_indexes()] == ["logs"]
        service.close()
