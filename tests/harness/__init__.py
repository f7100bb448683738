"""Reusable integration-test harness for the Airphant reproduction.

Importable from any test module (``tests/conftest.py`` puts the ``tests/``
directory on ``sys.path``):

* :mod:`harness.s3_emulator` — an in-process, ephemeral-port S3 endpoint
  (path-style GET/HEAD/PUT/DELETE + paginated ListObjectsV2) for MinIO-style
  end-to-end tests without a real service;
* :mod:`harness.prometheus` — a strict parser for the Prometheus text
  exposition format, used to assert ``GET /metrics`` payloads are valid;
* :mod:`harness.stores` — counting/recording store wrappers for asserting
  exactly what traffic (and which call sequence) reached a backend, plus
  observers of the stores' ``airphant-fetch*`` pool threads (and a
  time-bounded ``os.fork()`` runner);
* :mod:`harness.crashpoints` — a fault-point store wrapper that simulates
  process death at exact WAL/flush/compaction mutation points, for
  crash-consistency tests of the mutable-document lifecycle;
* :mod:`harness.legacy_header` — the pre-v3 JSON header writer (fixtures for
  the legacy reader) and the old place-every-bin blob layout (the reference
  ``superposts.bin`` must stay byte-identical to).
"""

from harness.crashpoints import FaultPoint, FaultPointStore, SimulatedCrash
from harness.prometheus import MetricFamily, parse_prometheus
from harness.s3_emulator import S3Emulator
from harness.stores import CountingStore, RecordingStore

__all__ = [
    "CountingStore",
    "FaultPoint",
    "FaultPointStore",
    "MetricFamily",
    "RecordingStore",
    "S3Emulator",
    "SimulatedCrash",
    "parse_prometheus",
]
