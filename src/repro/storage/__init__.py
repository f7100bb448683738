"""Object-storage substrate used by Airphant and all baselines.

The paper persists everything (documents, superposts, index metadata) on cloud
object storage (GCS / S3).  This package provides:

* :class:`~repro.storage.base.ObjectStore` — the abstract blob interface with
  random-range reads, mirroring the byte-range GET supported by all major
  cloud vendors — plus the typed error taxonomy (:class:`BlobNotFoundError`,
  :class:`TransientStoreError`, :class:`ReadOnlyStoreError`) the resilience
  layer keys off.
* Concrete backends: :class:`~repro.storage.memory.InMemoryObjectStore`,
  :class:`~repro.storage.local.LocalObjectStore`,
  :class:`~repro.storage.httpstore.HTTPRangeStore` (standard ``Range``
  requests against any static file server, stdlib ``urllib`` only), and
  :class:`~repro.storage.s3.S3ObjectStore` (path-style S3-compatible
  endpoints, unsigned or SigV4-signed from ``AWS_*`` env credentials).
* :func:`~repro.storage.registry.open_store` — the URI-scheme registry
  (``mem://``, ``file://``, ``sim://``, ``http(s)://``, ``s3://``) that
  resolves any backend string to a store; third parties extend it with
  :func:`~repro.storage.registry.register_scheme`.
* :class:`~repro.storage.resilient.ResilientStore` — bounded retries with
  exponential backoff + jitter, per-request timeouts, and hedged duplicate
  reads after an adaptive latency percentile, wrapping any backend.
* :class:`~repro.storage.simulated.SimulatedCloudStore` — wraps any backend
  with the affine latency model of the paper's Figure 2 on a *virtual* clock
  (first-byte latency + transfer time), optional long-tail stragglers, and
  per-region round-trip times; :class:`~repro.storage.faults.FlakyStore` is
  its *wall-clock* counterpart, injecting real delays and transient errors
  to exercise the resilience layer.
* :meth:`ObjectStore.read_batch <repro.storage.base.ObjectStore.read_batch>`
  — issues a *batch* of range reads concurrently and reports what the wave
  cost, the primitive that IoU Sketch relies on; it returns a
  :class:`~repro.storage.parallel.FetchResult`.
* :class:`~repro.storage.pipeline.ReadPipeline` — sits between callers and
  ``read_batch``, deduplicating identical ranges, coalescing adjacent/overlapping
  ones into fewer larger requests, and serving repeats from a bounded LRU
  block cache.  All of this composes: a pipeline over a resilient store over
  an HTTP backend coalesces, caches, retries, and hedges remote range reads.
"""

from repro.storage.base import (
    BlobNotFoundError,
    ObjectStore,
    RangeRead,
    ReadOnlyStoreError,
    StoreAccessError,
    StoreError,
    TransientStoreError,
)
from repro.storage.faults import FlakyStore
from repro.storage.httpstore import HTTPRangeStore
from repro.storage.latency import AffineLatencyModel, RegionProfile, REGION_PROFILES
from repro.storage.listing import LISTING_BLOB, write_listing
from repro.storage.local import LocalObjectStore
from repro.storage.memory import InMemoryObjectStore
from repro.storage.metrics import RequestRecord, StorageMetrics
from repro.storage.parallel import FetchResult
from repro.storage.pipeline import PipelineStats, ReadPipeline
from repro.storage.registry import (
    StoreURIError,
    open_store,
    register_scheme,
    registered_schemes,
)
from repro.storage.resilient import (
    ResilienceStats,
    ResilientStore,
    RetriesExhaustedError,
    StoreTimeoutError,
)
from repro.storage.s3 import S3Credentials, S3ObjectStore
from repro.storage.simulated import SimulatedCloudStore

__all__ = [
    "AffineLatencyModel",
    "BlobNotFoundError",
    "FetchResult",
    "FlakyStore",
    "HTTPRangeStore",
    "InMemoryObjectStore",
    "LISTING_BLOB",
    "LocalObjectStore",
    "ObjectStore",
    "PipelineStats",
    "RangeRead",
    "ReadOnlyStoreError",
    "ReadPipeline",
    "REGION_PROFILES",
    "RegionProfile",
    "RequestRecord",
    "ResilienceStats",
    "ResilientStore",
    "RetriesExhaustedError",
    "S3Credentials",
    "S3ObjectStore",
    "SimulatedCloudStore",
    "StorageMetrics",
    "StoreAccessError",
    "StoreError",
    "StoreTimeoutError",
    "StoreURIError",
    "TransientStoreError",
    "open_store",
    "write_listing",
    "register_scheme",
    "registered_schemes",
]
