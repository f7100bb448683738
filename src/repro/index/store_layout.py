"""The on-store index layout: every blob name, one opener, one ownership rule.

The bucket is the interface between the Builder and any number of stateless
Searchers (Figure 3), and this module is the only code that knows what it
looks like (``docs/ARCHITECTURE.md``, "On-store layout", is pinned to it by
a test): the **names** and :func:`is_index_name`, the one "may a caller
address this name" predicate; one **opener**, :func:`open_headers` (name →
shard manifest or none → members → decoded headers, two dependent round
trips however many shards); one **ownership rule**, :func:`build_blobs`
(what a purge deletes, a size sums and a rebuild may find stale).  What is
*inside* a blob, and who writes when, stays with each subsystem; other
modules re-export these names where callers already import them, but
define none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - the codec modules re-export these names
    from repro.index.compaction import CompactedSketch
    from repro.index.metadata import ShardManifest

# One build — a base, a delta or a shard sub-index.  The header key predates
# the binary container and stays: catalog discovery, snapshots and external
# tooling all find an index by it.  Sharded builds alone write a manifest.
HEADER_BLOB_SUFFIX = "header.json"
SUPERPOST_BLOB_SUFFIX = "superposts.bin"
STATS_BLOB_SUFFIX = "stats.json"
SHARD_MANIFEST_SUFFIX = "shards.json"
_BUILD_SUFFIXES = (
    HEADER_BLOB_SUFFIX,
    SUPERPOST_BLOB_SUFFIX,
    STATS_BLOB_SUFFIX,
    SHARD_MANIFEST_SUFFIX,
)

# Members of a logical index, never addressable on their own: shards, deltas,
# generational bases (written by compaction) and snapshot records.
SHARD_MARKER = "/shard-"
_DELTA_MARKER = "/delta-"
_GENERATION_MARKER = "/gen-"
_SNAPSHOT_MARKER = "/snapshots/"
_SNAPSHOT_SUFFIX = ".snap.json"
_MEMBER_MARKERS = (_DELTA_MARKER, SHARD_MARKER, _GENERATION_MARKER, _SNAPSHOT_MARKER)

#: The update manifest of a logical index: active base, deltas, retired builds.
_UPDATE_MANIFEST_SUFFIX = "manifest.json"
#: Blobs (under the index name) any one of which makes the name a catalog
#: entry, in the order an existence check probes them.
_DISCOVERY_SUFFIXES = (HEADER_BLOB_SUFFIX, SHARD_MANIFEST_SUFFIX, _UPDATE_MANIFEST_SUFFIX)

#: Ceiling on the concurrency a sharded index asks for on its own.  A
#: query's lookup wave carries every shard's layer reads at once, so the
#: fan-out budget scales with the shard count — but a real store's thread
#: pool should not grow unboundedly with pathological shard counts.
MAX_SHARDED_CONCURRENCY = 128


def header_blob_name(index_name: str) -> str:
    """The header blob of build ``index_name``."""
    return f"{index_name}/{HEADER_BLOB_SUFFIX}"


def superpost_blob_name(index_name: str) -> str:
    """The superpost blob of build ``index_name``."""
    return f"{index_name}/{SUPERPOST_BLOB_SUFFIX}"


def stats_blob_name(index_name: str) -> str:
    """The ranking-statistics blob of build ``index_name``."""
    return f"{index_name}/{STATS_BLOB_SUFFIX}"


def shard_index_name(index_name: str, shard: int) -> str:
    """Sub-index name of shard ``shard`` of ``index_name``."""
    return f"{index_name}{SHARD_MARKER}{shard:04d}"


def delta_index_name(base_index: str, sequence: int) -> str:
    """Blob prefix of ``base_index``'s delta build number ``sequence``."""
    return f"{base_index}{_DELTA_MARKER}{sequence:04d}"


def generation_index_name(base_index: str, generation: int) -> str:
    """Blob prefix of ``base_index``'s generation-``generation`` base build."""
    return f"{base_index}{_GENERATION_MARKER}{generation:08d}"


def update_manifest_blob_name(base_index: str) -> str:
    """The update manifest of logical index ``base_index``."""
    return f"{base_index}/{_UPDATE_MANIFEST_SUFFIX}"


def snapshot_blob_name(base_index: str, snapshot: str) -> str:
    """Blob holding snapshot ``snapshot`` of ``base_index``."""
    return f"{base_index}{_SNAPSHOT_MARKER}{snapshot}{_SNAPSHOT_SUFFIX}"


def snapshot_blobs(store: ObjectStore, base_index: str) -> list[str]:
    """Every snapshot record blob of ``base_index``."""
    return [
        blob
        for blob in store.list_blobs(prefix=f"{base_index}{_SNAPSHOT_MARKER}")
        if blob.endswith(_SNAPSHOT_SUFFIX)
    ]


def ingest_prefix(index_name: str) -> str:
    """Prefix under which ``index_name``'s WAL blobs live."""
    return f"{index_name}/ingest/"


def ingest_manifest_blob(index_name: str) -> str:
    """Blob holding ``index_name``'s ingest manifest."""
    return f"{ingest_prefix(index_name)}ingest.json"


def segment_blob(index_name: str, sequence: int) -> str:
    """Blob holding WAL segment number ``sequence`` of ``index_name``."""
    return f"{ingest_prefix(index_name)}seg-{sequence:08d}.log"


def tombstone_blob(index_name: str, sequence: int) -> str:
    """Blob holding tombstone record number ``sequence`` of ``index_name``.

    Tombstones draw from the same monotonic counter as document segments, so
    a sequence number is never reused across the two record kinds either.
    """
    return f"{ingest_prefix(index_name)}tomb-{sequence:08d}.json"


def is_index_name(name: str) -> bool:
    """Whether ``name`` may be built, served or described as an index.

    Shard, delta, generation and snapshot prefixes are members of some
    logical index, reachable only through it.
    """
    return bool(name.strip("/")) and not any(marker in name for marker in _MEMBER_MARKERS)


def discovery_blobs(name: str) -> list[str]:
    """The blobs any one of which makes ``name`` a catalog entry."""
    return [f"{name}/{suffix}" for suffix in _DISCOVERY_SUFFIXES]


def index_name_of(blob: str) -> str | None:
    """The addressable index that ``blob`` announces, if it announces one."""
    name, _, suffix = blob.rpartition("/")
    return name if suffix in _DISCOVERY_SUFFIXES and is_index_name(name) else None


class OpenedHeaders(NamedTuple):
    """What :func:`open_headers` found behind one index name."""

    #: The shard manifest (``None`` for a plain, single-header build).
    manifest: ShardManifest | None
    #: ``(name, decoded header)`` of the build itself, or of its shards in order.
    members: list[tuple[str, CompactedSketch]]
    #: What the probe plus the header wave cost on the store's clock.
    elapsed_ms: float
    #: Width of the header wave, and of every later wave over these members.
    max_concurrency: int


def _probe_shard_manifest(
    store: ObjectStore, index_name: str
) -> tuple[ShardManifest | None, float]:
    """The shard manifest of ``index_name`` (if any) and what asking cost.

    One GET, not exists()+get(): plain builds (the common case, e.g. every
    delta) pay a single missed probe.
    """
    # Imported lazily, here and in open_headers: the codec modules re-export
    # this module's names, so importing them at load time would be a cycle.
    from repro.index.metadata import ShardManifest

    try:
        fetch = store.read_batch([RangeRead(blob=ShardManifest.blob_name(index_name))])
    except BlobNotFoundError:
        return None, 0.0
    manifest = ShardManifest.from_json(fetch.payloads[0])
    return (manifest if manifest.num_shards else None), fetch.total_ms


def read_shard_manifest(store: ObjectStore, index_name: str) -> ShardManifest | None:
    """The shard manifest of ``index_name``, or ``None`` for single-shard layouts."""
    return _probe_shard_manifest(store, index_name)[0]


def open_headers(store: ObjectStore, index_name: str, max_concurrency: int = 32) -> OpenedHeaders:
    """Download and decode the header(s) of build ``index_name``.

    A plain build is the probe plus its one header; a manifest's shard
    headers go out as one ``read_batch`` wave, so the cost is ``manifest +
    one header batch`` whatever the shard count.  Raises
    :class:`~repro.storage.base.BlobNotFoundError` when no build is there.
    """
    from repro.index.compaction import decode_header

    manifest, elapsed_ms = _probe_shard_manifest(store, index_name)
    if manifest is None:
        names = [index_name]
    else:
        names = manifest.shard_names
        # Keep the *per-shard* concurrency budget constant as shards are
        # added: a lookup wave carries num_shards × layers reads, and with
        # the single-shard ceiling it would spill into extra concurrency
        # waves, stacking each shard's first-byte wait instead of
        # amortizing it (the measured 16-shard regression).
        max_concurrency = min(max_concurrency * len(names), MAX_SHARDED_CONCURRENCY)
    fetch = store.read_batch(
        [RangeRead(blob=header_blob_name(name)) for name in names], max_concurrency
    )
    headers = [decode_header(payload) for payload in fetch.payloads]
    return OpenedHeaders(
        manifest, list(zip(names, headers)), elapsed_ms + fetch.total_ms, max_concurrency
    )


def build_exists(store: ObjectStore, index_name: str) -> bool:
    """Whether a base/delta build still has its header or shard manifest."""
    return any(
        store.exists(f"{index_name}/{suffix}")
        for suffix in (HEADER_BLOB_SUFFIX, SHARD_MANIFEST_SUFFIX)
    )


def build_blobs(store: ObjectStore, index_name: str) -> list[str]:
    """Every blob the base/delta build under ``index_name`` owns.

    Delta, generational and shard builds own their whole prefix.  An
    in-place base shares its prefix with the update manifest, deltas,
    generations, snapshots and the WAL, so it owns only its own four blobs
    and its ``shard-NNNN/`` members.
    """
    blobs = store.list_blobs(prefix=f"{index_name}/")
    if not is_index_name(index_name):
        return blobs
    own = {f"{index_name}/{suffix}" for suffix in _BUILD_SUFFIXES}
    shards = f"{index_name}{SHARD_MARKER}"
    return [blob for blob in blobs if blob in own or blob.startswith(shards)]


def build_bytes(store: ObjectStore, index_name: str) -> int:
    """Stored bytes of the build under ``index_name`` (its own blobs only)."""
    return sum(store.size(blob) for blob in build_blobs(store, index_name))
