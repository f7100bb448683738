"""The on-store index layout: every blob name, the openers, one ownership rule.

The bucket is the interface between the Builder and any number of stateless
Searchers (Figure 3), and this module is the only code that knows what it
looks like (``docs/ARCHITECTURE.md``, "On-store layout", is pinned to it by
a test): the **names** and :func:`is_index_name`, the one "may a caller
address this name" predicate; the **openers**, :func:`open_index` (logical
name → every blob that says what the index is, as one batch of "missing is
an answer" reads → every member header and WAL record those name, as a
second: at most two dependent waves whatever the member, delta and segment
count, three for a sharded generational base) and its second half
:func:`open_headers` (build names → decoded headers); one **ownership
rule**, :func:`build_blobs` (what a purge deletes, a size sums and a rebuild
may find stale).  What is *inside* a blob, and who writes when, stays with
each subsystem; other modules re-export these names where callers already
import them, but define none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - the codec modules re-export these names
    from repro.index.compaction import CompactedSketch
    from repro.index.metadata import ShardManifest
    from repro.index.updates import IndexManifest

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


def shard_manifest_blob_name(index_name: str) -> str:
    """The shard manifest of build ``index_name`` (sharded builds only)."""
    return f"{index_name}/{SHARD_MANIFEST_SUFFIX}"


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


class OpenedBuild(NamedTuple):
    """One build — a base, a delta or a generation — with its header(s) decoded."""

    name: str
    #: The shard manifest (``None`` for a plain, single-header build).
    manifest: ShardManifest | None
    #: ``(name, decoded header)`` of the build itself, or of its shards in order.
    members: list[tuple[str, CompactedSketch]]
    #: Width of every later wave over this build (scaled by its shard count).
    max_concurrency: int


class OpenedHeaders(NamedTuple):
    """What :func:`open_headers` found behind a list of build names."""

    builds: list[OpenedBuild]
    #: Blob → payload of the ``riders``.
    riders: dict[str, bytes]
    #: Sum of the waves issued, on the store's clock.
    elapsed_ms: float


class OpenedIndex(NamedTuple):
    """What :func:`open_index` found behind one logical index name."""

    #: The update manifest (the empty one when none was ever written).
    manifest: IndexManifest
    #: The raw ingest manifest (``None``: absent, or not asked for).
    ingest: bytes | None
    #: Payload of every WAL segment and tombstone record ``ingest`` names.
    wal: dict[str, bytes]
    #: The active base, then the deltas in creation order.
    builds: list[OpenedBuild]
    #: Sum of the waves issued, on the store's clock.
    elapsed_ms: float


def _shard_manifest(payload: bytes | None) -> ShardManifest | None:
    """The manifest in a ``shards.json`` payload (``None``: a plain build)."""
    # Imported lazily, here and in the openers: the codec modules re-export
    # this module's names, so importing them at load time would be a cycle.
    from repro.index.metadata import ShardManifest

    if payload is None:
        return None
    manifest = ShardManifest.from_json(payload)
    return manifest if manifest.num_shards else None


def read_shard_manifest(store: ObjectStore, index_name: str) -> ShardManifest | None:
    """The shard manifest of ``index_name``, or ``None`` for single-shard layouts."""
    return _shard_manifest(
        store.read(RangeRead(shard_manifest_blob_name(index_name), optional=True))
    )


def open_headers(
    store: ObjectStore,
    index_names: Sequence[str],
    max_concurrency: int = 32,
    fetched: Mapping[str, bytes | None] | None = None,
    riders: Sequence[str] = (),
) -> OpenedHeaders:
    """Download and decode the header(s) of every build in ``index_names``.

    One batch asks each build for its shard manifest *and* its header (a
    plain build has no manifest, a sharded one no header of its own: either
    may be missing) and carries the ``riders`` — blobs the caller wants from
    the same wave; the shard headers of the sharded builds are the only
    possible second batch.  ``fetched`` holds what the caller already read
    (blob → payload, ``None`` for a blob that is not there): those are not
    asked for again, and shard headers a fetched manifest names ride the
    first batch.  Raises :class:`~repro.storage.base.BlobNotFoundError` when
    a named build is not there.
    """
    from repro.index.compaction import decode_header

    have = dict(fetched or {})
    reads = [
        RangeRead(blob, optional=True)
        for name in index_names
        for blob in (shard_manifest_blob_name(name), header_blob_name(name))
        if blob not in have
    ] + [RangeRead(blob) for blob in riders]
    manifests: dict[str, ShardManifest | None] = {}
    width, elapsed_ms = max_concurrency, 0.0
    while True:
        for name in index_names:
            blob = shard_manifest_blob_name(name)
            if name in manifests or blob not in have:
                continue
            manifest = manifests[name] = _shard_manifest(have[blob])
            if manifest is not None:
                reads += [RangeRead(header_blob_name(shard)) for shard in manifest.shard_names]
                width = max(width, _sharded_width(max_concurrency, manifest))
        if not reads:
            break
        fetch = store.read_batch(reads, width)
        elapsed_ms += fetch.total_ms
        have.update((read.blob, payload) for read, payload in zip(reads, fetch.payloads))
        reads = []
    builds = []
    for name in index_names:
        manifest = manifests[name]
        names = [name] if manifest is None else manifest.shard_names
        if have[header_blob_name(names[0])] is None:
            raise BlobNotFoundError(header_blob_name(name))
        builds.append(
            OpenedBuild(
                name,
                manifest,
                [(member, decode_header(have[header_blob_name(member)])) for member in names],
                max_concurrency if manifest is None else _sharded_width(max_concurrency, manifest),
            )
        )
    return OpenedHeaders(builds, {blob: have[blob] for blob in riders}, elapsed_ms)


def _sharded_width(max_concurrency: int, manifest: ShardManifest) -> int:
    """Keep the *per-shard* concurrency budget constant as shards are added:
    a lookup wave carries num_shards × layers reads, and with the
    single-shard ceiling it would spill into extra concurrency waves,
    stacking each shard's first-byte wait instead of amortizing it (the
    measured 16-shard regression)."""
    return min(max_concurrency * manifest.num_shards, MAX_SHARDED_CONCURRENCY)


def open_index(
    store: ObjectStore,
    name: str,
    max_concurrency: int = 32,
    *,
    known: bool = False,
    probe_ingest: bool = True,
    base_only: bool = False,
) -> OpenedIndex:
    """Open logical index ``name`` in at most two dependent waves.

    Wave 1 is one batch of "missing is an answer" reads for every blob that
    says what the index *is*: the in-place shard manifest and header, the
    update manifest and — with ``probe_ingest`` — the ingest manifest.  A
    plain index is fully open after it.  Wave 2, only when the manifests
    name more, is one :func:`open_headers` batch over every member not yet
    in hand with every active WAL segment and tombstone record riding along
    (a sharded member's shard headers are the only possible third).

    ``known`` says this process has already seen an update manifest for
    ``name``: that manifest alone decides where the base lives, so wave 1
    does not speculate on an in-place build that may be a retired leftover.
    ``base_only`` leaves the deltas unopened (descriptions need the base).
    Raises ``KeyError`` when none of the discovery blobs is there.
    """
    from repro.index.updates import IndexManifest
    from repro.ingest.wal import IngestManifest

    manifest_blob, ingest_blob = update_manifest_blob_name(name), ingest_manifest_blob(name)
    blobs = [manifest_blob] if known else discovery_blobs(name)
    if probe_ingest:
        blobs.append(ingest_blob)
    fetch = store.read_batch([RangeRead(blob, optional=True) for blob in blobs], max_concurrency)
    have = dict(zip(blobs, fetch.payloads))
    ingest = have.pop(ingest_blob, None)
    if have[manifest_blob] is None and known:
        # The manifest this process knew is gone: discover the name afresh.
        return open_index(
            store, name, max_concurrency, probe_ingest=probe_ingest, base_only=base_only
        )
    if all(payload is None for payload in have.values()):
        raise KeyError(name)
    manifest = IndexManifest.from_bytes(name, have.pop(manifest_blob))
    opened = open_headers(
        store,
        [manifest.active_base] if base_only else manifest.all_indexes,
        max_concurrency,
        fetched=have,
        riders=IngestManifest.from_bytes(ingest).recovery_blobs,
    )
    return OpenedIndex(
        manifest, ingest, opened.riders, opened.builds, fetch.total_ms + opened.elapsed_ms
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
