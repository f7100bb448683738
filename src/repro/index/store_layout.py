"""The on-store index layout: every blob name, the openers, one ownership rule.

The bucket is the interface between the Builder and any number of stateless
Searchers (Figure 3), and this module is the only code that knows what it
looks like (``docs/ARCHITECTURE.md``, "On-store layout", is pinned to it by
a test): the **names** and :func:`is_index_name`, the one "may a caller
address this name" predicate; the **openers**, :func:`open_index` (logical
name → every blob that says what the index is, as one batch of "missing is
an answer" reads → every member header and WAL record those name, as a
second: at most two dependent waves whatever the member, delta, shard and
segment count; a sharded build says all it is in its ``header.json``) and
its second half :func:`open_headers` (build names → decoded headers); one **ownership
rule**, :func:`build_of` and :func:`wal_record` (which build or WAL record
a blob is: what a purge weighs and a size sums).  What is *inside* a blob,
and who writes when, stays with
each subsystem; other modules re-export these names where callers already
import them, but define none.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - the codec modules re-export these names
    from repro.index.compaction import CompactedSketch
    from repro.index.metadata import ShardManifest
    from repro.index.updates import IndexManifest

# One build — a base, a delta or a shard sub-index.  The header key predates
# the binary container and stays: catalog discovery, snapshots and external
# tooling all find an index by it.  Retired sharded builds wrote a manifest:
# it is still probed, so that opening one is a typed error, not a 404.
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

#: A WAL record's name under the ingest prefix: segment, update, legacy delete record.
_WAL_RECORD = re.compile(r"(?P<kind>seg|upd)-(?P<number>\d{8})\.log|tomb-(?P<tomb>\d{8})\.json")

#: The update manifest of a logical index: active base, deltas, retired builds.
_UPDATE_MANIFEST_SUFFIX = "manifest.json"
#: Blobs (under the index name) any one of which makes the name a catalog
#: entry, in the order an existence check probes them.
_DISCOVERY_SUFFIXES = (HEADER_BLOB_SUFFIX, SHARD_MANIFEST_SUFFIX, _UPDATE_MANIFEST_SUFFIX)

#: Ceiling on the concurrency a sharded index asks for on its own.  Its
#: fan-out budget scales with the shard count — a wave fetches the
#: candidates of every shard — but a real store's thread pool should not
#: grow unboundedly with pathological shard counts.
MAX_SHARDED_CONCURRENCY = 128


class CorruptIndexError(ValueError):
    """A stored header, shard manifest or superpost that does not decode
    (the store's fault, never the request's), naming its blob."""

    def __init__(self, blob: str, reason: object) -> None:
        super().__init__(f"corrupt index blob {blob!r}: {reason}")
        self.blob = blob


class UnsupportedIndexFormatError(ValueError):
    """A stored blob in a layout this engine no longer reads (neither the
    store's fault nor the request's): the index must be rebuilt from its
    corpus.  Names the blob, what it holds and what is read instead.

    The rebuild is lossless only for an index without live writes: a build
    has no pending deletes, so a live index rebuilt over its corpus and its
    ingest segments gets back the documents its deletes and updates
    condemned (which its ``manifest.json`` lists)."""

    def __init__(self, blob: str, found: str, expected: str) -> None:
        super().__init__(
            f"index blob {blob!r} holds {found}, not {expected}: rebuild the index "
            "from its corpus (a live index also from its ingest segments, losing "
            "the deletes and updates its manifest lists)"
        )
        self.blob, self.found, self.expected = blob, found, expected


def header_blob_name(index_name: str) -> str:
    """The header blob of build ``index_name``."""
    return f"{index_name}/{HEADER_BLOB_SUFFIX}"


def shard_manifest_blob_name(index_name: str) -> str:
    """The JSON shard manifest of a sharded build in the retired layout."""
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
    """``index_name``'s legacy WAL manifest, which the update manifest folds in."""
    return f"{ingest_prefix(index_name)}ingest.json"


def segment_blob(index_name: str, sequence: int) -> str:
    """Blob holding WAL segment number ``sequence`` of ``index_name``."""
    return f"{ingest_prefix(index_name)}seg-{sequence:08d}.log"


def update_blob(index_name: str, sequence: int) -> str:
    """Blob holding the replacement text of an update numbered ``sequence``.

    A segment in the same format as :func:`segment_blob`'s, named outside
    the ``seg-`` range a reopening node probes: an update becomes visible
    through the manifest that lists it, never through its own PUT.
    """
    return f"{ingest_prefix(index_name)}upd-{sequence:08d}.log"


def tombstone_blob(index_name: str, sequence: int) -> str:
    """Blob of legacy delete record number ``sequence`` of ``index_name``.

    Written by no code: a manifest that lists such records by number is
    folded in (their references become its pending deletes), and the next
    swap's purge deletes them.
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
    """One build — a base, a delta or a generation — with its header decoded."""

    name: str
    #: The decoded header (a sharded build's splits its runs among its shards).
    header: CompactedSketch
    #: Width of every later wave over this build (scaled by its shard count).
    max_concurrency: int

    @property
    def manifest(self) -> ShardManifest | None:
        """The shard manifest (``None`` for a plain build)."""
        return self.header.manifest


class OpenedHeaders(NamedTuple):
    """What :func:`open_headers` found behind a list of build names."""

    builds: list[OpenedBuild]
    #: Blob → payload of the ``riders`` (``None``: not there).
    riders: dict[str, bytes | None]
    #: Sum of the waves issued, on the store's clock.
    elapsed_ms: float


class OpenedIndex(NamedTuple):
    """What :func:`open_index` found behind one logical index name."""

    #: The update manifest (the empty one when none was ever written).
    manifest: IndexManifest
    #: Payload of every WAL blob the manifest names (``None``: not there).
    wal: dict[str, bytes | None]
    #: The active base, then the deltas in creation order.
    builds: list[OpenedBuild]
    #: Sum of the waves issued, on the store's clock.
    elapsed_ms: float


def open_headers(
    store: ObjectStore,
    index_names: Sequence[str],
    max_concurrency: int = 32,
    fetched: Mapping[str, bytes | None] | None = None,
    riders: Sequence[str] = (),
) -> OpenedHeaders:
    """Download and decode the header of every build in ``index_names``.

    One batch asks each build for its header (a sharded build's holds every
    shard's share of it) and carries the ``riders`` — blobs the caller wants
    from the same wave, each read as "missing is an answer".  ``fetched``
    holds what the caller already read (blob → payload, ``None`` for a blob
    that is not there): those are not asked for again.  Raises
    :class:`~repro.storage.base.BlobNotFoundError` when a named build is not
    there, :class:`UnsupportedIndexFormatError` when it is in a retired
    layout, :class:`CorruptIndexError` when a blob does not decode.
    """
    from repro.index.compaction import decode_build_header

    have = dict(fetched or {})
    reads = [
        RangeRead(header_blob_name(name), optional=True)
        for name in index_names
        if header_blob_name(name) not in have
    ] + [RangeRead(blob, optional=True) for blob in riders]

    def opened(name: str) -> OpenedBuild:
        header = header_blob_name(name)
        if have[header] is None:
            _refuse_retired_layout(store, name)
            raise BlobNotFoundError(header)
        decoded = decode_build_header(have[header], name)
        # A wave carries every shard's candidates: a budget per shard.
        manifest = decoded.manifest
        width = max_concurrency if manifest is None else min(
            max_concurrency * manifest.num_shards, MAX_SHARDED_CONCURRENCY
        )
        return OpenedBuild(name, decoded, width)

    # What the caller read already opens first: a sharded base widens the wave.
    builds = {name: opened(name) for name in index_names if header_blob_name(name) in have}
    elapsed_ms = 0.0
    if reads:
        width = max([max_concurrency, *(build.max_concurrency for build in builds.values())])
        fetch = store.read_batch(reads, width)
        elapsed_ms = fetch.total_ms
        have.update((read.blob, payload) for read, payload in zip(reads, fetch.payloads))
    opened_builds = [builds.get(name) or opened(name) for name in index_names]
    return OpenedHeaders(opened_builds, {blob: have[blob] for blob in riders}, elapsed_ms)


def _refuse_retired_layout(store: ObjectStore, name: str) -> None:
    """Raise :class:`UnsupportedIndexFormatError` when build ``name``, whose
    header is missing, is a ``shards.json`` build.  Asked only once a header
    is found missing, so no open that succeeds pays for it."""
    retired = shard_manifest_blob_name(name)
    if store.exists(retired):
        raise UnsupportedIndexFormatError(
            retired, "a shards.json manifest", f"a sharded {HEADER_BLOB_SUFFIX}"
        )


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
    says what the index *is*: the in-place header and the update manifest
    (:func:`~repro.index.updates.manifest_reads`: with ``probe_ingest``, and
    the legacy WAL manifest it folds in).  A lone build, plain or sharded,
    is fully open after it.  Wave 2, only when the manifest names more, is
    one :func:`open_headers` batch over every member not yet in hand, with
    (``probe_ingest``) every WAL segment the manifest names riding along —
    and the legacy delete records it lists, folded into its pending deletes.

    ``known`` says this process has already seen an update manifest for
    ``name``: that manifest alone decides where the base lives, so wave 1
    does not speculate on an in-place build that may be a retired leftover.
    ``base_only`` leaves the deltas unopened (descriptions need the base).
    Raises ``KeyError`` when neither the header nor the update manifest is
    there (:class:`UnsupportedIndexFormatError` for a retired sharded build).
    """
    from repro.index.updates import IndexManifest, manifest_reads

    reads = manifest_reads(name, legacy=probe_ingest)
    blobs = reads if known else [header_blob_name(name), *reads]
    fetch = store.read_batch([RangeRead(blob, optional=True) for blob in blobs], max_concurrency)
    have = dict(zip(blobs, fetch.payloads))
    payloads = [have.pop(blob) for blob in reads]
    if payloads[0] is None and known:
        # The manifest this process knew is gone: discover the name afresh.
        return open_index(
            store, name, max_concurrency, probe_ingest=probe_ingest, base_only=base_only
        )
    if payloads[0] is None and all(payload is None for payload in have.values()):
        _refuse_retired_layout(store, name)
        raise KeyError(name)
    manifest = IndexManifest.read(name, *payloads)
    opened = open_headers(
        store,
        [manifest.active_base] if base_only else manifest.all_indexes,
        max_concurrency,
        fetched=have,
        riders=manifest.segments() + manifest.legacy_records if probe_ingest else (),
    )
    if probe_ingest:
        manifest = manifest.folded(opened.riders)
    return OpenedIndex(manifest, opened.riders, opened.builds, fetch.total_ms + opened.elapsed_ms)


def build_exists(store: ObjectStore, index_name: str) -> bool:
    """Whether a base/delta build still has its header or shard manifest."""
    return any(
        store.exists(f"{index_name}/{suffix}")
        for suffix in (HEADER_BLOB_SUFFIX, SHARD_MANIFEST_SUFFIX)
    )


def build_of(index_name: str, blob: str) -> str | None:
    """The build of logical index ``index_name`` that owns ``blob``, if any.

    Delta and generational builds own their whole prefix.  The in-place
    base shares its prefix with the manifest, the other builds, the
    snapshots and the WAL, so it owns only its own four blobs and its
    ``shard-NNNN/`` members.
    """
    rest = blob.removeprefix(f"{index_name}/")
    member, _, inside = rest.partition("/")
    if rest == blob:
        return None
    if rest in _BUILD_SUFFIXES or f"/{member}".startswith(SHARD_MARKER):
        return index_name
    if inside and f"/{member}".startswith((_DELTA_MARKER, _GENERATION_MARKER)):
        return f"{index_name}/{member}"
    return None


def wal_record(index_name: str, blob: str) -> tuple[str, int] | None:
    """``(kind, number)`` of a WAL record of ``index_name`` — a ``"seg"``,
    ``"upd"`` or legacy ``"tomb"`` blob — or ``None`` for any other blob."""
    name = blob.removeprefix(ingest_prefix(index_name))
    match = _WAL_RECORD.fullmatch(name) if name != blob else None
    if match is None:
        return None
    return match["kind"] or "tomb", int(match["number"] or match["tomb"])


def build_blobs(store: ObjectStore, index_name: str) -> list[str]:
    """Every blob the build under ``index_name`` owns (:func:`build_of`)."""
    blobs = store.list_blobs(prefix=f"{index_name}/")
    if not is_index_name(index_name):
        return blobs
    return [blob for blob in blobs if build_of(index_name, blob) == index_name]


def build_bytes(store: ObjectStore, index_name: str) -> int:
    """Stored bytes of the build under ``index_name`` (its own blobs only)."""
    return sum(store.size(blob) for blob in build_blobs(store, index_name))
