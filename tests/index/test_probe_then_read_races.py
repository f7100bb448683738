"""A blob that vanishes between a probe and the read is "not there", typed.

``AppendOnlyIndexManager.manifest``, ``WriteAheadLog.manifest`` and
``get_snapshot`` used to ask ``exists`` and then ``get``: two round trips,
and a window in which a concurrent purge, reset or ``delete_snapshot`` turned
a clean "not there" into an uncaught ``BlobNotFoundError`` (a 500 where the
caller documents the empty manifest, or ``KeyError`` → 404).  The store below
lands that purge right after every probe; each site must read once and answer
with its typed outcome whether the blob is there or not.
"""

from __future__ import annotations

import pytest
from harness.crashpoints import FaultPointStore

from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.ingest.wal import IngestManifest, WriteAheadLog
from repro.parsing.documents import Document, Posting
from repro.storage.base import BlobNotFoundError
from repro.storage.memory import InMemoryObjectStore


class PurgedAfterProbe(FaultPointStore):
    """``exists`` tells the truth — and the blob is gone before the next call."""

    def __init__(self, backend):
        super().__init__(backend)
        self.probes = 0

    def exists(self, name: str) -> bool:
        self.probes += 1
        found = super().exists(name)
        self.backend.delete(name)
        return found


def _documents(store, count=6):
    text = "\n".join(f"line {n} token{n}" for n in range(count)) + "\n"
    store.put("corpus.txt", text.encode())
    documents, offset = [], 0
    for line in text.splitlines():
        documents.append(Document(ref=Posting("corpus.txt", offset, len(line)), text=line))
        offset += len(line) + 1
    return documents


def test_update_manifest_is_read_once_and_a_purged_one_is_the_empty_manifest():
    store = PurgedAfterProbe(InMemoryObjectStore())
    manager = AppendOnlyIndexManager(store, "idx")
    manager.build_base(_documents(store))
    written = manager.manifest()
    assert written.generation == 1 and store.probes == 0  # never probed, never purged
    store.backend.delete(manager.manifest_blob)  # the concurrent reset wins the race
    assert manager.manifest() == IndexManifest(base_index="idx")
    assert store.probes == 0


def test_ingest_manifest_is_read_once_and_a_purged_one_is_the_empty_manifest():
    store = PurgedAfterProbe(InMemoryObjectStore())
    wal = WriteAheadLog(store, "idx")
    blob, _ = wal.append(["one document"])
    reopened = WriteAheadLog(store, "idx")
    assert reopened.manifest().active_segments == (blob,)
    assert [d.text for d in reopened.replay()] == ["one document"]
    store.backend.delete(wal.manifest_blob)  # a rebuild destroyed the WAL meanwhile
    assert WriteAheadLog(store, "idx").manifest() == IngestManifest()
    assert reopened.manifest(refresh=True) == IngestManifest()
    assert store.probes == 0


def test_a_snapshot_deleted_under_the_reader_is_a_key_error_not_a_missing_blob():
    store = PurgedAfterProbe(InMemoryObjectStore())
    manager = AppendOnlyIndexManager(store, "idx")
    manager.build_base(_documents(store))
    manager.create_snapshot("cp")
    assert manager.get_snapshot("cp").snapshot == "cp" and store.probes == 0
    manager.delete_snapshot("cp")  # (its own probe purges nothing that matters here)
    with pytest.raises(KeyError) as caught:
        manager.get_snapshot("cp")
    assert not isinstance(caught.value, BlobNotFoundError)
    assert caught.value.args == ("cp",)
