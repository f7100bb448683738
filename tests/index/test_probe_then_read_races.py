"""A blob that vanishes between a probe and the read is "not there", typed.

``AppendOnlyIndexManager.manifest`` (which holds the WAL's state too) and
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

from repro.index.store_layout import update_manifest_blob_name
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.ingest.wal import WriteAheadLog, encode_segment
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
    manager.build_base(_documents(store))  # the rebuild's swap writes the manifest
    written = manager.manifest()
    assert written.generation == 1 and store.probes == 0  # never probed, never purged
    store.backend.delete(update_manifest_blob_name("idx"))  # purged under the reader
    assert AppendOnlyIndexManager(store, "idx").manifest() == IndexManifest(base_index="idx")
    assert store.probes == 0


def test_the_wal_state_is_read_once_and_a_purged_one_is_the_empty_manifest():
    store = PurgedAfterProbe(InMemoryObjectStore())
    wal = WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx"))
    blob = wal.append(encode_segment(["one document"])).blob
    reopened = WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx"))
    assert blob in reopened.manifest().segments()
    assert [segment.texts for segment in reopened.replay()] == [["one document"]]
    store.backend.delete(update_manifest_blob_name("idx"))  # purged under the reader
    assert WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx")).manifest() == IndexManifest(base_index="idx")
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
