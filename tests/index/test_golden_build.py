"""Golden test: the bytes every build writes.

Seeded builds — whitespace and simple analyzers, blob names out of order,
awkward lines, 4 shards, one pinned layer, a repeated document reference and
a base + delta + compaction lifecycle — must write blobs whose SHA-256 digests
equal the capture in ``golden_build_digests.json``.  The builder may get
faster, never different: a change that *means* to move a blob regenerates
the capture on purpose::

    PYTHONPATH=src:tests python tests/index/test_golden_build.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, DocumentRef
from repro.parsing.tokenizer import SimpleAnalyzer
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.cranfield import generate_cranfield
from repro.workloads.logs import generate_log_corpus

GOLDEN = Path(__file__).with_name("golden_build_digests.json")

CONFIG = SketchConfig(num_bins=3000, seed=11)
#: Empty lines, a whitespace-only line, Unicode whitespace (U+3000, U+001C,
#: U+0085) inside lines, non-ASCII words and no final newline.
AWKWARD = (
    "alpha beta\n\n   \t \nnaïve café ☃　beta\nx\x1cy\u0085z alpha\r\n"
    "\n\nαβγ alpha  alpha\nlast line"
).encode("utf-8")


def _hdfs(lines: int, seed: int) -> tuple[InMemoryObjectStore, list[str]]:
    store = InMemoryObjectStore()
    return store, generate_log_corpus(store, "hdfs", lines, seed=seed).blob_names


def _whitespace(config: SketchConfig = CONFIG, num_shards: int = 1) -> InMemoryObjectStore:
    store, blobs = _hdfs(1200, 14)
    AirphantBuilder(store, config=config, num_shards=num_shards).build_from_blobs(
        blobs, index_name="idx"
    )
    return store


def _simple() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    blobs = generate_cranfield(store, 300, seed=5).blob_names
    AirphantBuilder(store, config=CONFIG, tokenizer=SimpleAnalyzer()).build_from_blobs(
        blobs, index_name="idx"
    )
    return store


def _two_blobs() -> InMemoryObjectStore:
    store, blobs = _hdfs(600, 3)
    lines = store.get(blobs[0]).split(b"\n")
    store.put("corpus/b.log", b"\n".join(lines[:250]))
    store.put("corpus/a.log", b"\n".join(lines[250:]))
    AirphantBuilder(store, config=CONFIG).build_from_blobs(
        ["corpus/b.log", "corpus/a.log", "corpus/b.log"], index_name="idx"
    )
    return store


def _awkward(skip_empty: bool) -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus/awkward.txt", AWKWARD)
    AirphantBuilder(store, config=SketchConfig(num_bins=64, num_layers=2)).build_from_blobs(
        ["corpus/awkward.txt"], LineDelimitedCorpusParser(skip_empty=skip_empty), "idx"
    )
    return store


def _repeated_reference() -> InMemoryObjectStore:
    store, blobs = _hdfs(400, 9)
    documents = list(LineDelimitedCorpusParser().parse(store, blobs))
    first = documents[7]
    twin = Document(DocumentRef(first.blob, first.offset, first.length), "other words entirely")
    AirphantBuilder(store, config=CONFIG).build_from_documents(
        [*documents[:50], twin, *reversed(documents[50:])], index_name="idx"
    )
    return store


def _lifecycle() -> InMemoryObjectStore:
    store, blobs = _hdfs(900, 21)
    documents = list(LineDelimitedCorpusParser().parse(store, blobs))
    manager = AppendOnlyIndexManager(store, "live", config=CONFIG)
    manager.build_base(documents[:600])
    manager.append(documents[600:])
    manager.compact(exclude={documents[3].ref, documents[700].ref})
    return store


BUILDS = {
    "whitespace": _whitespace,
    "simple_analyzer": _simple,
    "two_blobs_unsorted": _two_blobs,
    "awkward_lines": lambda: _awkward(True),
    "awkward_lines_keep_empty": lambda: _awkward(False),
    "four_shards": lambda: _whitespace(SketchConfig(num_bins=800, seed=11), num_shards=4),
    "one_layer": lambda: _whitespace(SketchConfig(num_bins=3000, seed=11, num_layers=1)),
    "repeated_reference": _repeated_reference,
    "lifecycle": _lifecycle,
}


def digests(case: str) -> dict[str, str]:
    """SHA-256 of every blob the build wrote (the corpus blobs left out)."""
    store = BUILDS[case]()
    return {
        name: hashlib.sha256(store.get(name)).hexdigest()
        for name in store.list_blobs()
        if not name.startswith("corpora/") and not name.startswith("corpus/")
    }


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_build_writes_the_captured_bytes(case):
    assert digests(case) == json.loads(GOLDEN.read_text(encoding="utf-8"))[case]


#: The lifecycle's compacted header as a fresh base that wrote a generation-1
#: manifest captured it: its first compaction was generation 2.
GENERATION_2_HEADER = "1ba0da3c34ec016ad9e54ca7c8b0eea84f9b607b775987954b28946c5bed4398"


def test_a_fresh_manager_base_moves_only_the_generation_number():
    """A fresh ``build_base`` writes no manifest, so the first compaction is
    generation 1: its header is the generation-2 one with the name moved."""
    header = _lifecycle().get("live/gen-00000001/header.json")
    renamed = header.replace(b"gen-00000001", b"gen-00000002")
    assert hashlib.sha256(renamed).hexdigest() == GENERATION_2_HEADER


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case: digests(case) for case in sorted(BUILDS)}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
