"""Legacy (v1, JSON) ranking-statistics fixtures.

Until stats container v2 every build carried a JSON ``stats.json``: a blob
name table, one ``[blob, offset, length, doc_len]`` row per document and, per
term, its ``[doc, tf]`` pairs, decoded into nested dicts keyed by posting.
Production code keeps only a *reader* for that format; this module keeps what
the tests need to prove nothing else changed:

* :func:`stats_dicts` — statistics in the JSON era's in-memory shape
  (``{posting: length}`` and ``{term: {posting: tf}}``), the reference the
  columns are compared against;
* :func:`encode_legacy_stats` — the old writer;
* :func:`downgrade_stats` — rewrites every stats blob under a prefix as v1
  JSON, yielding the index an older build would have left behind.
"""

from __future__ import annotations

import json

from repro.index.stats import STATS_BLOB_SUFFIX, IndexStats, decode_stats
from repro.parsing.documents import Posting
from repro.storage.base import ObjectStore


def stats_dicts(stats: IndexStats) -> tuple[dict[Posting, int], dict[str, dict[Posting, int]]]:
    """``(doc_lengths, term_frequencies)`` of ``stats`` as plain dicts."""
    docs = list(stats.docs)
    doc_lengths = dict(zip(docs, stats.doc_words.tolist()))
    term_frequencies = {}
    for index in range(stats.num_terms):
        entries = slice(int(stats.term_starts[index]), int(stats.term_starts[index + 1]))
        term_frequencies[stats.term(index).decode("utf-8", "surrogatepass")] = {
            docs[doc]: tf
            for doc, tf in zip(stats.entry_doc[entries].tolist(), stats.entry_tf[entries].tolist())
        }
    return doc_lengths, term_frequencies


def encode_legacy_stats(stats: IndexStats) -> bytes:
    """The v1 stats blob: versioned JSON, blob names interned."""
    doc_lengths, term_frequencies = stats_dicts(stats)
    blob_ids: dict[str, int] = {}
    doc_ids: dict[Posting, int] = {}
    docs: list[list[int]] = []
    for posting in sorted(doc_lengths):
        blob_id = blob_ids.setdefault(posting.blob, len(blob_ids))
        doc_ids[posting] = len(docs)
        docs.append([blob_id, posting.offset, posting.length, doc_lengths[posting]])
    payload = {
        "magic": "airphant-stats",
        "version": 1,
        "num_documents": len(doc_lengths),
        "total_words": sum(doc_lengths.values()),
        "blobs": sorted(blob_ids, key=blob_ids.__getitem__),
        "docs": docs,
        "terms": {
            term: sorted([doc_ids[posting], tf] for posting, tf in postings.items())
            for term, postings in sorted(term_frequencies.items())
        },
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def downgrade_stats(store: ObjectStore, prefix: str = "") -> list[str]:
    """Rewrite every stats blob under ``prefix`` as v1 JSON; returns their names."""
    names = [
        name
        for name in store.list_blobs(prefix=prefix)
        if name.endswith(f"/{STATS_BLOB_SUFFIX}")
    ]
    for name in names:
        store.put(name, encode_legacy_stats(decode_stats(store.get(name))))
    return names
