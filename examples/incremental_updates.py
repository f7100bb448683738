"""Append-only index updates (the paper's "frequent corpus updates" future work).

New log lines keep arriving after the base index was built.  Instead of
rebuilding everything, the `AppendOnlyIndexManager` indexes each new batch as
a small *delta* index; queries fan out over the base plus all deltas; and a
periodic `compact()` folds the deltas back into a single base index.

Run with::

    python examples/incremental_updates.py
"""

from __future__ import annotations

from repro import AppendOnlyIndexManager, SimulatedCloudStore, SketchConfig
from repro.parsing import LineDelimitedCorpusParser
from repro.workloads import generate_log_corpus


def main() -> None:
    store = SimulatedCloudStore()
    parser = LineDelimitedCorpusParser()

    # Day 0: build the base index over the existing corpus.
    base_corpus = generate_log_corpus(store, "hdfs", num_documents=10_000, seed=1)
    manager = AppendOnlyIndexManager(
        store,
        base_index="hdfs-logs",
        config=SketchConfig(num_bins=2048, target_false_positives=1.0),
    )
    base = manager.build_base(base_corpus.documents, corpus_name="hdfs-day0")
    print(f"base index: {base.metadata.num_documents} documents, L = {base.metadata.num_layers}")

    # Days 1-2: new log batches arrive and are appended as delta indexes.
    for day, seed in enumerate((101, 102), start=1):
        blob = f"incoming/day{day}.txt"
        lines = [
            f"ERROR dfs.DataNode DataXceiver day{day} incident {i} on nodeX" for i in range(200)
        ]
        store.put(blob, "\n".join(lines).encode("utf-8"))
        new_documents = list(parser.parse(store, [blob]))
        delta = manager.append(new_documents, corpus_name=f"hdfs-day{day}")
        print(f"appended day {day}: {delta.metadata.num_documents} documents "
              f"-> {delta.index_name}")

    # Queries see old and new documents alike.
    searcher = manager.open_searcher()
    result = searcher.search("incident", top_k=5)
    print(f"\nsearch 'incident' across base + {len(manager.manifest().delta_indexes)} deltas: "
          f"{result.num_results} of {result.num_candidates} candidates "
          f"({result.latency_ms:.0f} ms simulated)")
    for document in result.documents[:3]:
        print(f"   {document.text}")

    # Compaction folds everything back into one index.
    compacted = manager.compact(corpus_name="hdfs-compacted")
    print(f"\nafter compaction: {compacted.metadata.num_documents} documents in a single index, "
          f"deltas removed: {manager.manifest().delta_indexes == ()}")
    result = manager.open_searcher().search("incident", top_k=5)
    print(f"search 'incident' after compaction still returns {result.num_results} results")


if __name__ == "__main__":
    main()
