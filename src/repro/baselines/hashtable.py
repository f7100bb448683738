"""Naïve hash-table baseline.

The paper's HashTable baseline is "equivalent to IoU Sketch with the only
exception that it has a single layer (L = 1)": the same bin budget, the same
common-word handling, the same compaction — but no intersection, so every
query drags along all false positives of its single bin and pays for them in
document retrieval.
"""

from __future__ import annotations

from repro.baselines.airphant import AirphantEngine
from repro.core.config import SketchConfig
from repro.parsing.tokenizer import Tokenizer
from repro.storage.base import ObjectStore


class HashTableEngine(AirphantEngine):
    """IoU Sketch restricted to a single layer."""

    name = "HashTable"

    def __init__(
        self,
        store: ObjectStore,
        index_name: str = "hashtable-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        config: SketchConfig | None = None,
    ) -> None:
        base_config = config if config is not None else SketchConfig()
        super().__init__(
            store,
            index_name=index_name,
            tokenizer=tokenizer,
            max_concurrency=max_concurrency,
            config=base_config.with_layers(1),
        )
