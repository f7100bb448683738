"""Airphant: cloud-oriented document indexing (ICDE 2022) — Python reproduction.

Airphant is a search engine built for the *separation of compute and
storage*: documents and their inverted index live entirely on cloud object
storage, and a small compute node answers keyword queries with a single
batch of parallel range reads thanks to the **IoU Sketch**, a statistical
inverted index that trades a few (later filtered) false positives for the
elimination of all dependent sequential round-trips.

Quickstart::

    from repro import (
        AirphantService, SearchRequest, SimulatedCloudStore, SketchConfig,
    )

    store = SimulatedCloudStore()
    store.put("corpus/logs.txt", b"error disk full\\ninfo started\\nerror timeout")

    service = AirphantService(store)
    service.build_index("logs-index", ["corpus/logs.txt"],
                        sketch_config=SketchConfig(num_bins=1024))

    response = service.search(SearchRequest(query="error", index="logs-index", top_k=10))
    print([hit.text for hit in response.documents])

Sub-packages
------------
* :mod:`repro.core` — IoU Sketch, its optimizer and accuracy analysis.
* :mod:`repro.index` — Builder, superpost compaction, serialization.
* :mod:`repro.search` — Searcher, Boolean/regex queries, hedged requests.
* :mod:`repro.ingest` — live write path: WAL-backed memtables, delta
  flushes, background compaction (the paper's "frequent updates" extension).
* :mod:`repro.service` — service facade, typed request/response API, HTTP server.
* :mod:`repro.storage` — object-store abstraction, URI backend registry
  (``mem://``/``file://``/``sim://``/``http(s)://``/``s3://``), resilience
  wrapper (retries/timeouts/hedged reads), simulated cloud storage.
* :mod:`repro.parsing` / :mod:`repro.profiling` — corpus parsing & profiling.
* :mod:`repro.baselines` — Lucene-, Elasticsearch-, SQLite-like and hash-table
  baselines used in the paper's evaluation.
* :mod:`repro.workloads` — synthetic / Cranfield-like / log-corpus generators.
* :mod:`repro.cost` — coupled-vs-decoupled deployment cost model.
* :mod:`repro.bench` — benchmark harness regenerating the paper's figures.
"""

from repro.baselines import (
    AirphantEngine,
    ElasticLikeEngine,
    HashTableEngine,
    LuceneLikeEngine,
    SearchEngine,
    SQLiteLikeEngine,
)
from repro.core import (
    IoUSketch,
    MultilayerHashTable,
    SketchConfig,
    Superpost,
    expected_false_positives,
    minimize_layers,
)
from repro.cost import CostModel, PeakTroughWorkload
from repro.observability import MetricsRegistry, get_registry
from repro.index import (
    AirphantBuilder,
    AppendOnlyIndexManager,
    BuiltIndex,
    BuiltShardedIndex,
    IndexMetadata,
    ShardManifest,
)
from repro.ingest import (
    IngestCoordinator,
    LiveIndex,
    Memtable,
    MemtableMember,
    WriteAheadLog,
)
from repro.parsing import (
    Document,
    DocumentRef,
    LineDelimitedCorpusParser,
    Posting,
    SimpleAnalyzer,
    WhitespaceAnalyzer,
    WholeBlobCorpusParser,
)
from repro.profiling import CorpusProfile, profile_documents
from repro.search import (
    AirphantSearcher,
    And,
    HedgingPolicy,
    IndexMember,
    Member,
    Or,
    RegexSearcher,
    SearchResult,
    Term,
)
from repro.service import (
    AirphantService,
    IndexCatalog,
    IndexInfo,
    SearchRequest,
    SearchResponse,
    ServiceConfig,
    ServiceError,
)
from repro.storage import (
    AffineLatencyModel,
    FlakyStore,
    HTTPRangeStore,
    InMemoryObjectStore,
    LocalObjectStore,
    ObjectStore,
    RangeRead,
    ReadOnlyStoreError,
    ReadPipeline,
    ResilientStore,
    RetriesExhaustedError,
    S3ObjectStore,
    SimulatedCloudStore,
    StoreAccessError,
    StoreURIError,
    TransientStoreError,
    open_store,
    register_scheme,
)
from repro.workloads import QueryWorkload, sample_query_words

__version__ = "1.0.0"

__all__ = [
    "AffineLatencyModel",
    "AirphantBuilder",
    "AirphantEngine",
    "AirphantSearcher",
    "AirphantService",
    "AppendOnlyIndexManager",
    "And",
    "BuiltIndex",
    "BuiltShardedIndex",
    "CorpusProfile",
    "CostModel",
    "Document",
    "DocumentRef",
    "ElasticLikeEngine",
    "FlakyStore",
    "HTTPRangeStore",
    "HashTableEngine",
    "HedgingPolicy",
    "IndexCatalog",
    "IndexInfo",
    "IndexMember",
    "IndexMetadata",
    "IngestCoordinator",
    "InMemoryObjectStore",
    "IoUSketch",
    "LineDelimitedCorpusParser",
    "LiveIndex",
    "LocalObjectStore",
    "LuceneLikeEngine",
    "Member",
    "Memtable",
    "MemtableMember",
    "MetricsRegistry",
    "MultilayerHashTable",
    "ObjectStore",
    "Or",
    "PeakTroughWorkload",
    "Posting",
    "QueryWorkload",
    "RangeRead",
    "ReadOnlyStoreError",
    "ReadPipeline",
    "RegexSearcher",
    "ResilientStore",
    "RetriesExhaustedError",
    "S3ObjectStore",
    "SQLiteLikeEngine",
    "SearchEngine",
    "SearchRequest",
    "SearchResponse",
    "SearchResult",
    "ServiceConfig",
    "ServiceError",
    "ShardManifest",
    "SimpleAnalyzer",
    "SimulatedCloudStore",
    "SketchConfig",
    "StoreAccessError",
    "StoreURIError",
    "Superpost",
    "Term",
    "TransientStoreError",
    "WhitespaceAnalyzer",
    "WholeBlobCorpusParser",
    "WriteAheadLog",
    "expected_false_positives",
    "get_registry",
    "minimize_layers",
    "open_store",
    "profile_documents",
    "register_scheme",
    "sample_query_words",
    "__version__",
]
