"""The query-path seam check (``scripts/check_seams.py``) holds on this tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_seams.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_seams", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_path_seams_are_clean():
    assert _load().findings() == []


def test_checker_sees_through_comments_but_not_code(tmp_path):
    check_seams = _load()
    package = tmp_path / "src" / "repro" / "search"
    package.mkdir(parents=True)
    (package / "wrapper.py").write_text(
        '"""Docstrings may say __getattr__ and list[Any] freely."""\n'
        "from typing import Any\n"
        "# isinstance(x, FooSearcher) in a comment is fine\n"
        "class Wrapper:\n"
        "    def __getattr__(self, name: str) -> Any:\n"
        "        return getattr(self._inner, name)\n"
        "def members() -> list[Any]:\n"
        "    return []\n"
        "def dispatch(x):\n"
        "    return isinstance(x, FooSearcher)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(tmp_path / "src" / "repro")
    assert [problem.split(": ", 1)[1] for problem in found] == [
        "__getattr__ pass-through",
        "list[Any] member list",
        "isinstance on a searcher type",
    ]


def test_checker_guards_the_clock_seam_and_the_one_pool(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("storage", "baselines", "search"):
        (root / package).mkdir(parents=True)
    # Allowed: the simulator's own package knows its type, and the fetch
    # pool helper builds its executor.
    (root / "storage" / "simulated.py").write_text(
        "def wrap(store):\n    return isinstance(store, SimulatedCloudStore)\n", encoding="utf-8"
    )
    (root / "storage" / "parallel.py").write_text(
        "pool = ThreadPoolExecutor(max_workers=2)\n", encoding="utf-8"
    )
    assert check_seams.findings(root) == []

    # Forbidden: a second pool in storage/, and the simulator's type anywhere
    # above storage/ — baselines/ included, the budget is zero.
    (root / "storage" / "pipeline.py").write_text(
        '"""ThreadPoolExecutor( in a docstring is fine."""\n'
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pool = ThreadPoolExecutor(max_workers=2)\n",
        encoding="utf-8",
    )
    (root / "baselines" / "_io.py").write_text(
        "def timed(store):\n    return isinstance(store, SimulatedCloudStore)\n", encoding="utf-8"
    )
    (root / "search" / "member.py").write_text(
        "def timed(store):\n    return isinstance(store, (Other, SimulatedCloudStore))\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert len(found) == 2
    assert found[0].endswith("storage/pipeline.py:3: a thread pool beyond the allowed sites")
    assert found[1].startswith("2 isinstance(..., SimulatedCloudStore) checks outside storage")
    assert "baselines/_io.py:2" in found[1] and "search/member.py:2" in found[1]


def test_checker_allows_two_thread_pools_and_no_hedge_or_build_pool(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    sites = {
        ("storage", "parallel.py"): "fetch",
        ("cluster", "router.py"): "router",
    }
    for (package, name), prefix in sites.items():
        (root / package).mkdir(parents=True)
        (root / package / name).write_text(
            f"pool = ThreadPoolExecutor(thread_name_prefix={prefix!r})\n", encoding="utf-8"
        )
    assert check_seams.findings(root) == []

    # A second router pool, a resilient store's own hedge pool and a pool
    # for the builder's shards all fail.
    with (root / "cluster" / "router.py").open("a", encoding="utf-8") as router:
        router.write("hedge_pool = ThreadPoolExecutor(thread_name_prefix='hedge')\n")
    (root / "storage" / "resilient.py").write_text(
        "def _ensure_pool(self):\n"
        "    return ThreadPoolExecutor(thread_name_prefix='airphant-hedge')\n",
        encoding="utf-8",
    )
    (root / "index").mkdir()
    (root / "index" / "builder.py").write_text(
        "pool = ThreadPoolExecutor(thread_name_prefix='airphant-build')\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert [problem.rsplit("/", 2)[-2:] for problem in found] == [
        ["cluster", "router.py:2: a thread pool beyond the allowed sites"],
        ["index", "builder.py:1: a thread pool beyond the allowed sites"],
        ["storage", "resilient.py:2: a thread pool beyond the allowed sites"],
    ]


def test_checker_guards_the_store_layout_and_its_one_opener(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "service", "storage"):
        (root / package).mkdir(parents=True)
    # Allowed: the layout module spells the names and calls the decoders'
    # package-mates; docstrings anywhere may mention them; the two homonyms
    # (bucket listing manifest, snapshot URL route) are not index layout.
    (root / "index" / "store_layout.py").write_text(
        'HEADER = "header.json"\nDELTA = "/delta-"\nSEGMENT = f"{x}/seg-{n:08d}.log"\n',
        encoding="utf-8",
    )
    (root / "index" / "updates.py").write_text(
        'def compact():\n    """Builds ``gen-NNNNNNNN/`` beside ``manifest.json``."""\n'
        "    return decode_header(payload)\n",
        encoding="utf-8",
    )
    (root / "storage" / "listing.py").write_text(
        'LISTING_BLOB = "manifest.json"\n', encoding="utf-8"
    )
    (root / "service" / "http.py").write_text('marker = "/snapshots/"\n', encoding="utf-8")
    assert check_seams.findings(root) == []

    # Forbidden: a name re-spelled elsewhere (plain or inside an f-string,
    # even in index/), a homonym outside its one file, a decoder call above
    # index/.
    (root / "index" / "builder.py").write_text(
        'blob = f"{name}/header.json"\n', encoding="utf-8"
    )
    (root / "service" / "catalog.py").write_text(
        '"""Module docstrings may say /delta- and stats.json."""\n'
        'MARKER = "/delta-"\n'
        'ROUTE = "/snapshots/"\n'
        "metadata = decode_header(store.get(blob)).metadata\n",
        encoding="utf-8",
    )
    found = [problem.split(": ", 1) for problem in check_seams.findings(root)]
    assert [(where.split("repro/")[1], what.split(" outside")[0]) for where, what in found] == [
        ("index/builder.py:1", "layout literal 'header.json'"),
        ("service/catalog.py:2", "layout literal '/delta-'"),
        ("service/catalog.py:3", "layout literal '/snapshots/'"),
        ("service/catalog.py:4", "header decoder called"),
    ]


def test_checker_keeps_the_build_header_decoder_under_index(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "service", "search"):
        (root / package).mkdir(parents=True)
    # Allowed: the opener decodes a build's header; a docstring may name it.
    (root / "index" / "store_layout.py").write_text(
        "found = decode_build_header(payload, name)\n", encoding="utf-8"
    )
    (root / "search" / "member.py").write_text(
        '"""Members never call decode_build_header( themselves."""\n', encoding="utf-8"
    )
    assert check_seams.findings(root) == []
    (root / "service" / "catalog.py").write_text(
        "manifest, members = decode_build_header(store.get(blob), name)\n", encoding="utf-8"
    )
    found = [problem.split(": ", 1) for problem in check_seams.findings(root)]
    assert [(where.split("repro/")[1], what.split(" outside")[0]) for where, what in found] == [
        ("service/catalog.py:1", "header decoder called"),
    ]


def test_checker_keeps_read_waves_in_the_executor(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "ingest", "storage"):
        (root / package).mkdir(parents=True)
    # Allowed: the executor issues both waves, a member may name read_batch(
    # in a docstring, and storage/ is where read_batch lives.
    (root / "search" / "searcher.py").write_text(
        "fetch = self.pipeline.fetch(requests)\n"
        "fetch = self.pipeline.store.read_batch(requests, width)\n",
        encoding="utf-8",
    )
    (root / "search" / "member.py").write_text(
        '"""Statistics ride the plan, not a store.read_batch( of their own."""\n'
        "reads = [RangeRead(stats_blob_name(name), optional=True) for name in names]\n",
        encoding="utf-8",
    )
    (root / "storage" / "pipeline.py").write_text(
        "fetch = self._store.read_batch(physical, width)\n", encoding="utf-8"
    )
    assert check_seams.findings(root) == []

    # Forbidden: a member reading on the query path, in either spelling —
    # its ranking statistics included.
    (root / "search" / "member.py").write_text(
        "fetch = self.pipeline.fetch(requests)\n"
        "stats = self._store.read_batch(stats_requests, self.max_concurrency)\n",
        encoding="utf-8",
    )
    (root / "search" / "ranking.py").write_text(
        "fetch = store.read_batch(requests)\n", encoding="utf-8"
    )
    (root / "ingest" / "memtable.py").write_text(
        "fetch = store.read_batch(requests)\n", encoding="utf-8"
    )
    (root / "ingest" / "wal.py").write_text(
        "fetch = store.read_batch(segments)\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1] for problem in found] == [
        "ingest/memtable.py:1: a read wave issued outside the executor",
        "search/member.py:1: a read wave issued outside the executor",
        "search/member.py:2: a read wave issued outside the executor",
        "search/ranking.py:1: a read wave issued outside the executor",
    ]


def test_checker_refuses_a_wave_that_waits_for_only_some_reads(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "storage"):
        (root / package).mkdir(parents=True)
    # Allowed: the two-argument contract, and "required" meaning anything else.
    (root / "storage" / "base.py").write_text(
        "def read_batch(self, requests, max_concurrency=32):\n"
        "    return self._checked_batch(requests, max_concurrency)\n"
        "def read(self, request, required=True):\n"
        "    return None\n",
        encoding="utf-8",
    )
    (root / "search" / "searcher.py").write_text(
        '"""No read_batch(requests, width, required=2) here."""\n'
        "fetch = self.pipeline.store.read_batch(requests, width)\n"
        "parser.add_argument('--index', required=True)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a required count in a definition or a call, however spelt.
    (root / "storage" / "simulated.py").write_text(
        "def read_batch(self, requests, max_concurrency=32, required=None):\n"
        "    return None\n"
        "class Store:\n"
        "    def read_batch(self, requests, *, required: int | None = None):\n"
        "        return None\n",
        encoding="utf-8",
    )
    (root / "search" / "searcher.py").write_text(
        "fetch = self.pipeline.store.read_batch(\n"
        "    requests, self.pipeline.max_concurrency, required=required\n"
        ")\n"
        "fetch = read_batch(requests, required=1)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1].split(": ")[0] for problem in found] == [
        "search/searcher.py:1",
        "search/searcher.py:4",
        "storage/simulated.py:1",
        "storage/simulated.py:4",
    ]
    assert all("read_batch with a required count" in problem for problem in found)


def test_checker_keeps_the_build_side_on_waves_and_one_analyser(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "search"):
        (root / package).mkdir(parents=True)
    # Allowed: the statistics module analyses text, index/ reads in waves,
    # docstrings may name either call, and the read path is not the build side.
    (root / "index" / "stats.py").write_text(
        "analysed = tokenizer.tokenize(document.text)\n"
        "terms = tokenizer.distinct_terms(document.text)\n",
        encoding="utf-8",
    )
    (root / "index" / "updates.py").write_text(
        '"""Never one store.get_range( per document, nor a .tokenize( here."""\n'
        "fetch = self._store.read_batch(reads)\n",
        encoding="utf-8",
    )
    (root / "search" / "searcher.py").write_text(
        "words = self._tokenizer.tokenize(query)\n", encoding="utf-8"
    )
    assert check_seams.findings(root) == []

    # Forbidden: a dependent read per document, and a second analysis pass.
    (root / "index" / "updates.py").write_text(
        "data = self._store.get_range(posting.blob, posting.offset, posting.length)\n",
        encoding="utf-8",
    )
    (root / "index" / "builder.py").write_text(
        "for word in self._tokenizer.distinct_terms(document.text):\n"
        "    tokens = self._tokenizer.tokenize(document.text)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1] for problem in found] == [
        "index/builder.py:1: documents analysed outside index/stats.py",
        "index/builder.py:2: documents analysed outside index/stats.py",
        "index/updates.py:1: a dependent get_range on the build side",
    ]


def test_checker_keeps_the_write_path_to_one_tokenize_per_line(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    (root / "ingest").mkdir(parents=True)
    # Allowed: the memtable tokenizes each line as it arrives, and a
    # docstring elsewhere may name the call.
    (root / "ingest" / "memtable.py").write_text(
        "tokens = self._tokenizer.tokenize(text)\n"
        "words = self._tokenizer.distinct_terms(text)\n",
        encoding="utf-8",
    )
    (root / "ingest" / "live.py").write_text(
        '"""The memtable is the one .tokenize( of a line."""\n'
        "self._active.add(*segment)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: the write path analysing a line again outside the memtable.
    (root / "ingest" / "live.py").write_text(
        "survivors = [self._tokenizer.tokenize(text) for text in texts]\n", encoding="utf-8"
    )
    (root / "ingest" / "wal.py").write_text(
        "terms = tokenizer.distinct_terms(line)\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1] for problem in found] == [
        "ingest/live.py:1: documents analysed outside ingest/memtable.py",
        "ingest/wal.py:1: documents analysed outside ingest/memtable.py",
    ]


def test_checker_keeps_exists_probes_off_the_open_path(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "service", "index", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: the catalog's public contains(), store_layout functions that are
    # not openers, the coordinator outside live(), docstrings and comments.
    (root / "service" / "catalog.py").write_text(
        "class IndexCatalog:\n"
        "    def contains(self, name):\n"
        "        return any(self._store.exists(blob) for blob in discovery_blobs(name))\n",
        encoding="utf-8",
    )
    (root / "index" / "store_layout.py").write_text(
        "def build_exists(store, name):\n"
        "    return store.exists(name)\n"
        "def open_index(store, name):\n"
        '    """Never asks store.exists( first."""\n'
        "    return store.read_batch([name])  # not store.exists(name)\n",
        encoding="utf-8",
    )
    (root / "ingest" / "live.py").write_text(
        "class IngestCoordinator:\n"
        "    def discard(self, name):\n"
        "        return self._store.exists(name)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a probe planted in each place the open path runs through.
    (root / "service" / "catalog.py").write_text(
        "class IndexCatalog:\n"
        "    def open(self, name):\n"
        "        if not self._store.exists(name):\n"
        "            raise KeyError(name)\n",
        encoding="utf-8",
    )
    (root / "index" / "store_layout.py").write_text(
        "def open_headers(store, names):\n"
        "    return [name for name in names if store.exists(name)]\n",
        encoding="utf-8",
    )
    (root / "ingest" / "live.py").write_text(
        "class IngestCoordinator:\n"
        "    def live(self, name):\n"
        "        return self._store.exists(name)\n",
        encoding="utf-8",
    )
    (root / "ingest" / "wal.py").write_text(
        "def manifest(self):\n    return self._store.exists(self.manifest_blob)\n",
        encoding="utf-8",
    )
    (root / "search" / "searcher.py").write_text(
        "def initialize(self):\n    return self._store.exists(self._name)\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1] for problem in found] == [
        "index/store_layout.py:2: exists() probe on the open path",
        "ingest/live.py:3: exists() probe on the open path",
        "ingest/wal.py:2: exists() probe on the open path",
        "search/searcher.py:2: exists() probe on the open path",
        "service/catalog.py:3: exists() probe on the open path",
    ]


def test_checker_keeps_array_code_behind_the_posting_list_type(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("core", "index", "search", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: numpy behind the type and in the codec; the executor ordering
    # a query's words; any other search/ file sorting what it likes.
    (root / "core" / "superpost.py").write_text(
        "import numpy as np\nkey = np.searchsorted(a, b)\n", encoding="utf-8"
    )
    (root / "index" / "serialization.py").write_text(
        "import numpy as np\nraw = np.frombuffer(data, np.uint8)\n", encoding="utf-8"
    )
    (root / "search" / "searcher.py").write_text(
        '"""np.array and sorted(candidates) in a docstring are fine."""\n'
        "words = sorted(tree.terms())\n",
        encoding="utf-8",
    )
    (root / "search" / "ranking.py").write_text("best = sorted(scored)\n", encoding="utf-8")
    assert check_seams.findings(root) == []

    # Forbidden: arrays in the four query-path files, a re-sort in the executor.
    (root / "search" / "searcher.py").write_text(
        "import numpy as np\n"
        "def lookup(owners, found):\n"
        "    postings = sorted(owners)\n"
        "    return found.sorted_postings()\n",
        encoding="utf-8",
    )
    (root / "search" / "member.py").write_text(
        "def keys(columns):\n    return np.concatenate(columns)\n", encoding="utf-8"
    )
    (root / "search" / "boolean.py").write_text("from numpy import intersect1d\n", encoding="utf-8")
    (root / "ingest" / "memtable.py").write_text(
        "def postings(held):\n    return np.array(held)\n", encoding="utf-8"
    )
    found = [
        problem.split(": ", 1)[0].rsplit("/", 1)[-1] + " " + problem.split(": ", 1)[1]
        for problem in check_seams.findings(root)
    ]
    assert sorted(found) == [
        "boolean.py:1 array code outside the posting-list type",
        "member.py:2 array code outside the posting-list type",
        "memtable.py:2 array code outside the posting-list type",
        "searcher.py:1 array code outside the posting-list type",
        "searcher.py:3 the executor re-sorts candidates",
        "searcher.py:4 the executor re-sorts candidates",
    ]


def test_checker_keeps_http_connections_in_the_pooled_client(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("storage", "cluster"):
        (root / package).mkdir(parents=True)
    # Allowed: the pooled client opens connections, the CLI's one-shot calls
    # use urllib, and anyone may mention them in a docstring or comment.
    (root / "storage" / "connections.py").write_text(
        "connection = http.client.HTTPConnection(host, port)\n"
        "secure = http.client.HTTPSConnection(host, port)\n",
        encoding="utf-8",
    )
    (root / "cli.py").write_text(
        "with urllib.request.urlopen(url, timeout=10.0) as response:\n    pass\n",
        encoding="utf-8",
    )
    (root / "cluster" / "health.py").write_text(
        '"""Probes used to call urllib.request.urlopen( per tick."""\n'
        "status = send(pool, 'GET', url)  # not urlopen(url)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a connection of its own anywhere else, in any spelling.
    (root / "cluster" / "health.py").write_text(
        "with urllib.request.urlopen(url) as response:\n    pass\n", encoding="utf-8"
    )
    (root / "storage" / "s3.py").write_text(
        "from http.client import HTTPSConnection\nconnection = HTTPSConnection(host)\n",
        encoding="utf-8",
    )
    (root / "cluster" / "router.py").write_text(
        "connection = http.client.HTTPConnection(host, port, timeout=timeout_s)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert [problem.split("repro/")[1] for problem in found] == [
        "cluster/health.py:1: HTTP connection outside the pooled client",
        "cluster/router.py:1: HTTP connection outside the pooled client",
        "storage/s3.py:2: HTTP connection outside the pooled client",
    ]


def test_checker_keeps_one_pipeline_and_no_retired_read_knobs(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "storage", "service"):
        (root / package).mkdir(parents=True)
    # Allowed: the executor builds the one pipeline of an opened index, the
    # pipeline module defines the class, and docstrings or comments may name
    # what was deleted.
    (root / "search" / "searcher.py").write_text(
        "self.pipeline = ReadPipeline(store, width, cache_bytes=budget)\n", encoding="utf-8"
    )
    (root / "storage" / "pipeline.py").write_text(
        '"""No max_gap, no query_cache: ReadPipeline( is built by the executor."""\n'
        "class ReadPipeline:\n"
        "    pass  # coalesce_gap bridging is gone\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a second pipeline, and any spelling of a retired knob.
    (root / "search" / "member.py").write_text(
        "pipeline = ReadPipeline(store)\n", encoding="utf-8"
    )
    (root / "storage" / "pipeline.py").write_text(
        "def __init__(self, store, max_gap=0):\n    self._max_gap = max_gap\n",
        encoding="utf-8",
    )
    (root / "service" / "config.py").write_text(
        "coalesce_gap: int = 0\n"
        "size = getattr(args, \"query_cache_size\", 0)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "search/member.py:1: read pipeline built outside search/searcher.py",
        "service/config.py:1: retired knob",
        "service/config.py:2: retired knob",
        "storage/pipeline.py:1: retired knob",
        "storage/pipeline.py:2: retired knob",
    ]


def test_checker_keeps_the_retired_options_out(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "index", "service", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: the on-store constant spells "partitioner", the optimizer
    # keeps its own max_layers argument, and docstrings or comments may name
    # what was deleted.
    (root / "index" / "metadata.py").write_text(
        'PARTITIONER = "hash"\n'
        'payload = {"partitioner": PARTITIONER}  # no round-robin any more\n',
        encoding="utf-8",
    )
    (root / "index" / "builder.py").write_text(
        '"""No top_k_delta, delta_config, compact_ratio or round_robin here."""\n'
        "result = minimize_layers(bins, target, profile, max_layers=MAX_LAYERS)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: each retired option, in code or in a string.
    (root / "search" / "searcher.py").write_text(
        "self._top_k_delta = top_k_delta\n", encoding="utf-8"
    )
    (root / "index" / "updates.py").write_text(
        "def __init__(self, store, delta_config=None): pass\n", encoding="utf-8"
    )
    (root / "service" / "config.py").write_text(
        "ingest_compact_ratio: float = 0.0\n", encoding="utf-8"
    )
    (root / "index" / "sharding.py").write_text(
        'PARTITIONERS = ("hash", "round-robin")\n'
        "routing = shard_of if round_robin else route_rows\n",
        encoding="utf-8",
    )
    (root / "ingest" / "live.py").write_text(
        'ratio = getattr(args, "compact_ratio", 0.0)\n', encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/sharding.py:1: retired knob",
        "index/sharding.py:2: retired knob",
        "index/updates.py:1: retired knob",
        "ingest/live.py:1: retired knob",
        "search/searcher.py:1: retired knob",
        "service/config.py:1: retired knob",
    ]


def test_checker_keeps_no_reader_of_a_retired_format(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "baselines", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: the baselines' own postings codec, other blobs' version
    # constants that merely end alike, and docstrings or comments that name
    # what was deleted.
    (root / "baselines" / "inverted.py").write_text(
        "FORMAT_V1 = 1\ndef _decode_legacy_postings(data):\n    pass\n", encoding="utf-8"
    )
    (root / "ingest" / "wal.py").write_text("TOMBSTONE_FORMAT_V1 = 1\n", encoding="utf-8")
    (root / "index" / "compaction.py").write_text(
        '"""No _decode_legacy_header, no SUPPORTED_FORMAT_VERSIONS."""\n'
        "CODEC_VERSION = 2  # FORMAT_V1 is gone\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: any of them brought back outside the baselines.
    (root / "index" / "serialization.py").write_text(
        "FORMAT_V1 = 1\nSUPPORTED_FORMAT_VERSIONS = (FORMAT_V1, 2)\n", encoding="utf-8"
    )
    (root / "index" / "stats.py").write_text(
        "stats = _decode_legacy_stats(data, index_name)\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/serialization.py:1: reader of a retired on-store format",
        "index/serialization.py:2: reader of a retired on-store format",
        "index/stats.py:1: reader of a retired on-store format",
    ]


def test_checker_keeps_no_reader_of_a_retired_stats_container(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "search"):
        (root / package).mkdir(parents=True)
    # Allowed: the stats module names the v2 magic to refuse it, and the
    # current container's decoder.
    (root / "index" / "stats.py").write_text(
        '_RETIRED_STATS = {b"AIRPSTA\\n": "a stats container v2 blob"}\n'
        "def _decode_v3_stats(data):\n    pass\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a v2 decoder anywhere, or the v2 magic outside the stats module.
    (root / "index" / "stats.py").write_text(
        "def _decode_v2_stats(data):\n    pass\n", encoding="utf-8"
    )
    (root / "search" / "member.py").write_text(
        'LEGACY = data.startswith(b"AIRPSTA\\n") and decode_v1_stats(data)\n', encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/stats.py:1: decoder of a retired stats container",
        "search/member.py:1: decoder of a retired stats container",
        "search/member.py:1: retired v2 stats magic outside index/stats.py",
    ]


def test_checker_keeps_one_cost_record_and_counters_on_their_fields(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("observability", "search", "storage"):
        (root / package).mkdir(parents=True)
    # Allowed: the stats module may hold a table; a wave's scalar cost, a
    # ``_batch`` attribute and a docstring naming the old spelling are fine.
    (root / "observability" / "stats.py").write_text(
        "_COUNTER_TABLE: dict[str, str] = {}\n", encoding="utf-8"
    )
    (root / "search" / "searcher.py").write_text(
        '"""Once read as fetch.batch.wait_ms and kept _WAVE_COUNTERS = {}."""\n'
        "account(fetch.wait_ms, fetch.nbytes)\n"
        "size = self._batch.size\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a per-request record read, and a counter table anywhere else.
    (root / "search" / "member.py").write_text(
        "account(fetch.batch.total_ms)\n", encoding="utf-8"
    )
    (root / "storage" / "pipeline.py").write_text(
        "_PIPELINE_COUNTERS: dict[str, tuple[str, str]] = {\n"
        '    "requests_in": ("airphant_x_total", "x"),\n'
        "}\n"
        "class PipelineStats:\n"
        "    _COUNTER_TABLE = _PIPELINE_COUNTERS\n",
        encoding="utf-8",
    )
    (root / "storage" / "metrics.py").write_text(
        "_SIM_COUNTERS = dict(requests=1)\n", encoding="utf-8"
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "search/member.py:1: a per-request batch record read",
        "storage/metrics.py:1: a metric-counter table outside observability/stats.py",
        "storage/pipeline.py:1: a metric-counter table outside observability/stats.py",
        "storage/pipeline.py:5: a metric-counter table outside observability/stats.py",
    ]


def test_checker_keeps_the_query_tier_off_the_index_and_search_packages(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("cluster", "service"):
        (root / package).mkdir(parents=True)
    # Allowed: the router speaks the service's types and the store's
    # connections; a docstring may name the packages; the service itself
    # may import what it likes.
    (root / "cluster" / "router.py").write_text(
        '"""Knows nothing of repro.index.store_layout."""\n'
        "from repro.service.api import SearchRequest\n"
        "from repro.storage.connections import send\n"
        "import repro.indexing_helpers\n",
        encoding="utf-8",
    )
    (root / "service" / "facade.py").write_text(
        "from repro.search.searcher import AirphantSearcher\n", encoding="utf-8"
    )
    assert check_seams.findings(root) == []

    # Forbidden: a planted import of either package, in either spelling.
    (root / "cluster" / "topology.py").write_text(
        "from repro.index.store_layout import shard_index_name\n"
        "import repro.search.member\n"
        "from repro import search\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "cluster/topology.py:1: the query tier imports from repro.index or repro.search",
        "cluster/topology.py:2: the query tier imports from repro.index or repro.search",
        "cluster/topology.py:3: the query tier imports from repro.index or repro.search",
    ]


def test_checker_keeps_every_opened_build_ranked_and_compaction_off_superposts(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "search", "service"):
        (root / package).mkdir(parents=True)
    # Allowed: the member and the header decode runs; a private decoder
    # with a longer name, and a docstring naming the retired error, are fine.
    (root / "search" / "member.py").write_text(
        "postings = header.decode_run(row, payload)\n", encoding="utf-8"
    )
    (root / "index" / "compaction.py").write_text(
        "def decode_run(self, run, payload):\n    pass\n", encoding="utf-8"
    )
    (root / "index" / "stats.py").write_text(
        '"""Once raised RankingUnsupportedError (ranking_unavailable)."""\n'
        "rows = self._decode_run(key)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: compaction decoding superposts, and the retired error or
    # its code, in code or in a string literal.
    (root / "index" / "updates.py").write_text(
        "postings.update(header.decode_run(row, blob))\n", encoding="utf-8"
    )
    (root / "service" / "facade.py").write_text(
        "try:\n"
        "    answer()\n"
        "except RankingUnsupportedError as error:\n"
        '    raise ServiceError(400, "ranking_unavailable", str(error))\n',
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/updates.py:1: a superpost run decoded outside its reader",
        "service/facade.py:3: a build without statistics answered as a second kind of index",
        "service/facade.py:4: a build without statistics answered as a second kind of index",
    ]


def test_checker_keeps_where_a_base_lands_and_what_is_purged_in_the_manager(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "baselines", "service"):
        (root / package).mkdir(parents=True)
    # Allowed: the manager builds and purges, the layout module defines and
    # sums the ownership rule, the baseline builds its private index; a
    # docstring or a comment may name either.
    (root / "index" / "updates.py").write_text(
        "builder = AirphantBuilder(store, config)\n"
        "for blob in build_blobs(store, name):\n"
        "    store.delete(blob)\n",
        encoding="utf-8",
    )
    (root / "index" / "store_layout.py").write_text(
        "def build_blobs(store, name):\n"
        "    pass\n"
        "total = sum(store.size(blob) for blob in build_blobs(store, name))\n",
        encoding="utf-8",
    )
    (root / "baselines" / "airphant.py").write_text(
        "builder = AirphantBuilder(store, config=config)\n", encoding="utf-8"
    )
    (root / "index" / "builder.py").write_text(
        '"""Usage: AirphantBuilder(store).build_from_stats(stats)."""\n'
        "class AirphantBuilder:  # no build_blobs(store, name) sweep\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a facade deciding where a base lands, a builder sweeping
    # what an earlier layout of the name left behind.
    (root / "service" / "facade.py").write_text(
        "AirphantBuilder(self.store, num_shards=n).build_from_blobs(blobs, name)\n",
        encoding="utf-8",
    )
    (root / "index" / "builder.py").write_text(
        "for blob in build_blobs(self._store, index_name):\n"
        "    self._store.delete(blob)\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/builder.py:1: a build's blobs listed outside the index manager",
        "service/facade.py:1: a Builder constructed outside the index manager",
    ]


def test_checker_keeps_the_one_commit_point_in_the_manager(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: the manager PUTs its manifest, reads the legacy WAL manifest
    # beside it and deletes it once folded in; an import, a docstring or a
    # comment may name it, and other blobs are PUT anywhere.
    (root / "index" / "updates.py").write_text(
        "from repro.index.store_layout import ingest_manifest_blob\n"
        "def manifest_reads(name):\n"
        "    return [update_manifest_blob_name(name), ingest_manifest_blob(name)]\n"
        "def commit(self, change):\n"
        "    self._store.put(self.manifest_blob, change(self.manifest()))\n"
        "    self._store.delete(ingest_manifest_blob(self._base_index))\n",
        encoding="utf-8",
    )
    (root / "index" / "store_layout.py").write_text(
        "def ingest_manifest_blob(name):\n"
        '    """Read beside update_manifest_blob_name(name), never written."""\n',
        encoding="utf-8",
    )
    (root / "ingest" / "wal.py").write_text(
        "self._store.put(segment_blob(self._index_name, sequence), data)\n"
        "# the legacy ingest_manifest_blob is the manager's business\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a second writer of the manifest, and the legacy WAL
    # manifest named outside the fold-in (read, written or probed).
    (root / "ingest" / "wal.py").write_text(
        "self._store.put(self.manifest_blob, data)\n"
        "self._store.put(ingest_manifest_blob(self._index_name), data)\n",
        encoding="utf-8",
    )
    (root / "index" / "store_layout.py").write_text(
        "def open_index(store, name):\n"
        "    blob = update_manifest_blob_name(name)\n"
        "    store.put(update_manifest_blob_name(name), b'{}')\n"
        "    return store.get(ingest_manifest_blob(name))\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/store_layout.py:3: a manifest PUT outside index/updates.py",
        "index/store_layout.py:4: the legacy WAL manifest named outside the fold-in",
        "ingest/wal.py:1: a manifest PUT outside index/updates.py",
        "ingest/wal.py:2: the legacy WAL manifest named outside the fold-in",
    ]


def test_checker_keeps_pending_deletes_in_the_manifest(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("index", "ingest"):
        (root / package).mkdir(parents=True)
    # Allowed: the layout names a legacy record, the fold-in decodes it, a
    # purge deletes it, and a docstring or comment may name the reader.
    (root / "index" / "store_layout.py").write_text(
        "def tombstone_blob(name, n):\n"
        '    return f"{name}/ingest/tomb-{n:08d}.json"\n',
        encoding="utf-8",
    )
    (root / "index" / "updates.py").write_text(
        "from repro.ingest.records import parse_tombstones\n"
        "def parse_tombstones(data):\n"
        "    return []\n"
        "def folded(self, records):\n"
        "    return [parse_tombstones(records[blob]) for blob in self.legacy_records]\n"
        "def purge(self, blob):\n"
        "    self._store.delete(tombstone_blob(self._base_index, 2))\n",
        encoding="utf-8",
    )
    (root / "ingest" / "wal.py").write_text(
        '"""No parse_tombstones here: a delete is one manifest PUT."""\n'
        "self._store.put(segment_blob(self._index_name, sequence), data)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a delete record written, by namer or by literal, and the
    # legacy reader used outside the fold-in.
    (root / "ingest" / "wal.py").write_text(
        "self._store.put(tombstone_blob(self._index_name, sequence), data)\n"
        "records = [parse_tombstones(data) for data in payloads]\n",
        encoding="utf-8",
    )
    (root / "index" / "updates.py").write_text(
        "def restore(self, record):\n"
        '    self._store.put(f"{self._base_index}/ingest/tomb-{self.counter:08d}.json", record)\n'
        "def folded(self, records):\n"
        "    return [parse_tombstones(records[blob]) for blob in self.legacy_records]\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "index/updates.py:2: a delete record written",
        "index/updates.py:2: layout literal 'tomb-' outside index/store_layout.py",
        "ingest/wal.py:1: a delete record written",
        "ingest/wal.py:2: a legacy delete record read outside the fold-in",
    ]


def test_checker_keeps_one_manager_per_name(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("service", "ingest", "index"):
        (root / package).mkdir(parents=True)
    # Allowed: the catalog makes a name's one manager, the index package
    # defines it, and a docstring or comment may name the constructor.
    (root / "service" / "catalog.py").write_text(
        "class IndexCatalog:\n"
        "    def manager(self, name):\n"
        "        return self._managers.setdefault(name, AppendOnlyIndexManager(self._store, name))\n",
        encoding="utf-8",
    )
    (root / "index" / "updates.py").write_text(
        "class AppendOnlyIndexManager:\n"
        "    def copy(self):\n"
        "        return AppendOnlyIndexManager(self._store, self._base_index)\n",
        encoding="utf-8",
    )
    (root / "ingest" / "live.py").write_text(
        '"""Commits through the catalog\'s AppendOnlyIndexManager(store, name)."""\n'
        "# never AppendOnlyIndexManager(store, name) here\n"
        "manager = self._manager(name)\n",
        encoding="utf-8",
    )
    assert check_seams.findings(root) == []

    # Forbidden: a second manager for a name, as a fallback or elsewhere in
    # the catalog.
    (root / "ingest" / "live.py").write_text(
        "self._manager = manager or AppendOnlyIndexManager(store, index_name)\n",
        encoding="utf-8",
    )
    (root / "service" / "catalog.py").write_text(
        "class IndexCatalog:\n"
        "    def open(self, name):\n"
        "        return AppendOnlyIndexManager(self._store, name).manifest()\n",
        encoding="utf-8",
    )
    found = check_seams.findings(root)
    assert sorted(problem.split("repro/")[1] for problem in found) == [
        "ingest/live.py:1: an index manager made outside IndexCatalog.manager",
        "service/catalog.py:3: an index manager made outside IndexCatalog.manager",
    ]
