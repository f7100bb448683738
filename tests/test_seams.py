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
    # Allowed: the simulator's own package knows its type, and the two pool
    # files build their executors.
    (root / "storage" / "simulated.py").write_text(
        "def wrap(store):\n    return isinstance(store, SimulatedCloudStore)\n", encoding="utf-8"
    )
    for name in ("parallel.py", "resilient.py"):
        (root / "storage" / name).write_text(
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
    assert found[0].endswith("storage/pipeline.py:3: thread pool outside the storage pool helper")
    assert found[1].startswith("2 isinstance(..., SimulatedCloudStore) checks outside storage")
    assert "baselines/_io.py:2" in found[1] and "search/member.py:2" in found[1]


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
        "metadata = decode_header(store.get(blob)).metadata\n"
        "manifest = ShardManifest.from_json(payload)\n",
        encoding="utf-8",
    )
    found = [problem.split(": ", 1) for problem in check_seams.findings(root)]
    assert [(where.split("repro/")[1], what.split(" outside")[0]) for where, what in found] == [
        ("index/builder.py:1", "layout literal 'header.json'"),
        ("service/catalog.py:2", "layout literal '/delta-'"),
        ("service/catalog.py:3", "layout literal '/snapshots/'"),
        ("service/catalog.py:4", "header/manifest decoder called"),
        ("service/catalog.py:5", "header/manifest decoder called"),
    ]


def test_checker_keeps_read_waves_in_the_executor(tmp_path):
    check_seams = _load()
    root = tmp_path / "src" / "repro"
    for package in ("search", "ingest", "storage"):
        (root / package).mkdir(parents=True)
    # Allowed: the executor issues both waves (and the hedged one straight on
    # the store), a member may name read_batch( in a docstring, and storage/
    # is where read_batch lives.
    (root / "search" / "searcher.py").write_text(
        "fetch = self.pipeline.fetch(requests, width)\n"
        "fetch = self.pipeline.store.read_batch(requests, width, required=required)\n",
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
        "service/config.py:1: retired read-path knob",
        "service/config.py:2: retired read-path knob",
        "storage/pipeline.py:1: retired read-path knob",
        "storage/pipeline.py:2: retired read-path knob",
    ]
