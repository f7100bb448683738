#!/usr/bin/env python3
"""Seam checker for the query path (stdlib only).

The query path has one typed seam — the ``Member`` protocol of
``repro.search.member`` — and one executor.  This script fails when the
duck-typing that seam replaced creeps back in under
``src/repro/{search,ingest,service}``:

* a ``__getattr__`` pass-through (a wrapper pretending to be its inner
  object),
* a ``list[Any]`` member list,
* an ``isinstance(..., ...Searcher)`` dispatch on a searcher type.

Members do no I/O on the query path: the executor issues each wave once for
all of them.  Under ``search/`` and in ``ingest/memtable.py`` this script
fails on:

* a ``pipeline.fetch(``, ``pipeline.fetch_ranges(`` or ``read_batch(`` anywhere but
  ``search/searcher.py`` — a member's ranking statistics ride the lookup
  wave too.

The read path has one clock seam — ``ObjectStore.read_batch(requests,
max_concurrency)``, every payload waited for — and one fetch pool per
store, which also runs a resilient store's hedge racers.  This script also
fails on:

* a ``read_batch`` defined with a ``required`` parameter, or called with a
  ``required=`` keyword, anywhere under ``src/repro``: a straggler defence
  belongs to the store (``ResilientStore``'s hedge), not to a caller that
  lets a wave give up on some of its reads,

* any ``isinstance(..., SimulatedCloudStore)`` outside ``storage/`` (the
  simulator is just another store; what a read cost is what ``read_batch``
  says it cost),
* a ``ThreadPoolExecutor(`` anywhere under ``src/repro`` but the two
  pools of ``POOL_SITES``: the fetch pool (``storage/parallel.py``) and the
  router's one pool (``cluster/router.py``), one each,
* a ``.batch.`` attribute read anywhere under ``src/repro``: what a wave
  cost is the ``requests``/``nbytes``/``wait_ms``/``download_ms`` of its
  ``FetchResult``, with no per-request record behind it,
* a ``_COUNTER_TABLE`` or a ``*_COUNTERS`` dict anywhere under
  ``src/repro`` but ``observability/stats.py``: a stats counter is declared
  once, on its dataclass field, which names its metric.

The on-store index layout has one owner — ``index/store_layout.py`` — and
one opener.  This script also fails on:

* a layout literal (a blob name such as ``header.json``, a member marker
  such as ``/delta-``, a WAL ``seg-``/``tomb-`` pattern) in a string literal
  of any other file under ``src/repro``.  Two homonyms that are not index
  layout are named in ``LAYOUT_HOMONYMS``: the bucket-root *listing*
  manifest of ``storage/listing.py`` and the ``/snapshots/`` URL route of
  ``service/http.py``;
* a ``decode_build_header(`` or ``decode_header(`` call outside ``index/``
  (the opener is the one caller that reads them off a store).

Opening an index is at most two dependent waves of "missing is an answer"
reads — never an ``exists`` before a ``get``.  This script also fails on:

* a ``.exists(`` call anywhere under ``search/`` or in ``ingest/wal.py``, in
  ``service/catalog.py`` outside the public ``contains()``, in the openers
  of ``index/store_layout.py`` (``open_headers``, ``open_index``) or in
  ``IngestCoordinator.live``.

Posting lists have one type — ``core/superpost.py``'s ``Superpost`` — and
the array code lives behind it.  This script also fails on:

* ``np.`` / ``numpy`` in ``search/searcher.py``, ``search/member.py``,
  ``search/boolean.py`` or ``ingest/memtable.py``,
* a ``sorted(`` of anything but a query tree's ``.terms()``, or a
  ``.sorted_postings()`` call, in ``search/searcher.py`` (candidates arrive
  in order; the executor never re-sorts them).

The build side reads documents in waves and analyses them in one place: the
Builder and compaction work from a build's statistics columns.  Under
``index/`` this script also fails on:

* a ``get_range(`` call (a dependent read per document),
* a ``.tokenize(`` or ``.distinct_terms(`` call anywhere but
  ``index/stats.py``.

The write path tokenizes an appended line once, into the memtable's
columns, which its queries, ranking statistics and flush all read.  Under
``ingest/`` this script also fails on:

* a ``.tokenize(`` or ``.distinct_terms(`` call anywhere but
  ``ingest/memtable.py``.

Every HTTP request the program makes rides a pooled keep-alive connection
(``storage/connections.py``).  This script also fails on:

* a ``urlopen(``, ``HTTPConnection(`` or ``HTTPSConnection(`` anywhere under
  ``src/repro`` but that module and ``cli.py`` (whose calls are one-shot).

The read path has one cache and one coalescing rule: the block cache of the
one ``ReadPipeline`` an opened index reads through, merging only overlapping
or exactly adjacent ranges.  This script also fails on:

* a ``ReadPipeline(`` construction anywhere but ``search/searcher.py``,
* a ``coalesce_gap``, ``max_gap`` or ``query_cache…`` identifier (in code or
  a string literal) anywhere under ``src/repro`` — the knobs of gap
  bridging and of the per-word postings cache, both deleted.

Each kind of stored blob has one format the engine reads; an index in an
older one is rebuilt from its corpus, not read by a decoder kept forever.
This script also fails on:

* a ``FORMAT_V1``, ``SUPPORTED_FORMAT_VERSIONS`` or ``_decode_legacy_…``
  identifier anywhere under ``src/repro`` but ``baselines/`` (whose postings
  codec is their own);
* a stats decoder named for a retired container (``decode_v1_stats``,
  ``_decode_v2_stats``) anywhere under ``src/repro``, and the retired v2
  stats magic ``AIRPSTA`` in a string literal anywhere but
  ``index/stats.py`` — which names it only to refuse it with the typed
  "rebuild" error.

Every build that opens has its statistics (the header is written last),
and compaction merges them: a build without current ones is refused, not
re-derived.  This script also fails on:

* a ``decode_run(`` call anywhere under ``src/repro`` but
  ``search/member.py`` and ``index/compaction.py`` — compaction never
  decodes superposts;
* a ``RankingUnsupportedError`` or ``ranking_unavailable`` (in code or a
  string literal) anywhere under ``src/repro``: a missing or retired stats
  blob is the one typed "rebuild" error, ``409 index_format``.

A base over a name lands where one module decides — a fresh name in
place, any other in the next generation, committed by a manifest swap —
and that module is the one that purges what a swap retired.  This script
also fails on:

* an ``AirphantBuilder(`` construction anywhere under ``src/repro`` but
  ``index/updates.py`` and ``baselines/airphant.py`` (the paper's engine
  as a baseline, which builds its own private index);
* a ``build_blobs(`` call anywhere under ``src/repro`` but
  ``index/store_layout.py`` (which defines the ownership rule) and
  ``index/updates.py``.

A logical index has one commit point, its update manifest, and one
module writes it.  This script also fails on:

* a ``.put(`` of a manifest blob (an argument naming ``manifest_blob`` or
  ``update_manifest_blob_name``) anywhere under ``src/repro`` but
  ``index/updates.py``;
* a use of ``ingest_manifest_blob`` — the legacy WAL manifest, written by
  no code — anywhere under ``src/repro`` but the fold-in of
  ``index/updates.py``: ``manifest_reads``, which reads it beside the
  manifest, and ``commit``, which deletes it once folded in.

Pending deletes are manifest state: a delete is one manifest PUT, and the
legacy per-delete records are read only to be folded in.  This script also
fails on:

* a ``.put(`` of a ``tombstone_blob(...)`` name or of a ``tomb-`` literal
  anywhere under ``src/repro``;
* a use of ``parse_tombstones`` anywhere under ``src/repro`` but the
  fold-in, ``IndexManifest.folded`` in ``index/updates.py``.

A process holds one copy of a name's manifest: its one
``AppendOnlyIndexManager``, which the catalog owns and opens from.  This
script also fails on:

* an ``AppendOnlyIndexManager(`` construction under ``service/`` or
  ``ingest/`` anywhere but ``IndexCatalog.manager`` in
  ``service/catalog.py``.

The query tier routes whole queries and knows nothing of how an index is
laid out or searched.  This script also fails on:

* an import of ``repro.index`` or ``repro.search`` (or anything under
  them) in a module under ``cluster/``.

Comments and docstrings are ignored.  Exit code 1 lists every finding.

Usage: ``python scripts/check_seams.py``
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages in which the duck-typing patterns are forbidden outright.
SEAM_PACKAGES = ("search", "ingest", "service")
#: Packages allowed to know the simulator's type.
SIMULATOR_PACKAGES = ("storage",)
MAX_SIMULATOR_CHECKS = 0
#: The only files that may build a thread pool -> how many sites each may have.
POOL_SITES = {
    ("storage", "parallel.py"): 1,
    ("cluster", "router.py"): 1,
}

_FORBIDDEN = {
    "__getattr__ pass-through": re.compile(r"def\s+__getattr__\b"),
    "list[Any] member list": re.compile(r"\blist\[Any\]"),
    "isinstance on a searcher type": re.compile(r"isinstance\([^)]*Searcher\b"),
}
#: Where members live, and the only files there that may issue a read
#: (call pattern -> the files allowed to make it).
MEMBER_FILES = (("search",), ("ingest", "memtable.py"))
_WAVE_CALLS = {
    re.compile(r"\bpipeline\.fetch(?:_ranges)?\("): {("search", "searcher.py")},
    re.compile(r"\bread_batch\("): {("search", "searcher.py")},
}
#: The one file that may spell the on-store layout.
LAYOUT_FILE = ("index", "store_layout.py")
LAYOUT_LITERALS = (
    "header.json",
    "superposts.bin",
    "stats.json",
    "shards.json",
    "manifest.json",
    "ingest.json",
    "/shard-",
    "/delta-",
    "/gen-",
    "/snapshots/",
    "seg-",
    "tomb-",
)
#: Same spelling, different thing: (file, literal) pairs that are not index layout.
LAYOUT_HOMONYMS = {
    (("storage", "listing.py"), "manifest.json"),
    (("service", "http.py"), "/snapshots/"),
}
#: Header decoders only ``index/`` may call.
_STORE_DECODERS = re.compile(r"\b(?:decode_build_header|decode_header)\(")
_STRING_PARTS = (tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING))
_STATEMENT_BREAKS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
_INSIGNIFICANT = (tokenize.NL, tokenize.COMMENT)

#: The open path: file (or package) -> the functions it runs through there
#: (``None``: all of them), and the functions that may probe all the same.
OPEN_PATH: dict[tuple[str, ...], frozenset[str] | None] = {
    ("search",): None,
    ("ingest", "wal.py"): None,
    ("service", "catalog.py"): None,
    ("index", "store_layout.py"): frozenset({"open_headers", "open_index"}),
    ("ingest", "live.py"): frozenset({"live"}),
}
PROBES_ALLOWED = {(("service", "catalog.py"), "contains")}
_EXISTS_CALL = re.compile(r"\.exists\(")

#: The query-path files that handle posting lists only through ``Superpost``.
POSTING_LIST_FILES = {
    ("search", "searcher.py"),
    ("search", "member.py"),
    ("search", "boolean.py"),
    ("ingest", "memtable.py"),
}
_ARRAY_CODE = re.compile(r"\bnp\.|\bnumpy\b")
_RESORT = re.compile(r"\bsorted\((?!\w+\.terms\(\)\))|\.sorted_postings\(")

#: The build side's package.
BUILD_PACKAGE = "index"
#: The packages that analyse text -> the one file in each that does.
ANALYSIS_FILES = {"index": ("index", "stats.py"), "ingest": ("ingest", "memtable.py")}
_RANGE_READ = re.compile(r"\bget_range\(")
_ANALYSIS = re.compile(r"\.(?:tokenize|distinct_terms)\(")

#: The only files that may open an HTTP connection themselves.
HTTP_CLIENT_FILES = {("storage", "connections.py"), ("cli.py",)}
_HTTP_CONNECTION = re.compile(r"\b(?:urlopen|HTTPS?Connection)\(")

#: The one file that builds a read pipeline (one per opened index).
PIPELINE_OWNER = ("search", "searcher.py")
_PIPELINE_CONSTRUCTION = re.compile(r"\bReadPipeline\(")
#: Knobs of deleted mechanisms: gap bridging, the per-word cache, a settable
#: top-K δ, a separate delta configuration, the size-ratio compaction
#: trigger and round-robin sharding.
_RETIRED_KNOBS = re.compile(
    r"\b\w*(?:coalesce_gap|max_gap|query_cache\w*|top_k_delta|delta_config|compact_ratio)\b"
    r"|\bround[-_]robin\b"
)
#: Readers of retired on-store formats, and the package they may live in.
_RETIRED_FORMATS = re.compile(r"\b(?:FORMAT_V1|SUPPORTED_FORMAT_VERSIONS|_decode_legacy_\w*)\b")
RETIRED_FORMATS_ALLOWED = "baselines"
#: Decoders of the retired stats containers, and the v2 magic with its one owner.
_RETIRED_STATS_DECODER = re.compile(r"\b_?decode_v[12]_stats\b")
RETIRED_STATS_MAGIC = "AIRPSTA"
STATS_FORMAT_FILE = ("index", "stats.py")

#: The only files that may decode a superpost run.
RUN_DECODER_FILES = {("search", "member.py"), ("index", "compaction.py")}
_RUN_DECODE = re.compile(r"\bdecode_run\(")
#: The retired "membership-only" build's error and its code.
_UNRANKED_BUILD = re.compile(r"\b(?:RankingUnsupportedError|ranking_unavailable)\b")

#: The files that may construct the Builder, and call the ownership rule.
BUILDER_SITES = {("index", "updates.py"), ("baselines", "airphant.py")}
_BUILDER_CONSTRUCTION = re.compile(r"\bAirphantBuilder\(")
BUILD_BLOBS_SITES = {("index", "store_layout.py"), ("index", "updates.py")}
_BUILD_BLOBS_CALL = re.compile(r"\bbuild_blobs\(")

#: The one file that PUTs an update manifest, and what names a manifest blob.
MANIFEST_WRITER = ("index", "updates.py")
_MANIFEST_BLOB_NAMES = {"manifest_blob", "update_manifest_blob_name"}
#: The legacy WAL manifest's namer, and the fold-in: (file, function) pairs
#: that may use it.
LEGACY_WAL_MANIFEST = "ingest_manifest_blob"
FOLD_IN = {(MANIFEST_WRITER, "manifest_reads"), (MANIFEST_WRITER, "commit")}
# Pending deletes live in the manifest: no delete record is written, and the
# legacy ones are decoded only where they are folded in.
_DELETE_RECORD_NAMER = "tombstone_blob"
_DELETE_RECORD_LITERAL = "tomb-"
LEGACY_RECORD_READER = "parse_tombstones"
RECORD_FOLD_IN = {(MANIFEST_WRITER, "folded")}

#: The packages that commit through a name's manager, and its one maker.
MANAGER_PACKAGES = ("service", "ingest")
MANAGER_OWNER = (("service", "catalog.py"), "manager")
_MANAGER_CONSTRUCTION = re.compile(r"\bAppendOnlyIndexManager\(")

#: The query tier's package, and the packages it may not import from.
CLUSTER_PACKAGE = "cluster"
CLUSTER_FORBIDDEN_IMPORTS = ("repro.index", "repro.search")

_SIMULATOR_CHECK = re.compile(r"isinstance\([^)]*\bSimulatedCloudStore\b")
_BATCH_RECORD = re.compile(r"\.batch\.")
#: The one module that may hold a table of metric counters.
STATS_FILE = ("observability", "stats.py")
_COUNTER_TABLE = re.compile(r"\b_COUNTER_TABLE\b|\b\w*_COUNTERS\b[^=]*=\s*(?:\{|dict\()")
_POOL_CONSTRUCTION = re.compile(r"\bThreadPoolExecutor\(")


def code_lines(path: Path) -> list[tuple[int, str]]:
    """``(line number, text)`` of ``path`` with comments and strings blanked."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.STRING):
            continue
        (first, start), (last, end) = token.start, token.end
        for row in range(first, last + 1):
            text = lines[row - 1]
            left = start if row == first else 0
            right = end if row == last else len(text)
            lines[row - 1] = text[:left] + " " * (right - left) + text[right:]
    return list(enumerate(lines, start=1))


def string_literals(path: Path) -> list[tuple[int, str]]:
    """``(line number, source text)`` of every string literal except docstrings.

    A docstring is a string that is a whole statement: it starts one and the
    line ends right after it.
    """
    source = path.read_text(encoding="utf-8")
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _INSIGNIFICANT
    ]
    literals: list[tuple[int, str]] = []
    for index, token in enumerate(tokens):
        if token.type not in _STRING_PARTS:
            continue
        starts_statement = index == 0 or tokens[index - 1].type in _STATEMENT_BREAKS
        ends_statement = tokens[index + 1].type == tokenize.NEWLINE
        if not (starts_statement and ends_statement):
            literals.append((token.start[0], token.string))
    return literals


def enclosing_functions(path: Path) -> dict[int, str]:
    """Line number -> name of the innermost function the line belongs to."""
    functions = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    owner: dict[int, str] = {}
    for node in sorted(functions, key=lambda node: node.lineno):  # inner ones overwrite
        owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return owner


def partial_waves(path: Path) -> list[int]:
    """Lines of ``path`` that define ``read_batch`` with a ``required``
    parameter or call it with a ``required=`` keyword."""
    lines: list[int] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            names = (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
            if node.name == "read_batch" and any(arg.arg == "required" for arg in names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            # ``store.read_batch(...)`` names it as an attribute, ``read_batch(...)`` bare.
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "read_batch" and any(kw.arg == "required" for kw in node.keywords):
                lines.append(node.lineno)
    return lines


def commit_sites(path: Path) -> tuple[list[int], list[tuple[int, str]]]:
    """Lines of ``path`` that PUT a manifest blob, and ``(line, function)``
    of every use of the legacy WAL manifest's namer (imports aside)."""
    functions = enclosing_functions(path)
    puts: list[int] = []
    legacy: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "put" and node.args:
            blob = {getattr(part, "id", getattr(part, "attr", None)) for part in ast.walk(node.args[0])}
            if blob & _MANIFEST_BLOB_NAMES:
                puts.append(node.lineno)
        if isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == LEGACY_WAL_MANIFEST:
                legacy.append((node.lineno, functions.get(node.lineno, "")))
    return puts, legacy


def delete_record_sites(path: Path) -> tuple[list[int], list[tuple[int, str]]]:
    """Lines of ``path`` that PUT a delete record (a ``tombstone_blob(...)``
    name or a ``tomb-`` literal), and ``(line, function)`` of every use of
    the legacy record reader (its definition and imports aside)."""
    functions = enclosing_functions(path)
    puts: list[int] = []
    reads: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "put" and node.args:
            for part in ast.walk(node.args[0]):
                name = getattr(part, "id", getattr(part, "attr", None))
                literal = getattr(part, "value", None)
                if name == _DELETE_RECORD_NAMER or (
                    isinstance(literal, str) and _DELETE_RECORD_LITERAL in literal
                ):
                    puts.append(node.lineno)
                    break
        if isinstance(node, (ast.Name, ast.Attribute)):
            if getattr(node, "id", getattr(node, "attr", None)) == LEGACY_RECORD_READER:
                reads.append((node.lineno, functions.get(node.lineno, "")))
    return puts, reads


def forbidden_imports(path: Path, packages: tuple[str, ...]) -> list[int]:
    """Lines of ``path`` importing from any of ``packages`` or below them."""
    lines: list[int] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import search`` names the package as an alias.
            modules = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(
            module == package or module.startswith(package + ".")
            for module in modules
            for package in packages
        ):
            lines.append(node.lineno)
    return lines


def findings(root: Path = SOURCE_ROOT) -> list[str]:
    """Every violation under ``root``, as ``path:line: what`` strings."""
    problems: list[str] = []
    simulator_checks: list[str] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        package = parts[0]
        if parts != LAYOUT_FILE:
            problems.extend(
                f"{path.relative_to(root.parent.parent)}:{number}: "
                f"layout literal {literal!r} outside {'/'.join(LAYOUT_FILE)}"
                for number, text in string_literals(path)
                for literal in LAYOUT_LITERALS
                if literal in text and (parts, literal) not in LAYOUT_HOMONYMS
            )
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: retired knob"
            for number, text in string_literals(path)
            if _RETIRED_KNOBS.search(text)
        )
        if parts != STATS_FORMAT_FILE:
            problems.extend(
                f"{path.relative_to(root.parent.parent)}:{number}: "
                "retired v2 stats magic outside index/stats.py"
                for number, text in string_literals(path)
                if RETIRED_STATS_MAGIC in text
            )
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: "
            "a build without statistics answered as a second kind of index"
            for number, text in string_literals(path)
            if _UNRANKED_BUILD.search(text)
        )
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: "
            "read_batch with a required count (every payload is waited for)"
            for number in partial_waves(path)
        )
        puts, legacy = commit_sites(path)
        if parts != MANIFEST_WRITER:
            problems.extend(
                f"{path.relative_to(root.parent.parent)}:{number}: "
                f"a manifest PUT outside {'/'.join(MANIFEST_WRITER)}"
                for number in puts
            )
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: "
            "the legacy WAL manifest named outside the fold-in"
            for number, function in legacy
            if (parts, function) not in FOLD_IN
        )
        record_puts, record_reads = delete_record_sites(path)
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: a delete record written"
            for number in record_puts
        )
        problems.extend(
            f"{path.relative_to(root.parent.parent)}:{number}: "
            "a legacy delete record read outside the fold-in"
            for number, function in record_reads
            if (parts, function) not in RECORD_FOLD_IN
        )
        if package == CLUSTER_PACKAGE:
            problems.extend(
                f"{path.relative_to(root.parent.parent)}:{number}: "
                "the query tier imports from repro.index or repro.search"
                for number in forbidden_imports(path, CLUSTER_FORBIDDEN_IMPORTS)
            )
        open_path = next(
            (prefix for prefix in OPEN_PATH if parts[: len(prefix)] == prefix), None
        )
        functions = enclosing_functions(path) if open_path is not None else {}
        pools = 0
        for number, text in code_lines(path):
            where = f"{path.relative_to(root.parent.parent)}:{number}"
            if open_path is not None and _EXISTS_CALL.search(text):
                function = functions.get(number, "")
                checked = OPEN_PATH[open_path]
                if (checked is None or function in checked) and (
                    (parts, function) not in PROBES_ALLOWED
                ):
                    problems.append(f"{where}: exists() probe on the open path")
            if package in SEAM_PACKAGES:
                problems.extend(
                    f"{where}: {what}"
                    for what, pattern in _FORBIDDEN.items()
                    if pattern.search(text)
                )
            if any(parts[: len(prefix)] == prefix for prefix in MEMBER_FILES):
                problems.extend(
                    f"{where}: a read wave issued outside the executor"
                    for pattern, allowed in _WAVE_CALLS.items()
                    if pattern.search(text) and parts not in allowed
                )
            if parts in POSTING_LIST_FILES and _ARRAY_CODE.search(text):
                problems.append(f"{where}: array code outside the posting-list type")
            if parts == ("search", "searcher.py") and _RESORT.search(text):
                problems.append(f"{where}: the executor re-sorts candidates")
            if package != LAYOUT_FILE[0] and _STORE_DECODERS.search(text):
                problems.append(f"{where}: header decoder called outside index/")
            if package == BUILD_PACKAGE and _RANGE_READ.search(text):
                problems.append(f"{where}: a dependent get_range on the build side")
            analyser = ANALYSIS_FILES.get(package, parts)
            if parts != analyser and _ANALYSIS.search(text):
                problems.append(f"{where}: documents analysed outside {'/'.join(analyser)}")
            if parts not in HTTP_CLIENT_FILES and _HTTP_CONNECTION.search(text):
                problems.append(f"{where}: HTTP connection outside the pooled client")
            if parts != PIPELINE_OWNER and _PIPELINE_CONSTRUCTION.search(text):
                problems.append(
                    f"{where}: read pipeline built outside {'/'.join(PIPELINE_OWNER)}"
                )
            if _RETIRED_KNOBS.search(text):
                problems.append(f"{where}: retired knob")
            if package != RETIRED_FORMATS_ALLOWED and _RETIRED_FORMATS.search(text):
                problems.append(f"{where}: reader of a retired on-store format")
            if _RETIRED_STATS_DECODER.search(text):
                problems.append(f"{where}: decoder of a retired stats container")
            if parts not in RUN_DECODER_FILES and _RUN_DECODE.search(text):
                problems.append(f"{where}: a superpost run decoded outside its reader")
            if _UNRANKED_BUILD.search(text):
                problems.append(
                    f"{where}: a build without statistics answered as a second kind of index"
                )
            if parts not in BUILDER_SITES and _BUILDER_CONSTRUCTION.search(text):
                problems.append(f"{where}: a Builder constructed outside the index manager")
            if package in MANAGER_PACKAGES and _MANAGER_CONSTRUCTION.search(text):
                if (parts, enclosing_functions(path).get(number)) != MANAGER_OWNER:
                    problems.append(f"{where}: an index manager made outside IndexCatalog.manager")
            if parts not in BUILD_BLOBS_SITES and _BUILD_BLOBS_CALL.search(text):
                problems.append(f"{where}: a build's blobs listed outside the index manager")
            if _BATCH_RECORD.search(text):
                problems.append(f"{where}: a per-request batch record read")
            if parts != STATS_FILE and _COUNTER_TABLE.search(text):
                problems.append(
                    f"{where}: a metric-counter table outside {'/'.join(STATS_FILE)}"
                )
            if package not in SIMULATOR_PACKAGES and _SIMULATOR_CHECK.search(text):
                simulator_checks.append(where)
            if _POOL_CONSTRUCTION.search(text):
                pools += 1
                if pools > POOL_SITES.get(parts, 0):
                    problems.append(f"{where}: a thread pool beyond the allowed sites")
    if len(simulator_checks) > MAX_SIMULATOR_CHECKS:
        problems.append(
            f"{len(simulator_checks)} isinstance(..., SimulatedCloudStore) checks outside "
            f"{'/'.join(SIMULATOR_PACKAGES)} (at most {MAX_SIMULATOR_CHECKS}): "
            + ", ".join(simulator_checks)
        )
    return problems


def main() -> int:
    problems = findings()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} seam violation(s)", file=sys.stderr)
        return 1
    print("query-path seams are clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
