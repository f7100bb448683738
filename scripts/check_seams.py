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

* a ``pipeline.fetch(`` or ``read_batch(`` anywhere but
  ``search/searcher.py`` (the hedged wave) — a member's ranking statistics
  ride the lookup wave too.

The read path has one clock seam — ``ObjectStore.read_batch`` — and one
fetch pool per store.  This script also fails on:

* any ``isinstance(..., SimulatedCloudStore)`` outside ``storage/`` (the
  simulator is just another store; what a read cost is what ``read_batch``
  says it cost),
* a ``ThreadPoolExecutor(`` under ``storage/`` anywhere but the one pool
  helper (``parallel.py``) and ``resilient.py``'s hedge pool.

The on-store index layout has one owner — ``index/store_layout.py`` — and
one opener.  This script also fails on:

* a layout literal (a blob name such as ``header.json``, a member marker
  such as ``/delta-``, a WAL ``seg-``/``tomb-`` pattern) in a string literal
  of any other file under ``src/repro``.  Two homonyms that are not index
  layout are named in ``LAYOUT_HOMONYMS``: the bucket-root *listing*
  manifest of ``storage/listing.py`` and the ``/snapshots/`` URL route of
  ``service/http.py``;
* a ``decode_header(`` or ``ShardManifest.from_json(`` call outside
  ``index/`` (the opener is the one caller that reads them off a store).

Opening an index is at most two dependent waves of "missing is an answer"
reads — never an ``exists`` before a ``get``.  This script also fails on:

* a ``.exists(`` call anywhere under ``search/`` or in ``ingest/wal.py``, in
  ``service/catalog.py`` outside the public ``contains()``, in the openers
  of ``index/store_layout.py`` (``open_headers``, ``open_index``,
  ``read_shard_manifest``) or in ``IngestCoordinator.live``.

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

Every HTTP request the program makes rides a pooled keep-alive connection
(``storage/connections.py``).  This script also fails on:

* a ``urlopen(``, ``HTTPConnection(`` or ``HTTPSConnection(`` anywhere under
  ``src/repro`` but that module and ``cli.py`` (whose calls are one-shot).

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
#: The only files under ``storage/`` that may build a thread pool.
POOL_FILES = ("parallel.py", "resilient.py")

_FORBIDDEN = {
    "__getattr__ pass-through": re.compile(r"def\s+__getattr__\b"),
    "list[Any] member list": re.compile(r"\blist\[Any\]"),
    "isinstance on a searcher type": re.compile(r"isinstance\([^)]*Searcher\b"),
}
#: Where members live, and the only files there that may issue a read
#: (call pattern -> the files allowed to make it).
MEMBER_FILES = (("search",), ("ingest", "memtable.py"))
_WAVE_CALLS = {
    re.compile(r"\bpipeline\.fetch\("): {("search", "searcher.py")},
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
#: Header/manifest decoders only ``index/`` may call.
_STORE_DECODERS = re.compile(r"\b(?:decode_header|ShardManifest\.from_json)\(")
_STRING_PARTS = (tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING))
_STATEMENT_BREAKS = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING)
_INSIGNIFICANT = (tokenize.NL, tokenize.COMMENT)

#: The open path: file (or package) -> the functions it runs through there
#: (``None``: all of them), and the functions that may probe all the same.
OPEN_PATH: dict[tuple[str, ...], frozenset[str] | None] = {
    ("search",): None,
    ("ingest", "wal.py"): None,
    ("service", "catalog.py"): None,
    ("index", "store_layout.py"): frozenset({"open_headers", "open_index", "read_shard_manifest"}),
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

#: The build side's package, and the one file in it that analyses text.
BUILD_PACKAGE = "index"
ANALYSIS_FILE = ("index", "stats.py")
_RANGE_READ = re.compile(r"\bget_range\(")
_ANALYSIS = re.compile(r"\.(?:tokenize|distinct_terms)\(")

#: The only files that may open an HTTP connection themselves.
HTTP_CLIENT_FILES = {("storage", "connections.py"), ("cli.py",)}
_HTTP_CONNECTION = re.compile(r"\b(?:urlopen|HTTPS?Connection)\(")

_SIMULATOR_CHECK = re.compile(r"isinstance\([^)]*\bSimulatedCloudStore\b")
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
        open_path = next(
            (prefix for prefix in OPEN_PATH if parts[: len(prefix)] == prefix), None
        )
        functions = enclosing_functions(path) if open_path is not None else {}
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
                problems.append(f"{where}: header/manifest decoder called outside index/")
            if package == BUILD_PACKAGE and _RANGE_READ.search(text):
                problems.append(f"{where}: a dependent get_range on the build side")
            if package == BUILD_PACKAGE and parts != ANALYSIS_FILE and _ANALYSIS.search(text):
                problems.append(f"{where}: documents analysed outside index/stats.py")
            if parts not in HTTP_CLIENT_FILES and _HTTP_CONNECTION.search(text):
                problems.append(f"{where}: HTTP connection outside the pooled client")
            if package not in SIMULATOR_PACKAGES and _SIMULATOR_CHECK.search(text):
                simulator_checks.append(where)
            if (
                package == "storage"
                and path.name not in POOL_FILES
                and _POOL_CONSTRUCTION.search(text)
            ):
                problems.append(f"{where}: thread pool outside the storage pool helper")
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
