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

The read path has one clock seam — ``ObjectStore.read_batch`` — and one
fetch pool per store.  This script also fails on:

* any ``isinstance(..., SimulatedCloudStore)`` outside ``storage/`` (the
  simulator is just another store; what a read cost is what ``read_batch``
  says it cost),
* a ``ThreadPoolExecutor(`` under ``storage/`` anywhere but the one pool
  helper (``parallel.py``) and ``resilient.py``'s hedge pool.

Comments and docstrings are ignored.  Exit code 1 lists every finding.

Usage: ``python scripts/check_seams.py``
"""

from __future__ import annotations

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


def findings(root: Path = SOURCE_ROOT) -> list[str]:
    """Every violation under ``root``, as ``path:line: what`` strings."""
    problems: list[str] = []
    simulator_checks: list[str] = []
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parts[0]
        for number, text in code_lines(path):
            where = f"{path.relative_to(root.parent.parent)}:{number}"
            if package in SEAM_PACKAGES:
                problems.extend(
                    f"{where}: {what}"
                    for what, pattern in _FORBIDDEN.items()
                    if pattern.search(text)
                )
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
