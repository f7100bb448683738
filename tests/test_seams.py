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
