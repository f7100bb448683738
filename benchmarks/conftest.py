"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on
scaled-down corpora (the scale factors are recorded in EXPERIMENTS.md).  The
rendered rows/series are written to ``<results dir>/<experiment>.txt`` so
they can be inspected after a run; only a run that sets
``AIRPHANT_RUN_FIGURES=1`` writes them into the tracked ``results/`` (see
:func:`results_dir`), so the tier-1 suite leaves the working tree clean.
"""

from __future__ import annotations

import getpass
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.core.config import SketchConfig
from repro.profiling.profiler import CorpusProfile, profile_documents
from repro.storage.latency import AffineLatencyModel
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.cranfield import generate_cranfield
from repro.workloads.logs import generate_log_corpus
from repro.workloads.synthetic import (
    GeneratedCorpus,
    SyntheticSpec,
    generate_diag,
    generate_unif,
    generate_zipf,
)

#: The tracked records, regenerated only on request (``AIRPHANT_RUN_FIGURES=1``).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Scaled-down corpus sizes (documents) used across the benchmark suite.
CORPUS_SIZES = {
    "diag": 10_000,
    "unif": 10_000,
    "zipf": 10_000,
    "cranfield": 1_398,
    "hdfs": 15_000,
    "windows": 15_000,
    "spark": 15_000,
}

#: Default sketch configuration for the benchmark corpora (the paper's
#: B = 1e5 / F0 = 1 scaled to the smaller corpora).
DEFAULT_BENCH_CONFIG = SketchConfig(num_bins=2048, target_false_positives=1.0, seed=7)


def results_dir() -> Path:
    """Where this run's rendered tables and records go (created on demand).

    The tracked ``results/`` when ``AIRPHANT_RUN_FIGURES`` is set; otherwise
    ``airphant-results/`` under pytest's temp root
    (``$TMPDIR/pytest-of-<user>/``), which no commit ever sees.
    """
    if os.environ.get("AIRPHANT_RUN_FIGURES", "") not in ("", "0"):
        directory = RESULTS_DIR
    else:
        directory = (
            Path(tempfile.gettempdir()) / f"pytest-of-{getpass.getuser()}" / "airphant-results"
        )
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def save_result(name: str, text: str) -> None:
    """Persist the rendered output of one experiment in :func:`results_dir`."""
    (results_dir() / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def save_json(name: str, payload: object) -> None:
    """Persist a machine-readable experiment record in :func:`results_dir`."""
    (results_dir() / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def smoke_mode() -> bool:
    """Whether the suite runs in CI smoke mode (tiny corpora, fast)."""
    return os.environ.get("AIRPHANT_BENCH_SMOKE", "") not in ("", "0")


def new_store(seed: int = 1, jitter: float = 0.1) -> SimulatedCloudStore:
    """A fresh simulated cloud store with the benchmark latency model."""
    return SimulatedCloudStore(latency_model=AffineLatencyModel(seed=seed, jitter_sigma=jitter))


def generate_corpus(store: SimulatedCloudStore, name: str) -> GeneratedCorpus:
    """Generate one of the paper's seven corpora (scaled) onto ``store``."""
    size = CORPUS_SIZES[name]
    if name == "diag":
        return generate_diag(store, num_documents=size, name="diag")
    if name == "unif":
        spec = SyntheticSpec(num_documents=size, num_words=size, words_per_document=10)
        return generate_unif(store, spec, name="unif", seed=11)
    if name == "zipf":
        spec = SyntheticSpec(num_documents=size, num_words=size // 2, words_per_document=10)
        return generate_zipf(store, spec, name="zipf", seed=11)
    if name == "cranfield":
        return generate_cranfield(store, num_documents=size, name="cranfield", seed=11)
    return generate_log_corpus(store, name, num_documents=size, name=name, seed=11)


class CorpusCatalog:
    """Lazily generates and caches corpora plus their profiles for a session."""

    def __init__(self) -> None:
        self.store = new_store(seed=1)
        self._corpora: dict[str, GeneratedCorpus] = {}
        self._profiles: dict[str, CorpusProfile] = {}

    def corpus(self, name: str) -> GeneratedCorpus:
        if name not in self._corpora:
            self._corpora[name] = generate_corpus(self.store, name)
        return self._corpora[name]

    def profile(self, name: str) -> CorpusProfile:
        if name not in self._profiles:
            self._profiles[name] = profile_documents(self.corpus(name).documents)
        return self._profiles[name]


@pytest.fixture(scope="session")
def catalog() -> CorpusCatalog:
    """Session-wide corpus catalog shared by all benchmarks."""
    return CorpusCatalog()


@pytest.fixture(scope="session")
def bench_config() -> SketchConfig:
    """Default sketch configuration used by the engine-comparison benchmarks."""
    return DEFAULT_BENCH_CONFIG
