"""A build has one commit point: a fresh name's header, an existing name's swap.

A fresh ``build_index`` writes ``superposts.bin``, then ``stats.json``, then
``header.json``, so killing it before any one of its PUTs
(:class:`harness.crashpoints.FaultPointStore`) leaves either no index at all
— the name answers ``404 index_not_found`` — or the new one.  A build over a
name that already exists goes to the next generation and commits with the
manifest PUT, so killing it before any PUT or DELETE leaves a name that
answers keyword and ranked queries exactly as the old corpus or the new one
does: never a header pointing into another build's blobs.
"""

from __future__ import annotations

import pytest
from harness.crashpoints import FaultPointStore, SimulatedCrash

from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\nerror net down\n"
#: What the killed build indexes: words of both corpora, other rankings.
NEXT = b"error cache miss\nerror disk gone\ninfo batch done\nerror disk slow again\n"
SERVICE = ServiceConfig(ingest_interval_s=0)
QUERIES = (
    SearchRequest(query="error", index="idx"),
    SearchRequest(query="error disk", index="idx", mode="topk_bm25", top_k=2),
)


def _backend(history: str, shards: int) -> InMemoryObjectStore:
    """The corpora, and what ``history`` says ``idx`` went through before:
    nothing, a build over the first corpus (no manifest), or that build
    appended to, flushed and compacted (a manifest with retired builds).
    No unflushed appends either way."""
    backend = InMemoryObjectStore()
    backend.put("corpus/base.txt", CORPUS)
    backend.put("corpus/next.txt", NEXT)
    if history != "fresh":
        with AirphantService(backend, SERVICE) as service:
            service.build_index("idx", ["corpus/base.txt"], num_shards=shards)
            if history == "compacted":
                service.append_documents("idx", ["error disk appended"])
                assert service.compact_index("idx")["compacted"]
    return backend


def _answers(backend: InMemoryObjectStore) -> object:
    """What a fresh node answers on ``idx``: ``None`` when it is not there."""
    with AirphantService(backend, SERVICE) as service:
        try:
            responses = [service.search(query) for query in QUERIES]
        except ServiceError as error:
            assert (error.info.status, error.info.error) == (404, "index_not_found")
            return None
    return [[(hit.text, hit.score) for hit in response.documents] for response in responses]


def _build(store, shards: int) -> None:
    with AirphantService(store, SERVICE) as service:
        service.build_index("idx", ["corpus/next.txt"], num_shards=shards)


@pytest.mark.parametrize("history", ["fresh", "built", "compacted"])
@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
def test_a_build_killed_before_any_mutation_answers_the_old_or_the_new_corpus(
    shards, history
):
    old = _answers(_backend(history, shards))
    assert (old is None) == (history == "fresh")
    finished = FaultPointStore(_backend(history, shards))
    _build(finished, shards)
    new = _answers(finished.backend)
    assert new is not None and new != old
    mutations = finished.mutation_log
    for at, (op, blob) in enumerate(mutations):
        backend = _backend(history, shards)
        store = FaultPointStore(backend)
        earlier = sum(1 for seen, name in mutations[:at] if seen == op and blob in name)
        point = store.arm(op, blob, when="before", skip=earlier)
        with pytest.raises(SimulatedCrash):
            _build(store, shards)
        assert point.fired
        # "Restart": a fresh node over what reached the backend.
        assert _answers(backend) in (old, new), (op, blob)
    puts = [blob for op, blob in mutations if op == "put"]
    deletes = [at for at, (op, _) in enumerate(mutations) if op == "delete"]
    if history == "fresh":
        assert puts == ["idx/superposts.bin", "idx/stats.json", "idx/header.json"]
        assert not deletes
    else:
        # The next generation's build, then the swap.  What the previous
        # swap stranded — the compaction's in-place base and delta — is
        # deleted only after it; a build's first swap strands the in-place
        # base and deletes nothing of the index.
        base = "idx/gen-00000002" if history == "compacted" else "idx/gen-00000001"
        assert puts == [
            f"{base}/superposts.bin", f"{base}/stats.json", f"{base}/header.json",
            "idx/manifest.json",
        ]
        swap = mutations.index(("put", "idx/manifest.json"))
        assert all(at > swap for at in deletes)
        assert (("delete", "idx/header.json") in mutations) == (history == "compacted")
