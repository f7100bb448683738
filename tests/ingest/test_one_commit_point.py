"""One commit point per index: every write commits with one manifest PUT.

A logical index's builds and its WAL's state live in one blob,
``{index}/manifest.json``.  A flush, a compaction, a rebuild and a restore
each commit with one PUT of it, and a swap's purge deletes whatever under
the index no manifest, retired list or snapshot names.  Each test below
kills an operation at every store mutation it makes (a dry run lists them),
"restarts" with a fresh service over the same bytes, and checks what the
fresh node answers:

* a flush killed anywhere flushes into exactly one delta;
* a restore or a rebuild killed anywhere answers exactly the old timeline
  or exactly the new one, never a mix;
* a swap killed before any of its deletes leaves, two swaps later, exactly
  the blobs a run without the crash leaves;
* a node that opened the index before another node rebuilt it answers its
  old timeline — appended documents included — for the swap of grace;
* a node that writes after another node rebuilt or flushed the index keeps
  that node's builds: each commit reads the manifest again first.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable

from harness.crashpoints import FaultPointStore, SimulatedCrash
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.updates import AppendOnlyIndexManager
from repro.observability import MetricsRegistry
from repro.parsing.documents import Posting
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.memory import InMemoryObjectStore

BASE = b"error one\ninfo two\nwarn three\n"
OTHER = b"error other\ninfo elsewhere\n"
SKETCH = SketchConfig(num_bins=64, seed=3)
#: The first base document.
ERROR_ONE = Posting("corpus/base.txt", 0, 9)


def _service(store) -> AirphantService:
    """A node with no background worker: every write is the test's."""
    return AirphantService(store, ServiceConfig(ingest_interval_s=0), metrics=MetricsRegistry())


def _build(service: AirphantService, corpus: str = "corpus/base.txt") -> None:
    service.build_index("idx", [corpus], sketch_config=SKETCH)


def _store() -> FaultPointStore:
    store = FaultPointStore(InMemoryObjectStore())
    store.put("corpus/base.txt", BASE)
    store.put("corpus/other.txt", OTHER)
    return store


def _texts(service: AirphantService, query: str = "error") -> set[str]:
    return {hit.text for hit in service.search(SearchRequest(index="idx", query=query)).documents}


def _fresh_texts(store, query: str = "error") -> set[str]:
    """What a node that opens the index now answers."""
    with _service(store) as fresh:
        return _texts(fresh, query)


def _kill_points(
    setup: Callable[[FaultPointStore], AirphantService],
    operation: Callable[[AirphantService], object],
    ops: tuple[str, ...] = ("put", "delete"),
) -> list[tuple[str, str, int]]:
    """``(op, blob, skip)`` for every mutation ``operation`` makes after
    ``setup``, in order: arming ``op`` on ``blob`` with ``skip`` kills it."""
    store = _store()
    service = setup(store)
    start = len(store.mutation_log)
    operation(service)
    service.close()
    made = store.mutation_log[start:]
    points = []
    for position, (op, blob) in enumerate(made):
        if op in ops:
            skip = sum(1 for earlier, name in made[:position] if earlier == op and blob in name)
            points.append((op, blob, skip))
    assert points
    return points


def _killed(
    setup: Callable[[FaultPointStore], AirphantService],
    operation: Callable[[AirphantService], object],
    point: tuple[str, str, int],
    when: str,
) -> FaultPointStore:
    """A fresh ``setup`` whose ``operation`` dies at ``point``."""
    store = _store()
    service = setup(store)
    op, blob, skip = point
    armed = store.arm(op, blob, when=when, skip=skip)
    try:
        operation(service)
    except SimulatedCrash:
        pass
    assert armed.fired, point
    store.disarm()
    return store


def test_a_flush_killed_at_any_mutation_flushes_into_one_delta():
    def setup(store):
        service = _service(store)
        _build(service)
        service.append_documents("idx", ["error fresh one"])
        return service

    def flush(service):
        service.flush_index("idx")

    for point in _kill_points(setup, flush):
        for when in ("before", "after"):
            store = _killed(setup, flush, point, when)
            with _service(store) as fresh:
                fresh.flush_index("idx")
                assert _texts(fresh, "fresh") == {"error fresh one"}, (point, when)
            deltas = AppendOnlyIndexManager(store, "idx").manifest().delta_indexes
            assert len(deltas) == 1, (point, when, deltas)


def test_a_restore_killed_at_any_put_answers_one_timeline():
    def setup(store):
        service = _service(store)
        _build(service)
        service.append_documents("idx", ["error before snapshot"])
        service.flush_index("idx")
        service.delete_documents("idx", [ERROR_ONE])
        service.create_snapshot("idx", "s")
        service.append_documents("idx", ["error after snapshot"])
        service.flush_index("idx")
        service.append_documents("idx", ["error unflushed"])
        return service

    def restore(service):
        service.restore_snapshot("idx", "s")

    store = _store()
    setup(store).close()
    before = _fresh_texts(store)
    restore(_service(store))
    restored = _fresh_texts(store)
    assert before == {"error before snapshot", "error after snapshot", "error unflushed"}
    assert restored == {"error before snapshot"}
    for point in _kill_points(setup, restore, ops=("put",)):
        for when in ("before", "after"):
            answer = _fresh_texts(_killed(setup, restore, point, when))
            assert answer in (before, restored), (point, when, answer)


def test_a_rebuild_killed_at_any_mutation_answers_one_timeline():
    def setup(store):
        service = _service(store)
        _build(service)
        service.append_documents("idx", ["error flushed"])
        service.flush_index("idx")
        service.delete_documents("idx", [ERROR_ONE])
        service.append_documents("idx", ["error unflushed"])
        return service

    def rebuild(service):
        _build(service, "corpus/other.txt")

    store = _store()
    setup(store).close()
    before = _fresh_texts(store)
    rebuild(_service(store))
    rebuilt = _fresh_texts(store)
    assert before == {"error flushed", "error unflushed"}
    assert rebuilt == {"error other"}
    for point in _kill_points(setup, rebuild):
        for when in ("before", "after"):
            answer = _fresh_texts(_killed(setup, rebuild, point, when))
            assert answer in (before, rebuilt), (point, when, answer)


#: Swaps of one index, each after some writes: a rebuild, a compaction, a
#: rebuild, a compaction.
SWAPS: tuple[Callable[[AirphantService], object], ...] = (
    lambda service: _build(service),
    lambda service: (
        service.append_documents("idx", ["error compacted"]),
        service.delete_documents("idx", [ERROR_ONE]),
        service.compact_index("idx"),
    ),
    lambda service: _build(service, "corpus/other.txt"),
    lambda service: (
        service.append_documents("idx", ["error last"]),
        service.compact_index("idx"),
    ),
)


def _history(store: FaultPointStore, swaps: int) -> AirphantService:
    """The index with a flushed delta and pending writes, then ``swaps`` swaps."""
    service = _service(store)
    _build(service)
    service.append_documents("idx", ["error flushed"])
    service.flush_index("idx")
    service.delete_documents("idx", [ERROR_ONE])
    service.append_documents("idx", ["error unflushed"])
    for swap in SWAPS[:swaps]:
        swap(service)
    return service


def test_a_swap_killed_before_any_delete_leaves_what_a_clean_run_leaves():
    # The first swap deletes nothing (no build was retired before it, and a
    # delete writes no record blob): the second and third are the first
    # that purge.
    for swap in (1, 2):

        def setup(store, swap=swap):
            return _history(store, swap)

        for point in _kill_points(setup, SWAPS[swap], ops=("delete",)):
            crashed = _killed(setup, SWAPS[swap], point, "before")
            clean = _store()
            _history(clean, swap + 1).close()
            # Both runs restart after the swap, then swap twice more.
            for store in (crashed, clean):
                with _service(store) as restarted:
                    for later in SWAPS[swap + 1 : swap + 3]:
                        later(restarted)
            assert crashed.backend.list_blobs("idx/") == clean.backend.list_blobs("idx/"), point


def test_a_restored_snapshot_keeps_its_segments_after_the_snapshot_goes():
    """A rebuild killed before it drops the snapshots leaves one that points
    below the rebuild's WAL floor; restoring it lowers the floor, so the
    segments its delta points into outlive the snapshot."""
    store = _store()
    with _service(store) as service:
        _build(service)
        service.append_documents("idx", ["error appended"])
        service.flush_index("idx")
        service.create_snapshot("idx", "s")
        store.arm("delete", "/snapshots/", when="before")
        try:
            _build(service, "corpus/other.txt")
        except SimulatedCrash:
            pass
        store.disarm()
    with _service(store) as restarted:
        restarted.restore_snapshot("idx", "s")
        restarted.delete_snapshot("idx", "s")
        restarted.append_documents("idx", ["error later"])
        restarted.compact_index("idx")
        restarted.compact_index("idx")
    assert _fresh_texts(store) == {"error one", "error appended", "error later"}


def test_a_node_that_opened_before_a_rebuild_answers_its_timeline_in_grace():
    store = _store()
    with _service(store) as writer:
        _build(writer)
        writer.append_documents("idx", ["error appended"])
        writer.flush_index("idx")
    with _service(store) as first:
        first.searcher("idx")  # opened: headers only, no document read yet
        with _service(store) as second:
            _build(second, "corpus/other.txt")
            assert _texts(second) == {"error other"}
        # The rebuild retired the old builds and the WAL segments the old
        # delta points into: the first node still answers its timeline.
        assert _texts(first) == {"error one", "error appended"}


def test_a_write_after_another_nodes_rebuild_keeps_the_rebuild():
    store = _store()
    with _service(store) as writer:
        _build(writer)
    first = _service(store)
    first.searcher("idx")  # its manifest: the in-place build
    with _service(store) as second:
        _build(second, "corpus/other.txt")
    first.append_documents("idx", ["error appended"])
    assert first.flush_index("idx")["delta"] == "idx/delta-0000"
    assert first.compact_index("idx")["generation"] == 2
    first.close()
    assert _fresh_texts(store) == {"error other", "error appended"}
    # The rebuild's generation is retired for one swap of grace, not purged;
    # the in-place build it retired is.
    assert store.exists("idx/gen-00000001/header.json")
    assert not store.exists("idx/header.json")


def test_nodes_that_flush_in_turn_keep_each_others_deltas():
    store = _store()
    with _service(store) as writer:
        _build(writer)
    first, second = _service(store), _service(store)
    first.append_documents("idx", ["error first one"])
    first.flush_index("idx")
    second.append_documents("idx", ["error second one"])
    second.flush_index("idx")
    first.append_documents("idx", ["error first two"])
    assert first.flush_index("idx")["delta"] == "idx/delta-0002"
    second.close()
    first.close()
    expected = {"error one", "error first one", "error second one", "error first two"}
    assert _fresh_texts(store) == expected
    with _service(store) as third:
        third.compact_index("idx")
    assert _fresh_texts(store) == expected


def _commit_puts(calls: list[list]) -> list[str]:
    """The blobs of the commit PUTs among recorded store calls."""
    return [
        blob for method, blob, _, _ in calls
        if method == "put" and blob.endswith(("/manifest.json", "/ingest.json"))
    ]


def test_a_flush_a_compaction_and_a_restore_each_commit_with_one_put():
    store = RecordingStore(_store())
    with _service(store) as service:
        _build(service)
        service.create_snapshot("idx", "s")
        for name, operation in (
            ("append", lambda: service.append_documents("idx", ["error fresh"])),
            ("delete", lambda: service.delete_documents("idx", [ERROR_ONE])),
            ("flush", lambda: service.flush_index("idx")),
            ("compact", lambda: service.compact_index("idx")),
            ("restore", lambda: service.restore_snapshot("idx", "s")),
        ):
            start = len(store.calls)
            outcome = operation()
            calls = store.calls[start:]
            assert _commit_puts(calls) == ["idx/manifest.json"], name
            # Nothing reads the manifest back after committing it: the reply
            # reports the manifest this operation committed.
            put = next(i for i, call in enumerate(calls) if call[:2] == ["put", "idx/manifest.json"])
            assert not [call for call in calls[put:] if call[1] == "idx/manifest.json"][1:], name
            if name in ("compact", "restore"):
                generation = AppendOnlyIndexManager(store, "idx").manifest().generation
                assert outcome["generation"] == generation, name


def test_concurrent_writes_and_maintenance_lose_no_commit():
    """Writers, deletes, flushes and compactions share one live manifest: a
    lost read-modify-write would drop an acknowledged append or delete."""
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", BASE)
    acked: dict[str, Posting] = {}
    deleted: set[str] = set()
    errors: list[BaseException] = []
    stop = threading.Event()

    def writer(number: int, service: AirphantService) -> None:
        try:
            for step in range(30):
                uid = f"uid{number}x{step}"
                outcome = service.append_documents("idx", [f"error {uid}"])
                acked[uid] = Posting(**outcome["refs"][0])
                if step % 3 == 2:
                    doomed = f"uid{number}x{step - 1}"
                    service.delete_documents("idx", [acked[doomed]])
                    deleted.add(doomed)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    def maintainer(service: AirphantService) -> None:
        try:
            while not stop.is_set():
                service.flush_index("idx")
                service.compact_index("idx")
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _service(store) as service:
            _build(service)
            writers = [
                threading.Thread(target=writer, args=(n, service), daemon=True) for n in range(4)
            ]
            maintenance = threading.Thread(target=maintainer, args=(service,), daemon=True)
            for thread in (*writers, maintenance):
                thread.start()
            for thread in writers:
                thread.join(60)
            stop.set()
            maintenance.join(60)
            assert not any(thread.is_alive() for thread in (*writers, maintenance))
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    with _service(store) as fresh:
        for uid in acked:
            expected = set() if uid in deleted else {f"error {uid}"}
            assert _texts(fresh, uid) == expected, uid
