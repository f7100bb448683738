"""Super postings lists: the one posting-list type of the read path.

A superpost is the union of the postings lists of every keyword hashed into
one bin; a query intersects the L superposts of a keyword.  On the read path
a list of postings — a decoded superpost, a word's final list, a Boolean
node's candidates, one member's share of a query — is always a
:class:`Superpost`: immutable, duplicate-free and **sorted by
``(blob name, offset, length)`` by construction**, so nothing downstream
re-sorts, copies or re-hashes it.

Behind the type there are two representations, chosen by list length:

* a **long** list is two ``int64`` columns — ``key``, the posting's blob
  rank and offset packed as ``rank << 44 | offset``, and ``length`` — plus
  the sorted tuple of blob names the ranks index.  Intersection, union,
  difference and tombstone exclusion are ``searchsorted`` passes over the
  keys with the lengths compared as well; no :class:`Posting` object exists
  until :meth:`Superpost.take` materialises the ones somebody asked for
  (wave 2's sample, not the candidates).
* a **short** list is a sorted tuple of :class:`Posting` combined with plain
  ``set``/``in`` operations, because numpy costs 1–5 µs per call whatever
  the size and a 3-posting list pays that a dozen times over.

A mixed operation packs the short side into columns and probes it into the
long one.  The packed key bounds what columns can hold — offsets below 2**44
(16 TiB) over at most 2**19 distinct blobs — and the bound is checked
wherever columns are built: a list with a posting beyond it stays a tuple
however long it is, and an operation that meets one compares objects, so no
key is ever truncated and any 63-bit offset still round-trips.  Two postings
that share ``(blob, offset)`` and differ in length stay distinct, as they
are in a set.

The build side does not use this type: a sketch under construction holds
plain ``set[Posting]`` bins (see :mod:`repro.core.sketch`).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.parsing.documents import Posting

#: Lists longer than this many postings are columns, the rest stay tuples of
#: ``Posting`` (the decoder applies it to the payload: more than
#: ``2 * CROSSOVER`` bytes, a v2 posting being at least two).  Set by
#: measurement on the two workloads either side of it — `heavy_mem` (200–5 000
#: postings per list) and `ingest_file` (1–36).  Decoding one v2 payload into
#: a tuple vs into columns (`scripts/measure_crossover.py`, µs): 3 postings
#: 7.7 vs 37, 10 postings 14 vs 28, 32 postings 45 vs 31, 128 postings 169 vs
#: 33, 300 postings 405 vs 44, 3 339 postings 3 973 vs 101.  In isolation the
#: two cross near 30 postings, but a query over base + deltas + memtable pays
#: the columns' fixed cost per member and per mixed operation: at 32,
#: `ingest_file`'s `query_ms_p95` rose 1.55 -> 2.05 ms (worse in 8 of 8
#: pairs); at 128 it is inside the parent's own spread.  The table, the pairs
#: and how to re-measure are in docs/ARCHITECTURE.md ("Posting lists").
CROSSOVER = 128

#: What a read cache charges per posting of a short (tuple) list: the memory
#: one decoded ``Posting`` holds — its object and attribute dict, an offset
#: ``int`` and a tuple slot — measured with ``tracemalloc`` at 140–180 bytes
#: on CPython 3.11 (a long list costs the 16 bytes of its two columns).
TUPLE_POSTING_BYTES = 144

_OFFSET_BITS = 44
#: Offsets a packed key can hold (exclusive).
OFFSET_LIMIT = 1 << _OFFSET_BITS
#: Distinct blob names one long list can rank.
BLOB_LIMIT = 1 << (63 - _OFFSET_BITS)

#: Sort key of the one posting order (what ``Posting``'s own ``<`` compares,
#: without a Python-level call per comparison).
POSTING_ORDER = attrgetter("blob", "offset", "length")
_NO_COLUMN = np.empty(0, np.int64)
#: ``(key, length, runs)``: a list's packed columns, and the most postings
#: sharing one key (1 unless two postings differ in length alone).
_Columns = tuple[np.ndarray, np.ndarray, int]


def _longest_run(key: np.ndarray, length: np.ndarray) -> int:
    """Most postings sharing one key in sorted columns (1 when keys are distinct).

    Raises ``ValueError`` unless ``(key, length)`` is strictly increasing.
    """
    if len(key) < 2:
        return 1
    steps = key[1:] - key[:-1]
    low = int(steps.min())
    if low > 0:
        return 1
    tied = steps == 0
    if low < 0 or bool((np.diff(length)[tied] <= 0).any()):
        raise ValueError("posting columns are not in strict (blob, offset, length) order")
    edges = np.flatnonzero(np.diff(np.concatenate(([False], tied, [False])).view(np.int8)))
    return int((edges[1::2] - edges[::2]).max()) + 1


def _found(
    key: np.ndarray, length: np.ndarray, in_key: np.ndarray, in_length: np.ndarray, runs: int
) -> np.ndarray:
    """Which ``(key, length)`` pairs occur in the sorted columns ``in_*``.

    ``runs`` is the most entries of ``in_key`` sharing one key: a probe lands
    on the first of them and steps through the rest comparing lengths.
    """
    found = np.zeros(len(key), bool)
    if len(in_key) and len(key):
        at = np.searchsorted(in_key, key)
        last = len(in_key) - 1
        for _ in range(runs):
            np.minimum(at, last, out=at)
            found |= (in_key[at] == key) & (in_length[at] == length)
            at += 1
    return found


def _objects(
    names: Sequence[str], rank: np.ndarray, offset: np.ndarray, length: np.ndarray
) -> list[Posting]:
    """Rows of columns as ``Posting`` objects."""
    return [
        Posting(names[rank], offset, length)
        for rank, offset, length in zip(rank.tolist(), offset.tolist(), length.tolist())
    ]


class Superpost(Sequence[Posting]):
    """An immutable list of distinct postings in ``(blob, offset, length)`` order.

    ``Superpost(postings)`` sorts and de-duplicates any iterable;
    :meth:`ordered` and :meth:`from_columns` adopt what a decoder already
    produced in order.  ``len``, indexing, slicing, iteration and ``in``
    work as on a tuple — and on a long list create ``Posting`` objects, so
    the query path asks for exactly the slice it fetches (:meth:`take`).
    """

    __slots__ = ("_items", "_names", "_key", "_length", "_runs")

    def __init__(self, postings: Iterable[Posting] = ()) -> None:
        self._pack(tuple(sorted(set(postings), key=POSTING_ORDER)))

    def _pack(self, items: tuple[Posting, ...]) -> None:
        """Hold ``items`` (distinct, in order): as columns above :data:`CROSSOVER`."""
        self._items: tuple[Posting, ...] | None = items
        self._names: tuple[str, ...] = ()
        self._key = self._length = _NO_COLUMN
        self._runs = 1
        if len(self._items) > CROSSOVER:
            names = self._blob_names()
            columns = self._columns(names)
            if columns is not None:
                self._items, self._names = None, names
                self._key, self._length, self._runs = columns

    @classmethod
    def _adopt(
        cls,
        items: tuple[Posting, ...] | None,
        names: tuple[str, ...] = (),
        key: np.ndarray = _NO_COLUMN,
        length: np.ndarray = _NO_COLUMN,
        runs: int = 1,
    ) -> "Superpost":
        self = cls.__new__(cls)
        self._items, self._names, self._key, self._length, self._runs = (
            items, names, key, length, runs
        )
        return self

    @classmethod
    def ordered(cls, items: Iterable[Posting]) -> "Superpost":
        """Adopt postings already distinct and in order (the scalar decoder's,
        a memtable's)."""
        self = cls.__new__(cls)
        self._pack(tuple(items))
        return self

    @classmethod
    def from_columns(
        cls, names: Sequence[str], rank: np.ndarray, offset: np.ndarray, length: np.ndarray
    ) -> "Superpost":
        """Adopt decoded columns: posting ``i`` is ``(names[rank[i]], offset[i], length[i])``.

        ``names`` must be sorted, so that rank order is blob-name order.
        Raises ``ValueError`` for rows out of strict order.  Columns the
        packed key cannot hold become a tuple of postings instead.
        """
        names = tuple(names)
        if len(names) > BLOB_LIMIT or (len(offset) and int(offset.max()) >= OFFSET_LIMIT):
            return cls.ordered(_objects(names, rank, offset, length))
        key = (rank << _OFFSET_BITS) | offset
        if length.base is not None:
            # A view (the v1 decoder's, every third varint) would keep the
            # decoder's whole column alive beyond what ``nbytes`` charges.
            length = length.copy()
        return cls._adopt(None, names, key, length, _longest_run(key, length))

    # -- the sequence ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._key) if self._items is None else len(self._items)

    def take(self, start: int = 0, stop: int | None = None) -> list[Posting]:
        """Postings ``[start:stop]`` as objects — on a long list, the place
        they are created."""
        if self._items is not None:
            return list(self._items[start:stop])
        key = self._key[start:stop]
        return _objects(
            self._names, key >> _OFFSET_BITS, key & (OFFSET_LIMIT - 1), self._length[start:stop]
        )

    def __getitem__(self, index: int | slice) -> Posting | list[Posting]:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            return self.take(start, stop) if step == 1 else list(self)[index]
        at = range(len(self))[index]
        return self.take(at, at + 1)[0]

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._items if self._items is not None else self.take())

    def __repr__(self) -> str:
        form = "columns" if self._items is None else "tuple"
        return f"Superpost({len(self)} postings, {form})"

    @property
    def nbytes(self) -> int:
        """What holding this list costs a read cache: its columns' ``nbytes``
        when long, :data:`TUPLE_POSTING_BYTES` per posting when short."""
        if self._items is None:
            return self._key.nbytes + self._length.nbytes
        return TUPLE_POSTING_BYTES * len(self._items)

    def freeze(self) -> "Superpost":
        """Make the columns read-only (this list, for chaining).

        A cached list is shared by every query and server thread that reads
        its range; no operation writes into its inputs, and a frozen column
        turns an accidental in-place write into a ``ValueError``.
        """
        self._key.flags.writeable = False
        self._length.flags.writeable = False
        return self

    def document_bytes(self) -> int:
        """Sum of the postings' lengths: the bytes fetching them all would cost."""
        if self._items is None:
            return int(self._length.sum())
        return sum(posting.length for posting in self._items)

    # -- set algebra ----------------------------------------------------------------

    @staticmethod
    def intersect_all(superposts: Iterable["Superpost"]) -> "Superpost":
        """Intersection of several lists (a word's layers, an AND's children).

        The shortest list probes into each of the others in turn; no input
        produces the empty list, matching a word that was never inserted.
        """
        lists = sorted(superposts, key=len)
        if not lists:
            return EMPTY
        result = lists[0]
        for other in lists[1:]:
            if not result:
                break
            result = result._select(result._mask(other), True)
        return result

    @staticmethod
    def union_all(superposts: Iterable["Superpost"]) -> "Superpost":
        """Union of several lists (the shards of a word, an OR's children)."""
        lists = [superpost for superpost in superposts if superpost]
        if len(lists) < 2:
            return lists[0] if lists else EMPTY
        columns: list[_Columns | None] = []
        if any(superpost._items is None for superpost in lists):
            names = lists[0]._universe(*lists[1:])
            columns = [superpost._columns(names) for superpost in lists]
        if not columns or any(column is None for column in columns):
            # All short, or a posting the packed key cannot hold: as objects.
            return Superpost(chain.from_iterable(lists))
        key = np.concatenate([column[0] for column in columns])
        length = np.concatenate([column[1] for column in columns])
        order = np.lexsort((length, key))
        key, length = key[order], length[order]
        fresh = np.ones(len(key), bool)
        fresh[1:] = (key[1:] != key[:-1]) | (length[1:] != length[:-1])
        key, length = key[fresh], length[fresh]
        return Superpost._adopt(None, names, key, length, _longest_run(key, length))

    def difference(self, other: "Superpost") -> "Superpost":
        """This list without the postings ``other`` also holds."""
        if not self or not other:
            return self
        return self._select(self._mask(other), False)

    def positions(self, postings: "Superpost") -> np.ndarray:
        """Where each of ``postings`` sits in this list: one ``int64`` index
        per posting, ``-1`` for a posting this list does not hold."""
        names = self._universe(postings)
        mine, theirs = self._columns(names), postings._columns(names)
        if mine is None or theirs is None:  # a posting the packed key cannot hold
            index = {posting: at for at, posting in enumerate(self)}
            return np.array([index.get(posting, -1) for posting in postings], np.int64)
        key, length, runs = mine
        found = np.full(len(postings), -1, np.int64)
        if len(key) and len(postings):
            at = np.searchsorted(key, theirs[0])
            last = len(key) - 1
            for _ in range(runs):
                np.minimum(at, last, out=at)
                hit = (key[at] == theirs[0]) & (length[at] == theirs[1])
                found[hit] = at[hit]
                at += 1
        return found

    def split(self, exclude: AbstractSet[Posting]) -> tuple["Superpost", "Superpost"]:
        """``(kept, condemned)``: this list without, and within, ``exclude``
        (the pending tombstones — any set of postings, in no order).

        The smaller side probes into the larger: a long list materialises
        only when there are more tombstones than postings.
        """
        if self._items is not None or len(exclude) > len(self):
            flags: Sequence[bool] | np.ndarray = [posting in exclude for posting in self]
            if True not in flags:
                return self, EMPTY
        else:
            held = set(self._names)
            flags = self._mask(Superpost(p for p in exclude if p.blob in held))
        return self._select(flags, False), self._select(flags, True)

    # -- the two representations ----------------------------------------------------

    def _blob_names(self) -> tuple[str, ...]:
        """The sorted blob names this list's postings live in."""
        if self._items is None:
            return self._names
        return tuple(sorted({posting.blob for posting in self._items}))

    def _universe(self, *others: "Superpost") -> tuple[str, ...]:
        """One sorted tuple of blob names covering this list and ``others``."""
        names = self._blob_names()
        merged: set[str] | None = None
        for other in others:
            theirs = other._blob_names()
            if theirs is not names and theirs != names:
                merged = (merged if merged is not None else set(names)).union(theirs)
        return names if merged is None else tuple(sorted(merged))

    def _columns(self, names: tuple[str, ...]) -> _Columns | None:
        """This list's columns with blobs ranked in ``names`` (sorted, and
        covering every blob of the list); ``None`` when the packed key cannot
        hold them."""
        if self._items is None and (names is self._names or names == self._names):
            return self._key, self._length, self._runs
        if len(names) > BLOB_LIMIT:
            return None
        position = {name: rank for rank, name in enumerate(names)}
        if self._items is None:
            shift = np.array(
                [position[name] - rank for rank, name in enumerate(self._names)], np.int64
            )
            key = self._key + (shift << _OFFSET_BITS)[self._key >> _OFFSET_BITS]
            return key, self._length, self._runs
        offset = [posting.offset for posting in self._items]
        if max(offset, default=0) >= OFFSET_LIMIT:
            return None
        key = np.array([position[posting.blob] for posting in self._items], np.int64)
        key = (key << _OFFSET_BITS) | np.array(offset, np.int64)
        length = np.array([posting.length for posting in self._items], np.int64)
        return key, length, _longest_run(key, length)

    def _mask(self, other: "Superpost") -> Sequence[bool] | np.ndarray:
        """Which of this list's postings ``other`` holds, one flag each."""
        if self._items is not None and other._items is not None:
            held = set(other._items)
            return [posting in held for posting in self._items]
        names = self._universe(other)
        mine, theirs = self._columns(names), other._columns(names)
        if mine is None or theirs is None:  # a posting the packed key cannot hold
            held = set(other)
            return [posting in held for posting in self]
        found = _found(mine[0], mine[1], *theirs)
        return found.tolist() if self._items is not None else found

    def _select(self, flags: Sequence[bool] | np.ndarray, wanted: bool) -> "Superpost":
        """The postings whose flag is ``wanted``, in order (this list itself
        when that is all of them)."""
        if self._items is not None:
            items = tuple(p for p, flag in zip(self._items, flags) if flag == wanted)
            return self if len(items) == len(self._items) else Superpost.ordered(items)
        mask = np.asarray(flags, bool)
        if not wanted:
            mask = ~mask
        if mask.all():
            return self
        return Superpost._adopt(None, self._names, self._key[mask], self._length[mask], self._runs)


#: The list without postings (immutable, so one is enough).
EMPTY = Superpost()
