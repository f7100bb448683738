"""Binary serialization of superposts.

Superposts are serialized to compact byte arrays before being concatenated
into the superpost blob.  The paper uses Protocol Buffers plus a string
compression table that replaces repeated blob names inside postings with
small integer keys; we implement an equivalent varint-based codec so the
bytes-per-superpost (and hence download volume) behaves the same way.

The codec — :data:`CODEC_VERSION` 2, which the header blob declares (see
:mod:`repro.index.compaction`); the absolute-offset v1 of early builds is
not read, and an index written in it is rebuilt — groups postings by blob
key: each group stores its key and count once, then its postings sorted by
offset with **delta-coded** offsets (lengths stay absolute). Deltas between
neighbouring documents are tiny compared to absolute offsets, so the varints
collapse to one or two bytes. It emits postings in the global ``(blob,
offset, length)`` sort order, which is the order a
:class:`~repro.core.superpost.Superpost` keeps, so :func:`decode_superpost`
adopts what it decodes and nothing re-sorts. It has two decoders, chosen by
payload size (:data:`~repro.core.superpost.CROSSOVER`): a short payload goes
through the scalar varint loop into a tuple of ``Posting`` — also the
reference the tests hold the other one to — and a long one through a
vectorised LEB128 pass (``np.frombuffer`` → the varints' last bytes → one
masked shift-and-or per byte position, ``cumsum`` for the offset deltas,
blob keys mapped through the string table's name ranks) straight into
columns, creating no ``Posting``. The vectorised pass holds a varint in an
``int64``: it rejects 10-byte varints (values from 2**63) where the scalar
loop accepts them.

The build side writes a whole blob at once: :func:`encode_superposts`
takes every superpost of the blob back to back as :class:`PostingColumns`
and emits the blob's varint stream in one vectorised pass
(:func:`encode_varints`, the twin of :func:`decode_varints`), byte-identical
to concatenating :func:`encode_superpost` over them — which stays the scalar
reference for one superpost, of any collection of postings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.sketch import PostingColumns
from repro.core.superpost import CROSSOVER, POSTING_ORDER, Superpost
from repro.parsing.documents import Posting

#: The superpost codec every build writes and the engine reads.
CODEC_VERSION = 2


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, pos: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` starting at ``pos``.

    Returns ``(value, next_position)``.
    """
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


@dataclass
class StringTable:
    """Interns blob names so postings store small integer keys.

    This is the "compression of repeated strings within postings into integer
    keys" of Section IV-C: most corpora pack many documents into a handful of
    blobs, so replacing the blob name in every posting by an index into this
    table dramatically shrinks superpost bytes.
    """

    names: list[str] = field(default_factory=list)
    _ids: dict[str, int] = field(default_factory=dict)
    #: :meth:`ranks` of the table as it was ``len(ranks[1])`` names long.
    _ranks: tuple[tuple[str, ...], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._ids = {name: index for index, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, name: str) -> int:
        """Return the integer key of ``name``, adding it if necessary."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        index = len(self.names)
        self.names.append(name)
        self._ids[name] = index
        return index

    def lookup(self, key: int) -> str:
        """Return the blob name for integer ``key``."""
        try:
            return self.names[key]
        except IndexError:
            raise KeyError(f"unknown string-table key {key}") from None

    def ranks(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The names in sorted order, and each key's rank among them.

        A long posting list orders blobs by rank; the mapping is computed
        once per table (again only after :meth:`intern` grew it), so every
        list decoded against this table shares one names tuple.
        """
        if self._ranks is None or len(self._ranks[1]) != len(self.names):
            ordered = tuple(sorted(set(self.names)))
            position = {name: rank for rank, name in enumerate(ordered)}
            self._ranks = (ordered, np.array([position[n] for n in self.names], np.int64))
        return self._ranks

    def to_list(self) -> list[str]:
        """Serializable list representation (index = key)."""
        return list(self.names)

    @classmethod
    def from_list(cls, names: list[str]) -> "StringTable":
        """Rebuild a table from its serialized list."""
        return cls(names=list(names))


def encode_superpost(postings: Iterable[Posting], string_table: StringTable) -> bytes:
    """Serialize a superpost (any collection of distinct postings) to bytes.

    Layout: ``varint(num_groups)`` followed by one group per distinct blob —
    ``varint(blob_key) varint(count)`` then ``count`` postings sorted by
    ``(offset, length)`` as ``varint(offset_delta) varint(length)``, where
    the first delta is the absolute offset and each later delta is the gap
    to the previous posting's offset.
    """
    # Sorted by (blob, offset, length), the postings of one blob form a
    # consecutive run already sorted by offset — exactly the group order the
    # codec wants, with non-negative offset deltas.
    groups: list[tuple[str, list[Posting]]] = []
    for posting in sorted(postings, key=POSTING_ORDER):
        if groups and groups[-1][0] == posting.blob:
            groups[-1][1].append(posting)
        else:
            groups.append((posting.blob, [posting]))
    out = bytearray(encode_varint(len(groups)))
    for blob, members in groups:
        out += encode_varint(string_table.intern(blob))
        out += encode_varint(len(members))
        previous = 0
        for posting in members:
            out += encode_varint(posting.offset - previous)
            out += encode_varint(posting.length)
            previous = posting.offset
    return bytes(out)


def decode_superpost(data: bytes, string_table: StringTable) -> Superpost:
    """Inverse of :func:`encode_superpost`, dispatching on the payload's
    size: at most ``2 * CROSSOVER`` bytes decode through the scalar loop
    into a tuple of postings, more through the vectorised pass into columns.
    Either way the list arrives in order and is adopted as is — no
    per-decode sort or hash on the query hot path.
    """
    if len(data) > 2 * CROSSOVER:
        return decode_superpost_columns(data, string_table)
    return Superpost.ordered(decode_superpost_scalar(data, string_table))


def decode_superpost_scalar(data: bytes, string_table: StringTable) -> list[Posting]:
    """One varint at a time, one ``Posting`` per posting: the short-payload
    path, and the reference decoder."""
    postings: list[Posting] = []
    groups, pos = decode_varint(data, 0)
    for _ in range(groups):
        blob_key, pos = decode_varint(data, pos)
        blob = string_table.lookup(blob_key)
        count, pos = decode_varint(data, pos)
        offset = 0
        for _ in range(count):
            delta, pos = decode_varint(data, pos)
            length, pos = decode_varint(data, pos)
            offset += delta
            postings.append(Posting(blob, offset, length))
    return postings


def decode_varints(data: bytes) -> np.ndarray:
    """Every complete varint of ``data``, as one ``int64`` column.

    A varint ends at a byte without the continuation bit; its value is the
    low seven bits of each of its bytes, least significant first, so byte
    position ``k`` of every varint that long is one gather, shift and or.
    Raises ``ValueError`` for a varint of 10 bytes or more.
    """
    raw = np.frombuffer(data, np.uint8)
    (ends,) = (raw < 0x80).nonzero()
    if not len(ends):
        return np.empty(0, np.int64)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    extra = ends - starts
    if int(extra.max()) > 8:
        raise ValueError("varint too long")
    low = (raw & 0x7F).astype(np.int64)
    values = low[starts]
    (live,) = extra.nonzero()
    position = 1
    while len(live):
        values[live] |= low[starts[live] + position] << (7 * position)
        position += 1
        live = live[extra[live] >= position]
    return values


def decode_superpost_columns(data: bytes, string_table: StringTable) -> Superpost:
    """The vectorised decoder: the payload's varints as one column, cut into
    blob-rank, offset and length columns without creating a ``Posting``."""
    values = decode_varints(data)
    names, rank_of_key = string_table.ranks()
    if not len(values):
        raise ValueError("truncated varint")
    group_keys: list[int] = []
    counts: list[int] = []
    bodies: list[np.ndarray] = []
    pos = 1
    for _ in range(int(values[0])):
        if pos + 2 > len(values):
            raise ValueError("truncated varint")
        count = int(values[pos + 1])
        body = values[pos + 2 : pos + 2 + 2 * count]
        if len(body) != 2 * count:
            raise ValueError("truncated varint")
        group_keys.append(int(values[pos]))
        counts.append(count)
        bodies.append(body)
        pos += 2 + 2 * count
    keys = np.repeat(np.array(group_keys, np.int64), counts)
    offsets = np.concatenate([np.cumsum(body[0::2]) for body in bodies] or [keys])
    lengths = np.concatenate([body[1::2] for body in bodies] or [keys])
    if len(keys) and int(keys.max()) >= len(rank_of_key):
        raise KeyError(f"unknown string-table key {int(keys.max())}")
    return Superpost.from_columns(names, rank_of_key[keys], offsets, lengths)


def varint_widths(values: np.ndarray) -> np.ndarray:
    """Bytes :func:`encode_varint` spends on each of ``values`` (1 to 10):
    one pass per width the largest value needs."""
    values = np.asarray(values, np.uint64)
    widths = np.ones(len(values), np.uint8)
    for bits in range(7, int(values.max(initial=0)).bit_length(), 7):
        widths += values >= np.uint64(1 << bits)
    return widths


def encode_varints(values: np.ndarray, widths: np.ndarray | None = None) -> bytes:
    """``values`` (non-negative) as LEB128 varints back to back: the twin of
    :func:`decode_varints`, one masked shift per byte position."""
    values = np.asarray(values, np.uint64)
    if widths is None:
        widths = varint_widths(values)
    starts = np.cumsum(widths, dtype=np.int64) - widths
    out = np.empty(int(widths.sum(dtype=np.int64)), np.uint8)
    live = slice(None)
    for position in range(int(widths.max(initial=0))):
        if position:
            live = np.flatnonzero(widths > position)
        low = (values[live] >> np.uint64(7 * position)).astype(np.uint8) & 0x7F
        out[starts[live] + position] = low | (widths[live] > position + 1).view(np.uint8) << 7
    return out.tobytes()


#: Postings one vectorised encoding pass takes on, in whole superposts (a
#: longer list is a pass of its own): bounds the pass's temporary columns —
#: some 100 bytes a posting — whatever the size of the blob.
ENCODE_BLOCK = 1 << 15


def encode_superposts(
    columns: PostingColumns, string_table: StringTable
) -> tuple[bytes, np.ndarray]:
    """Encode the superposts of ``columns`` back to back, vectorised.

    Returns the concatenation and each superpost's encoded length: exactly
    what calling :func:`encode_superpost` on each in turn with one
    ``string_table`` gives — blob names are interned
    in order of first appearance — except that an empty superpost takes no
    bytes at all.  The lists go through in passes of about
    :data:`ENCODE_BLOCK` postings.
    """
    key_of_rank = np.zeros(len(columns.names), np.uint64)
    blob, sizes = [], [np.zeros(0, np.int64)]
    for lists, rows in _passes(columns):
        rank = columns.rank[rows]
        present, seen = np.unique(rank, return_index=True)
        for at in present[np.argsort(seen)].tolist():
            key_of_rank[at] = string_table.intern(columns.names[at])
        values, per_superpost = _superpost_values(
            key_of_rank[rank],
            columns.offset[rows].astype(np.uint64),
            columns.length[rows].astype(np.uint64),
            np.asarray(columns.counts[lists], np.int64),
        )
        widths = varint_widths(values)
        blob.append(encode_varints(values, widths))
        sizes.append(np.diff(np.append(0, np.cumsum(widths))[np.cumsum(per_superpost)], prepend=0))
    return b"".join(blob), np.concatenate(sizes)


def _passes(columns: PostingColumns) -> Iterator[tuple[slice, np.ndarray]]:
    """Whole superposts, about :data:`ENCODE_BLOCK` postings at a time: the
    slice of the lists, and their rows back to back."""
    counts = np.asarray(columns.counts, np.int64)
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(ENCODE_BLOCK, int(ends[-1:].sum()), ENCODE_BLOCK), "right")
    bounds = sorted({0, *cuts.tolist(), len(counts)})
    for first, last in zip(bounds, bounds[1:]):
        lists = slice(first, last)
        sizes = counts[lists]
        # Each list's start in ``rows``, less its start within the pass.
        shift = np.asarray(columns.starts[lists], np.int64) - (np.cumsum(sizes) - sizes)
        yield lists, columns.rows[np.arange(int(sizes.sum())) + np.repeat(shift, sizes)]


def _superpost_values(
    keys: np.ndarray, offset: np.ndarray, length: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The varint values of consecutive superposts (postings as columns,
    ``counts`` of them each), and how many values each superpost takes."""
    heads = (np.cumsum(counts) - counts)[counts > 0]  # each non-empty list's first posting
    # A blob group opens at each list's first posting and wherever the blob changes.
    opens = np.zeros(len(keys), bool)
    opens[heads] = True
    opens[1:] |= keys[1:] != keys[:-1]
    group_starts = np.flatnonzero(opens)
    group_sizes = np.diff(np.append(group_starts, len(keys))).astype(np.uint64)
    previous = np.zeros(len(keys), np.uint64)
    previous[1:] = offset[:-1]
    previous[opens] = 0
    groups = np.diff(np.searchsorted(group_starts, np.append(0, np.cumsum(counts))))
    values = np.insert(
        np.column_stack([offset - previous, length]).ravel(),
        np.concatenate([2 * heads, np.repeat(2 * group_starts, 2)]),
        np.concatenate(
            [
                groups[counts > 0].astype(np.uint64),
                np.column_stack([keys[group_starts], group_sizes]).ravel(),
            ]
        ),
    )
    return values, np.where(counts > 0, 1 + 2 * groups + 2 * counts, 0)


def uncompressed_superpost_bytes(columns: PostingColumns) -> int:
    """Size of the non-empty superposts of ``columns`` with blob names inline
    and absolute offsets.

    The no-compression baseline (no string table, no delta coding) that the
    compression ablation and the ``airphant_codec_bytes_raw_total`` metric
    measure actual encodings against.
    """
    name_bytes = np.array([len(name.encode("utf-8")) for name in columns.names], np.int64)
    per_document = (varint_widths(name_bytes) + name_bytes)[np.asarray(columns.rank, np.int64)]
    per_document += varint_widths(columns.offset) + varint_widths(columns.length)
    counts = np.asarray(columns.counts, np.int64)
    total = int(varint_widths(counts[counts > 0]).sum(dtype=np.int64))
    return total + sum(int(per_document[rows].sum()) for _, rows in _passes(columns))
