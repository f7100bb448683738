"""Binary serialization of superposts.

Superposts are serialized to compact byte arrays before being concatenated
into the superpost blob.  The paper uses Protocol Buffers plus a string
compression table that replaces repeated blob names inside postings with
small integer keys; we implement an equivalent varint-based codec so the
bytes-per-superpost (and hence download volume) behaves the same way.

Two on-disk codec versions exist (negotiated through the header blob's
``format_version``; see :mod:`repro.index.compaction`):

* **v1** — ``varint(count)`` then one ``(blob_key, offset, length)`` varint
  triple per posting in sorted order.  Offsets are absolute, so every
  posting pays the full magnitude of its byte offset.
* **v2** — postings are grouped by blob key; each group stores its key and
  count once, then its postings sorted by offset with **delta-coded**
  offsets (lengths stay absolute).  Deltas between neighbouring documents
  are tiny compared to absolute offsets, so the varints collapse to one or
  two bytes — the dominant term in the measured ≥1.5× size reduction.

Both codecs emit postings in the global ``(blob, offset, length)`` sort
order, which is the order a :class:`~repro.core.superpost.Superpost` keeps,
so :func:`decode_superpost` adopts what it decodes and nothing re-sorts.  It
has two decoders per codec, chosen by payload size
(:data:`~repro.core.superpost.CROSSOVER`): a short payload goes through the
scalar varint loop into a tuple of ``Posting`` — also the reference the
tests hold the other one to — and a long one through a vectorised LEB128
pass (``np.frombuffer`` → the varints' last bytes → one masked shift-and-or
per byte position, ``cumsum`` for v2's offset deltas, blob keys mapped
through the string table's name ranks) straight into columns, creating no
``Posting``.  The vectorised pass holds a varint in an ``int64``: it rejects
10-byte varints (values from 2**63) where the scalar loop accepts them.

The encoders take any collection of postings — the build side's plain sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable

import numpy as np

from repro.core.superpost import CROSSOVER, POSTING_ORDER, Superpost
from repro.parsing.documents import Posting

#: The original absolute-offset codec (readable forever).
FORMAT_V1 = 1
#: The blob-grouped, offset-delta codec (written by default).
FORMAT_V2 = 2
#: Codec versions this build can decode.
SUPPORTED_FORMAT_VERSIONS = (FORMAT_V1, FORMAT_V2)
#: Codec new indexes are written with unless the builder pins one.
DEFAULT_FORMAT_VERSION = FORMAT_V2


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


def encode_superpost(
    postings: Iterable[Posting], string_table: StringTable, format_version: int = FORMAT_V1
) -> bytes:
    """Serialize a superpost (any collection of distinct postings) to bytes
    in the requested codec version.

    v1 layout: ``varint(count)`` followed by, for each posting in sorted
    order, ``varint(blob_key) varint(offset) varint(length)``.  Sorting makes
    the encoding deterministic and keeps offsets of adjacent documents close,
    which helps the varints stay short.

    v2 layout: ``varint(num_groups)`` followed by one group per distinct
    blob — ``varint(blob_key) varint(count)`` then ``count`` postings sorted
    by ``(offset, length)`` as ``varint(offset_delta) varint(length)``, where
    the first delta is the absolute offset and each later delta is the gap to
    the previous posting's offset.
    """
    if format_version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(f"unsupported superpost codec version {format_version}")
    ordered = sorted(postings, key=POSTING_ORDER)
    if format_version == FORMAT_V1:
        return _encode_v1(ordered, string_table)
    return _encode_v2(ordered, string_table)


def _encode_v1(postings: list[Posting], string_table: StringTable) -> bytes:
    out = bytearray(encode_varint(len(postings)))
    for posting in postings:
        out += encode_varint(string_table.intern(posting.blob))
        out += encode_varint(posting.offset)
        out += encode_varint(posting.length)
    return bytes(out)


def _encode_v2(postings: list[Posting], string_table: StringTable) -> bytes:
    # Sorted by (blob, offset, length), the postings of one blob form a
    # consecutive run already sorted by offset — exactly the group order the
    # codec wants, with non-negative offset deltas.
    groups: list[tuple[str, list[Posting]]] = []
    for posting in postings:
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


def decode_superpost(
    data: bytes, string_table: StringTable, format_version: int = FORMAT_V1
) -> Superpost:
    """Inverse of :func:`encode_superpost`, dispatching on the codec version
    and on the payload's size: at most ``2 * CROSSOVER`` bytes decode through
    the scalar loop into a tuple of postings, more through the vectorised
    pass into columns.  Either way the list arrives in order and is adopted
    as is — no per-decode sort or hash on the query hot path.
    """
    if format_version not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(f"unsupported superpost codec version {format_version}")
    if len(data) > 2 * CROSSOVER:
        return decode_superpost_columns(data, string_table, format_version)
    return Superpost.ordered(decode_superpost_scalar(data, string_table, format_version))


def decode_superpost_scalar(
    data: bytes, string_table: StringTable, format_version: int
) -> list[Posting]:
    """One varint at a time, one ``Posting`` per posting: the short-payload
    path, and the reference decoder."""
    postings: list[Posting] = []
    leading, pos = decode_varint(data, 0)  # v1: postings; v2: blob groups
    if format_version == FORMAT_V1:
        for _ in range(leading):
            blob_key, pos = decode_varint(data, pos)
            offset, pos = decode_varint(data, pos)
            length, pos = decode_varint(data, pos)
            postings.append(Posting(string_table.lookup(blob_key), offset, length))
        return postings
    for _ in range(leading):
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


def decode_superpost_columns(
    data: bytes, string_table: StringTable, format_version: int
) -> Superpost:
    """The vectorised decoder: the payload's varints as one column, cut into
    blob-rank, offset and length columns without creating a ``Posting``."""
    values = decode_varints(data)
    names, rank_of_key = string_table.ranks()
    if not len(values):
        raise ValueError("truncated varint")
    if format_version == FORMAT_V1:
        body = values[1 : 1 + 3 * int(values[0])]
        if len(body) != 3 * int(values[0]):
            raise ValueError("truncated varint")
        keys, offsets, lengths = body[0::3], body[1::3], body[2::3]
    else:
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


def _varint_length(value: int) -> int:
    """Bytes :func:`encode_varint` spends on ``value`` (no allocation)."""
    return 1 if value == 0 else (value.bit_length() + 6) // 7


def uncompressed_superpost_bytes(postings: Collection[Posting]) -> int:
    """Size of a superpost with blob names inline and absolute offsets.

    The no-compression baseline (no string table, no delta coding) that the
    compression ablation and the ``airphant_codec_bytes_raw_total`` metric
    measure actual encodings against.
    """
    total = _varint_length(len(postings))
    for posting in postings:
        name_length = len(posting.blob.encode("utf-8"))
        total += _varint_length(name_length) + name_length
        total += _varint_length(posting.offset) + _varint_length(posting.length)
    return total
