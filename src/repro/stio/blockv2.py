"""The stio block format ("v2"): mmap-able columnar extents + row payloads.

One pickle of the whole partition (the retired v1 layout) makes even a
metadata-pruned load pay a full deserialization before the columnar
BoxTable can be built.  A block splits the partition into two regions so
the selection hot path never touches bytes it does not need:

* **extent columns** — the six structure-of-arrays BoxTable columns
  (``xmin/ymin/tmin/xmax/ymax/tmax`` as float64) plus the ``box_exact``
  mask, laid out so a reader can ``mmap`` them directly and run the
  vectorized ``intersects_box`` kernel straight off disk;
* **payload region** — each record pickled *individually*, with an
  ``int64`` offset index, so only the rows surviving the extent mask are
  ever unpickled.

Layout (all little-endian, section offsets recorded in the header)::

    [ header 64B ][ 6 × n float64 columns ][ n × u8 box_exact ]
    [ (n+1) × i64 payload offsets ][ concatenated row pickles ]

The ``filterable`` header flag is cleared when any record refuses
``st_bounds()`` (pickle-codec checkpoint payloads): such blocks decode
whole — pushdown is an optimization, never a semantics change.
Writing is two steps so they can be split: :func:`encode_rows` is the one
pass over records, into :class:`EncodedRows` (extent table, payload bytes,
row lengths), and :func:`layout_v2_block` lays out whatever rows it is
handed — a split of a batch, or payload bytes permuted verbatim out of the
blocks a compaction merges (:meth:`V2Block.encoded`).
:class:`V2Block` pickles as its *path* and re-opens (re-mmaps) on the
other side, so shipping a block handle to a process worker moves a
filename, not megabytes; ndarray views taken from it ride pickle protocol
5's out-of-band buffers when they are captured by stage closures.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.index.boxes import STBox
from repro.stio.formats import decode_record, encode_record

MAGIC = b"STB2"
BLOCK_VERSION = 1
HEADER_SIZE = 64
FLAG_FILTERABLE = 1

#: magic, version, flags, n_rows, columns_off, exact_off, index_off, payload_off
_HEADER = struct.Struct("<4sHHQQQQQ")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


class EncodedRows(NamedTuple):
    """Rows ready to lay out — the one shape every writer hands a block in:
    the extent ``table`` (``None``: rows without an ST extent, laid out
    unfilterable), every row's ``payload`` bytes back to back (``uint8``),
    and each row's byte count (``lengths``)."""

    table: BoxTable | None
    payload: np.ndarray
    lengths: np.ndarray

    @classmethod
    def joined(cls, table: BoxTable | None, payloads: Sequence[bytes]) -> "EncodedRows":
        """Rows held as one payload ``bytes`` each, in row order."""
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        return cls(table, np.frombuffer(b"".join(payloads), dtype=np.uint8), lengths)

    @classmethod
    def concat(cls, parts: Sequence["EncodedRows"], codec: str) -> "EncodedRows":
        """``parts`` stacked in order (every one filterable); the table's row
        indirection decodes a row's payload only when it is indexed."""
        payload = np.concatenate([p.payload for p in parts])
        lengths = np.concatenate([p.lengths for p in parts])
        table = BoxTable.concat([p.table for p in parts], PayloadRows(payload, lengths, codec))
        return cls(table, payload, lengths)

    def split(self, pids: np.ndarray, n: int) -> list["EncodedRows"]:
        """Block ``k`` holds the rows with ``pids == k``, in input order, for
        every ``k < n`` — a stable byte permutation: one byte mask per block."""
        byte_pids = np.repeat(pids.astype(np.min_scalar_type(n)), self.lengths)
        return [
            EncodedRows(
                self.table.extents(pids == k), self.payload[byte_pids == k], self.lengths[pids == k]
            )
            for k in range(n)
        ]


def encode_payloads(records: Sequence, codec: str) -> list[bytes]:
    """Every record's payload bytes: ``codec`` ``"tuple"`` routes it through
    :func:`~repro.stio.formats.encode_record` (compact, schema-checked);
    ``"pickle"`` stores it verbatim — lossless for anything picklable, which
    is what checkpoints need (replica flags, partial collective instances)."""
    if codec not in ("pickle", "tuple"):
        raise ValueError(f"unknown block codec {codec!r}")
    rows = records if codec == "pickle" else [encode_record(r) for r in records]
    return [pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL) for row in rows]


def encode_rows(records: Sequence, codec: str) -> EncodedRows:
    """The write path's one pass over records: their extent table and payloads
    (:func:`encode_payloads`).  The table is ``None`` when some record has no
    ST extent (a checkpoint payload): one row without columns poisons
    pushdown for its whole block, which is then laid out unfilterable."""
    try:
        table = BoxTable.from_instances(records)
    except Exception:
        table = None
    return EncodedRows.joined(table, encode_payloads(records, codec))


def layout_v2_block(rows: EncodedRows) -> bytes:
    """Lay rows out as one v2 block: the columns of ``rows.table`` as handed
    in (zeroed, filterable flag cleared, for ``None``), the offsets the row
    lengths add up to, and the payload bytes verbatim."""
    n, table = len(rows.lengths), rows.table
    if table is None:
        columns = np.zeros(6 * n, dtype=np.float64)
        box_exact = np.zeros(n, dtype=np.uint8)
    else:
        columns = np.concatenate(table.columns)
        box_exact = table.box_exact.astype(np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rows.lengths, out=offsets[1:])

    columns_off = HEADER_SIZE
    exact_off = columns_off + 6 * n * 8
    index_off = _align8(exact_off + n)
    payload_off = index_off + (n + 1) * 8
    flags = FLAG_FILTERABLE if table is not None else 0
    header = _HEADER.pack(
        MAGIC, BLOCK_VERSION, flags, n, columns_off, exact_off, index_off, payload_off
    ).ljust(HEADER_SIZE, b"\x00")
    padding = b"\x00" * (index_off - exact_off - n)
    return b"".join(
        (header, columns.tobytes(), box_exact.tobytes(), padding, offsets.tobytes(), rows.payload)
    )


def encode_v2_block(records: Sequence, codec: str) -> bytes:
    """Serialize one partition into the v2 on-disk layout."""
    return layout_v2_block(encode_rows(records, codec))


class PayloadRows(Sequence):
    """Rows known only by their payload bytes; indexing one decodes it — the
    row indirection of a table built over block files: a consumer of extents
    never touches it, one that needs the record pays for the rows it reads."""

    def __init__(self, payload: np.ndarray, lengths: np.ndarray, codec: str):
        self.payload = payload
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.codec = codec

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int):
        value = pickle.loads(self.payload[self.offsets[i] : self.offsets[i + 1]])
        return decode_record(value) if self.codec == "tuple" else value


class V2Block:
    """A zero-copy read handle over one v2 block file.

    The whole file is mapped once and every column is an 8-aligned
    ndarray view into that single map — opening a block reads 64 header
    bytes and touches nothing else until a kernel or a row decode faults
    the pages it actually needs.  Pickling a block ships only its path;
    the receiving process re-opens (re-maps) it locally.
    """

    __slots__ = (
        "path", "n", "filterable",
        "xmin", "ymin", "tmin", "xmax", "ymax", "tmax",
        "box_exact", "_buf", "_offsets", "_payload_off",
    )

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(path, "rb") as f:  # one open, one map, the header read off it
            size = os.fstat(f.fileno()).st_size
            if size < _HEADER.size:
                raise ValueError(f"{self.path.name}: truncated v2 block header")
            buf = np.frombuffer(mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ), np.uint8)
        magic, version, flags, n, columns_off, exact_off, index_off, payload_off = (
            _HEADER.unpack_from(buf)
        )
        if magic != MAGIC:
            raise ValueError(f"{self.path.name}: not a v2 block (bad magic {magic!r})")
        if version > BLOCK_VERSION:
            raise ValueError(
                f"{self.path.name}: v2 block version {version} is newer than "
                f"supported ({BLOCK_VERSION})"
            )
        if payload_off > size:
            raise ValueError(f"{self.path.name}: truncated v2 block body")
        self.n = int(n)
        self.filterable = bool(flags & FLAG_FILTERABLE)
        self._buf = buf

        # Plain ndarray views of the one map, which numpy ships out-of-band
        # (pickle protocol 5) when a stage closure captures these columns.
        self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax = (
            buf[columns_off : columns_off + 6 * self.n * 8].view(np.float64).reshape(6, self.n)
        )
        self.box_exact = buf[exact_off : exact_off + self.n].view(np.bool_)
        self._offsets = buf[index_off : index_off + (self.n + 1) * 8].view(np.int64)
        self._payload_off = int(payload_off)
        if self.n and (
            len(self._offsets) != self.n + 1
            or self._payload_off + int(self._offsets[-1]) > size
        ):
            raise ValueError(f"{self.path.name}: truncated v2 block payload region")

    def __len__(self) -> int:
        return self.n

    def __reduce__(self):
        # Zero-copy shipping: only the path travels; the worker re-mmaps.
        return (V2Block, (str(self.path),))

    # -- extent kernels (straight off the mmap) ------------------------------------

    def candidate_rows(self, box: STBox):
        """Sorted row indices whose extents intersect ``box`` — the BoxTable
        kernel, straight off the mmap; every row of a block without columns."""
        if not self.filterable:
            return np.arange(self.n)
        return self.boxtable().candidate_rows(box)

    def boxtable(self):
        """The mmapped columns as a table of extents (a
        :class:`~repro.columnar.boxtable.BoxTable` with no row
        indirection) — ``None`` when the block is not filterable."""
        if not self.filterable:
            return None
        return BoxTable(
            self.xmin, self.ymin, self.tmin,
            self.xmax, self.ymax, self.tmax,
            None, self.box_exact,
        )

    # -- payload decode -------------------------------------------------------------

    def encoded(self) -> EncodedRows:
        """Every row as a writer takes it (table ``None`` when not filterable),
        as views of the map: a compaction moves these bytes, never decodes them."""
        payload = self._buf[self._payload_off : self._payload_off + int(self._offsets[-1])]
        return EncodedRows(self.boxtable(), payload, np.diff(self._offsets))

    def load_rows(self, rows) -> list:
        """Unpickle only the given rows, as stored (a tuple codec's tuples)."""
        payload = memoryview(self._buf)[self._payload_off :]
        offsets = self._offsets.tolist()
        rows = np.asarray(rows).tolist()
        return [pickle.loads(payload[offsets[r] : offsets[r + 1]]) for r in rows]

    def decode_rows(self, rows, codec: str) -> list:
        """Unpickle only the given rows (the pruned-load payload path)."""
        values = self.load_rows(rows)
        return [decode_record(v) for v in values] if codec == "tuple" else values

    def decode_all(self, codec: str) -> list:
        """Unpickle every row (full scan / residency load)."""
        return self.decode_rows(range(self.n), codec)

    # -- byte accounting (LoadStats currency) ---------------------------------------

    def pushdown(self, query_box: STBox | None) -> tuple[np.ndarray | None, int]:
        """``(rows, bytes)`` a read under ``query_box`` loads; ``rows`` is
        ``None`` — every row — with no box or on a non-filterable block."""
        rows = None
        if query_box is not None and self.filterable:
            rows = self.candidate_rows(query_box)
        return rows, self.index_nbytes + self.payload_nbytes(rows)

    @property
    def index_nbytes(self) -> int:
        """Bytes before the payload region: header + columns + offsets."""
        return self._payload_off

    def payload_nbytes(self, rows=None) -> int:
        """Payload bytes of ``rows`` (all rows when ``None``)."""
        if self.n == 0:
            return 0
        if rows is None:
            return int(self._offsets[-1])
        starts = self._offsets[:-1]
        ends = self._offsets[1:]
        return int((ends[rows] - starts[rows]).sum())


def open_v2_block(path: str | Path) -> V2Block:
    """Open one v2 block file for zero-copy reading."""
    return V2Block(path)


def scan_v2_block(path: str | Path, query_box: STBox | None) -> tuple[int, int]:
    """``(records, bytes)`` a pushdown read of ``path`` would load.

    Runs the extent mask off the mmap without decoding any payload — this
    is how the disk RDD accounts a read *before* shipping itself to
    process workers, where driver-side stats are unreachable; the numbers
    match what the worker-side compute observes, on every backend.
    """
    block = open_v2_block(path)
    rows, nbytes = block.pushdown(query_box)
    return (block.n if rows is None else len(rows)), nbytes
