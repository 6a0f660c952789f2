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
pass over records (extent table + payload bytes), :func:`layout_v2_block`
lays out whatever columns and bytes it is handed — a slice of a batch's
table, or rows gathered verbatim out of the blocks a compaction replaces.
:class:`V2Block` pickles as its *path* and re-opens (re-mmaps) on the
other side, so shipping a block handle to a process worker moves a
filename, not megabytes; ndarray views taken from it ride pickle protocol
5's out-of-band buffers when they are captured by stage closures.
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path
from typing import Sequence

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


def encode_rows(records: Sequence, codec: str) -> tuple[BoxTable | None, list[bytes]]:
    """The write path's one pass over records: ``(extent table, row payloads)``.

    ``codec`` names how each row's payload encodes: ``"tuple"`` routes it
    through :func:`~repro.stio.formats.encode_record` (compact,
    schema-checked); ``"pickle"`` stores it verbatim — lossless for anything
    picklable, which is what checkpoints need (replica flags, partial
    collective instances).  The table is ``None`` when some record has no ST
    extent (such a checkpoint payload): one row without columns poisons
    pushdown for its whole block, which is then laid out unfilterable.
    """
    if codec not in ("pickle", "tuple"):
        raise ValueError(f"unknown block codec {codec!r}")
    rows = records if codec == "pickle" else [encode_record(r) for r in records]
    payloads = [pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL) for row in rows]
    try:
        table = BoxTable.from_instances(records)
    except Exception:
        table = None
    return table, payloads


def layout_v2_block(table: BoxTable | None, payloads: Sequence) -> bytes:
    """Lay rows out as one v2 block: the columns of ``table`` as handed in
    (zeroed, filterable flag cleared, for ``None``) and ``payloads`` — any
    bytes-like, so a compaction passes slices of the blocks it replaces."""
    n = len(payloads)
    if table is None:
        columns = np.zeros(6 * n, dtype=np.float64)
        box_exact = np.zeros(n, dtype=np.uint8)
    else:
        columns = np.concatenate(table.columns)
        box_exact = table.box_exact.astype(np.uint8)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(p) for p in payloads], out=offsets[1:])

    columns_off = HEADER_SIZE
    exact_off = columns_off + 6 * n * 8
    index_off = _align8(exact_off + n)
    payload_off = index_off + (n + 1) * 8
    header = _HEADER.pack(
        MAGIC,
        BLOCK_VERSION,
        FLAG_FILTERABLE if table is not None else 0,
        n,
        columns_off,
        exact_off,
        index_off,
        payload_off,
    )
    return b"".join(
        (
            header,
            b"\x00" * (HEADER_SIZE - len(header)),
            columns.tobytes(),
            box_exact.tobytes(),
            b"\x00" * (index_off - exact_off - n),
            offsets.tobytes(),
            *payloads,
        )
    )


def encode_v2_block(records: Sequence, codec: str) -> bytes:
    """Serialize one partition into the v2 on-disk layout."""
    return layout_v2_block(*encode_rows(records, codec))


class PayloadRows(Sequence):
    """Rows known only by their payload bytes; indexing one decodes it.

    The row indirection of a table built over block files: a consumer of
    extents never touches it, one that needs the record pays for exactly
    the rows it reads.
    """

    def __init__(self, payloads: list, codec: str):
        self.payloads = payloads
        self.codec = codec

    def __len__(self) -> int:
        return len(self.payloads)

    def __getitem__(self, i: int):
        value = pickle.loads(self.payloads[i])
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
        with open(self.path, "rb") as f:
            raw_header = f.read(HEADER_SIZE)
        if len(raw_header) < _HEADER.size:
            raise ValueError(f"{self.path.name}: truncated v2 block header")
        magic, version, flags, n, columns_off, exact_off, index_off, payload_off = (
            _HEADER.unpack(raw_header[: _HEADER.size])
        )
        if magic != MAGIC:
            raise ValueError(f"{self.path.name}: not a v2 block (bad magic {magic!r})")
        if version > BLOCK_VERSION:
            raise ValueError(
                f"{self.path.name}: v2 block version {version} is newer than "
                f"supported ({BLOCK_VERSION})"
            )
        # As a str: np.memmap ``resolve()``s a Path, a syscall per part.
        buf = np.memmap(str(self.path), dtype=np.uint8, mode="r")
        if payload_off > len(buf):
            raise ValueError(f"{self.path.name}: truncated v2 block body")
        self.n = int(n)
        self.filterable = bool(flags & FLAG_FILTERABLE)
        self._buf = buf

        # type=np.ndarray drops the memmap subclass from each view (same
        # mapped memory, zero copy): plain ndarrays are what numpy ships
        # through pickle protocol 5's out-of-band buffers when a stage
        # closure captures a BoxTable built over these columns — a memmap
        # subclass would serialize in-band instead.
        self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax = (
            buf[columns_off : columns_off + 6 * self.n * 8]
            .view(dtype=np.float64, type=np.ndarray)
            .reshape(6, self.n)
        )
        self.box_exact = buf[exact_off : exact_off + self.n].view(
            dtype=np.bool_, type=np.ndarray
        )
        self._offsets = buf[index_off : index_off + (self.n + 1) * 8].view(
            dtype=np.int64, type=np.ndarray
        )
        self._payload_off = int(payload_off)
        if self.n and (
            len(self._offsets) != self.n + 1
            or self._payload_off + int(self._offsets[-1]) > len(buf)
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

    def payloads(self) -> list[memoryview]:
        """Every row's payload bytes, as zero-copy slices of the block."""
        # One memoryview of the payload region and one list of the offsets
        # up front: slicing the memmap per row costs more than an unpickle.
        payload = memoryview(self._buf)[self._payload_off :]
        offsets = self._offsets.tolist()
        return [payload[a:b] for a, b in zip(offsets, offsets[1:])]

    def decode_rows(self, rows, codec: str) -> list:
        """Unpickle only the given rows (the pruned-load payload path)."""
        payload = memoryview(self._buf)[self._payload_off :]
        offsets = self._offsets.tolist()
        rows = np.asarray(rows).tolist()
        values = (pickle.loads(payload[offsets[r] : offsets[r + 1]]) for r in rows)
        return [decode_record(v) for v in values] if codec == "tuple" else list(values)

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
