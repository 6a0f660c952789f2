"""The persistent metadata index over partition files."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox, st_query_box
from repro.temporal.duration import Duration

METADATA_FILENAME = "metadata.json"
FORMAT_VERSION = 1
#: Block encodings a metadata file may name: every writer emits ``"v2"``
#: (:mod:`repro.stio.blockv2`); ``"v1"`` is recognised so that
#: ``repro convert-format`` can upgrade it.
BLOCK_FORMATS = ("v1", "v2")


@dataclass(frozen=True)
class PartitionMeta:
    """One partition's entry in the metadata file.

    ``bounds`` is the ST MBR of the partition's *actual contents* (not the
    partitioner's theoretical cell): tight MBRs prune better, and they are
    what the paper's Figure 4 depicts being compared against the query
    range.
    """

    filename: str
    count: int
    bounds: STBox

    def overlaps(self, spatial: Envelope | None, temporal: Duration | None) -> bool:
        """Does this partition possibly contain data in the query range?

        ``None`` for either dimension means "unconstrained".  The test is
        the *same* closed-interval box intersection the Selector's
        in-memory filter probes with (:func:`~repro.index.boxes.st_query_box`
        against the stored 3-d MBR) — not a parallel re-implementation —
        so pruning can never disagree with the fine-grained filter, even
        for queries that merely touch a partition MBR edge: a touching
        query *can* match a record sitting exactly on that edge, and must
        keep the partition.
        """
        if self.count == 0:
            return False
        return self.bounds.intersects(st_query_box(spatial, temporal))

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialization."""
        return {
            "filename": self.filename,
            "count": self.count,
            "mins": list(self.bounds.mins),
            "maxs": list(self.bounds.maxs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PartitionMeta":
        """Inverse of to_dict."""
        return cls(
            filename=d["filename"],
            count=int(d["count"]),
            bounds=STBox(d["mins"], d["maxs"]),
        )


@dataclass
class DatasetMetadata:
    """The whole metadata file: format info + per-partition boundaries.

    ``codec`` names how block files encode records: ``"tuple"`` (the
    compact format of :mod:`repro.stio.formats`, the default) or
    ``"pickle"`` (records pickled as-is — used by pipeline checkpoints,
    whose phase outputs include replica-flagged and partial collective
    instances the tuple format cannot round-trip).  Absent in older
    metadata files, which are all tuple-encoded.

    ``block_format`` names how partitions are laid out *as files*:
    ``"v2"`` — the mmap-able columnar layout of :mod:`repro.stio.blockv2`,
    ``part-*.stb``, which is what every writer emits — or ``"v1"`` (one
    pickle per block, ``part-*.pkl``), kept only so such a directory is
    recognised and sent to ``repro convert-format``.  Orthogonal to
    ``codec``, which names how individual records encode *within* a block.
    Absent in older metadata files, which are all v1.

    ``generation`` is a monotonically increasing edit counter for the
    dataset *as a whole*: every append bumps it (see :meth:`merged_with`)
    and so does rewriting an existing directory in place (a re-index /
    repartition).  Long-lived readers — the ``repro serve`` daemon's
    result cache above all — key cached answers on it, so an answer
    computed against generation N can never be served once the data moved
    to N+1.  Absent in older metadata files, which read as generation 0.

    ``epoch`` is the rewrite epoch: :meth:`~repro.stio.dataset.StDataset.write`
    over an existing dataset (compaction, re-index, conversion) bumps it,
    an append (:meth:`merged_with`) carries it forward.  Position-based
    readers (:class:`~repro.stream.StreamState`) compare it to learn that
    blocks they consumed were rewritten — block names and counts cannot
    tell, a rewrite reuses both.  Absent in older files, which read as 0.

    ``watermark`` is the streaming high-water mark: the maximum event end
    time ever ingested (epoch seconds), or ``None`` for datasets never
    touched by :meth:`~repro.stio.dataset.StDataset.ingest`.  It advances
    transactionally with the partition list — blocks land on disk first,
    then one atomic metadata replace publishes partitions + generation +
    watermark together, so a crashed ingest leaves at worst orphan block
    files the metadata never names (invisible to readers, reclaimed by
    the next compaction).  Incremental pipelines use it to name "what
    has been processed" (:meth:`~repro.core.pipeline.Pipeline.run_incremental`);
    records arriving with end times at or below it are *late* and are
    counted by the ingest path rather than dropped.
    """

    instance_type: str
    partitions: list[PartitionMeta]
    version: int = FORMAT_VERSION
    codec: str = "tuple"
    generation: int = 0
    epoch: int = 0
    block_format: str = "v2"
    watermark: float | None = None

    @property
    def total_records(self) -> int:
        """Sum of all partition record counts."""
        return sum(p.count for p in self.partitions)

    def select_partitions(
        self,
        spatial: Envelope | None = None,
        temporal: Duration | None = None,
    ) -> list[PartitionMeta]:
        """Step (1) of Figure 4: shortlist partitions overlapping the query."""
        return [p for p in self.partitions if p.overlaps(spatial, temporal)]

    # -- persistence -----------------------------------------------------------

    def save(self, directory: str | Path) -> Path:
        """Write to the dataset directory; returns the file path.

        The write is atomic (temp file + ``os.replace`` in the same
        directory): readers racing an ingest see either the old metadata
        or the new one, never a torn file.  This is what makes the
        watermark advance *transactional* — partitions, generation, and
        watermark publish in one rename.
        """
        path = Path(directory) / METADATA_FILENAME
        payload = {
            "version": self.version,
            "instance_type": self.instance_type,
            "codec": self.codec,
            "block_format": self.block_format,
            "generation": self.generation,
            "epoch": self.epoch,
            "partitions": [p.to_dict() for p in self.partitions],
        }
        if self.watermark is not None:
            payload["watermark"] = self.watermark
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "DatasetMetadata":
        """Read and validate from the dataset directory."""
        path = Path(directory) / METADATA_FILENAME
        if not path.exists():
            raise FileNotFoundError(f"no metadata file at {path}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupted metadata file {path}: {exc}") from exc
        for key in ("version", "instance_type", "partitions"):
            if key not in payload:
                raise ValueError(f"metadata file {path} is missing key {key!r}")
        if payload["version"] > FORMAT_VERSION:
            raise ValueError(
                f"metadata format {payload['version']} is newer than supported "
                f"({FORMAT_VERSION})"
            )
        block_format = payload.get("block_format", "v1")
        if block_format not in BLOCK_FORMATS:
            raise ValueError(
                f"metadata file {path} names unsupported block format "
                f"{block_format!r} (supported: {', '.join(BLOCK_FORMATS)})"
            )
        watermark = payload.get("watermark")
        return cls(
            instance_type=payload["instance_type"],
            partitions=[PartitionMeta.from_dict(d) for d in payload["partitions"]],
            version=payload["version"],
            codec=payload.get("codec", "tuple"),
            generation=int(payload.get("generation", 0)),
            epoch=int(payload.get("epoch", 0)),
            block_format=block_format,
            watermark=float(watermark) if watermark is not None else None,
        )

    def merged_with(self, other: "DatasetMetadata") -> "DatasetMetadata":
        """Merge metadata of a newly indexed batch into an existing file —
        the periodic-append workflow of Section 4.1's discussion point (2)."""
        if other.instance_type != self.instance_type:
            raise ValueError("cannot merge metadata of different instance types")
        if other.codec != self.codec:
            raise ValueError("cannot merge metadata of different block codecs")
        if other.block_format != self.block_format:
            raise ValueError("cannot merge metadata of different block formats")
        if self.watermark is None:
            watermark = other.watermark
        elif other.watermark is None:
            watermark = self.watermark
        else:
            # The high-water mark is monotone: a late batch (all event
            # times below the current mark) merges without regressing it.
            watermark = max(self.watermark, other.watermark)
        return DatasetMetadata(
            instance_type=self.instance_type,
            partitions=self.partitions + other.partitions,
            codec=self.codec,
            # An append is an edit: cached answers against the old
            # generation must stop hitting.
            generation=self.generation + 1,
            epoch=self.epoch,
            block_format=self.block_format,
            watermark=watermark,
        )
