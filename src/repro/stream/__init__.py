"""Streaming: micro-batch ingestion, watermarks, incremental pipelines.

The streaming layer turns the batch reproduction into something that can
sit behind a feed, in three pieces:

* **ingestion** (:mod:`repro.stream.ingest`) —
  :meth:`StDataset.ingest(batch) <repro.stio.dataset.StDataset.ingest>`
  appends each micro-batch as its own T-STR-fitted blocks and advances a
  persisted watermark in one atomic metadata commit, compacting when a
  rebalance threshold trips;
* **incremental runs** (:mod:`repro.stream.incremental`) —
  :meth:`Pipeline.run_incremental <repro.core.pipeline.Pipeline.run_incremental>`
  executes the batch plan over only new-since-last-run blocks and merges
  their partials into running state, bit-identically to a batch run over
  the union;
* **windowed extractors** (:mod:`repro.stream.windows`) — tumbling and
  sliding flow/speed features whose state survives worker loss through
  :class:`~repro.engine.faults.PipelineCheckpoint`.

See ``docs/streaming.md`` for the worked walkthrough.
"""

from repro.stream.incremental import (
    IncrementalRun,
    StaleStreamStateError,
    StreamState,
)
from repro.stream.ingest import IngestReport, compact_dataset, ingest_batch
from repro.stream.windows import (
    WindowedExtractor,
    WindowedFlowExtractor,
    WindowedSpeedExtractor,
)

__all__ = [
    "IncrementalRun",
    "IngestReport",
    "StaleStreamStateError",
    "StreamState",
    "WindowedExtractor",
    "WindowedFlowExtractor",
    "WindowedSpeedExtractor",
    "compact_dataset",
    "ingest_batch",
]
