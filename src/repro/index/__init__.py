"""Spatial and spatio-temporal indexes.

The index families here back partitioning, regular-structure allocation
and the GeoMesa-like baseline; the system's R-tree — selection's
per-partition indexes, conversion's structure-cell index and map matching's
road-segment index — is the array-packed :class:`repro.columnar.PackedRTree`.

* :class:`STBox` — the N-dimensional box every index and the metadata
  pruning test share.
* :class:`QuadTree` — recursive spatial subdivision, backing the quad-tree
  partitioner of Section 3.1.
* :class:`GridIndex` — regular-grid index implementing the analytic
  index-range shortcut for *regular* structures (Section 4.2).
* :func:`xz2_index` — a simplified XZ2 space-filling-curve key, used by the
  GeoMesa-like baseline's entry-level on-disk index.
"""

from repro.index.boxes import STBox
from repro.index.quadtree import QuadTree
from repro.index.grid import GridIndex
from repro.index.xz2 import xz2_key, xz2_query_ranges

__all__ = [
    "STBox",
    "QuadTree",
    "GridIndex",
    "xz2_key",
    "xz2_query_ranges",
]
