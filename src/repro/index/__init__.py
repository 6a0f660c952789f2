"""Spatial and spatio-temporal indexes.

Three index families back the system, mirroring the paper:

* :class:`RTree` — STR-bulk-loaded, payload-carrying R-tree over
  N-dimensional boxes with k-NN search; the road-segment index of map
  matching.  (Selection's per-partition indexes and conversion's
  structure-cell index are the array-packed
  :class:`repro.columnar.PackedRTree`.)
* :class:`QuadTree` — recursive spatial subdivision, backing the quad-tree
  partitioner of Section 3.1.
* :class:`GridIndex` — regular-grid index implementing the analytic
  index-range shortcut for *regular* structures (Section 4.2).
* :func:`xz2_index` — a simplified XZ2 space-filling-curve key, used by the
  GeoMesa-like baseline's entry-level on-disk index.
"""

from repro.index.boxes import STBox
from repro.index.rtree import RTree
from repro.index.quadtree import QuadTree
from repro.index.grid import GridIndex
from repro.index.xz2 import xz2_key, xz2_query_ranges

__all__ = [
    "STBox",
    "RTree",
    "QuadTree",
    "GridIndex",
    "xz2_key",
    "xz2_query_ranges",
]
