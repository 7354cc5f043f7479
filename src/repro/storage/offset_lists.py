"""Offset lists: the space-efficient payload of secondary A+ indexes.

A list bound to vertex ``v`` in a secondary vertex-partitioned index is a
subset of ``v``'s ID list in the primary index; a list bound to edge
``e = (vs, vd)`` in an edge-partitioned index is a subset of ``vs``'s or
``vd``'s primary list.  Because the ID lists of each vertex are contiguous in
the primary index's CSR, an indexed edge can be identified by a single small
*offset* into the appropriate primary list instead of by an 8-byte edge ID
plus a 4-byte neighbour ID (Section III-B3).

Physically (Section IV-B), offsets are fixed-length and grouped into pages of
64 bound elements; the width of every offset in a page is the number of bytes
needed by the largest offset occurring in that page (i.e. the logarithm of the
length of the longest primary list among those 64 elements, rounded up to the
next byte).  This module keeps the offsets in a flat int32 array for fast
access and separately computes the byte-accurate memory charge implied by the
paged fixed-width layout.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.types import PAGE_SIZE


def bytes_needed_many(max_offsets: np.ndarray) -> np.ndarray:
    """Vectorized :func:`bytes_needed` over an array of per-page maxima.

    The single definition of the paged offset width: the scalar helper and
    the paged accounting both derive from this threshold ladder.
    """
    maxima = np.asarray(max_offsets, dtype=np.int64)
    widths = np.ones(len(maxima), dtype=np.int64)
    limit = 1 << 8
    while True:
        above = maxima >= limit
        if not above.any():
            break
        widths[above] += 1
        limit <<= 8
    return widths


def bytes_needed(max_offset: int) -> int:
    """Number of bytes needed to store offsets up to ``max_offset``.

    Always at least 1; 255 fits in one byte, 65535 in two, and so on.
    """
    return int(bytes_needed_many(np.asarray([max_offset]))[0])


class OffsetLists:
    """Flat offset array plus paged byte-width accounting.

    Args:
        offsets: int array of list-relative offsets, one per indexed edge, in
            index position order (already permuted by the owning CSR).
        bound_of_entry: int array of the same length giving the bound element
            ID of each entry; used only to group entries into pages of
            ``PAGE_SIZE`` bound elements for the byte-width computation.
    """

    def __init__(self, offsets: np.ndarray, bound_of_entry: np.ndarray) -> None:
        if len(offsets) != len(bound_of_entry):
            raise ValueError("offsets and bound_of_entry must have equal length")
        self.offsets = np.asarray(offsets, dtype=np.int32)
        self._bound_of_entry = np.asarray(bound_of_entry, dtype=np.int64)
        self._nbytes = self._compute_paged_bytes()

    def _compute_paged_bytes(self) -> int:
        """Memory charge of the paged fixed-width offset layout.

        Entries arrive grouped by bound element (CSR order), so page IDs are
        non-decreasing: per-page maxima reduce over contiguous runs
        (``np.maximum.reduceat``) and the byte width per page is a small
        threshold ladder — no Python loop over pages.
        """
        if len(self.offsets) == 0:
            return 0
        pages = self._bound_of_entry // PAGE_SIZE
        changes = np.nonzero(pages[1:] != pages[:-1])[0] + 1
        starts = np.concatenate([[0], changes])
        sizes = np.diff(np.concatenate([starts, [len(self.offsets)]]))
        maxima = np.maximum.reduceat(self.offsets.astype(np.int64), starts)
        return int((bytes_needed_many(maxima) * sizes).sum())

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def bound_of_entry(self) -> np.ndarray:
        """Bound element ID of every entry, in index position order.

        Exposed for the incremental maintenance merge, which resolves the
        surviving entries' primary positions per bound element.
        """
        return self._bound_of_entry

    def slice(self, start: int, end: int) -> np.ndarray:
        """Return the offsets for a CSR group range."""
        return self.offsets[start:end]

    def resolve(
        self,
        start: int,
        end: int,
        primary_list_start: int,
        primary_edge_ids: np.ndarray,
        primary_nbr_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dereference a group range into (edge IDs, neighbour IDs).

        Args:
            start, end: CSR group range in this offset-list index.
            primary_list_start: start position of the bound element's ID list
                in the primary index (offsets are relative to it).
            primary_edge_ids / primary_nbr_ids: the primary index's ID lists.

        Returns:
            ``(edge_ids, nbr_ids)`` arrays for the indexed edges, in this
            index's sort order.
        """
        positions = primary_list_start + self.offsets[start:end].astype(np.int64)
        return primary_edge_ids[positions], primary_nbr_ids[positions]

    def resolve_many(
        self,
        positions: np.ndarray,
        primary_list_starts: np.ndarray,
        counts: np.ndarray,
        primary_edge_ids: np.ndarray,
        primary_nbr_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`resolve`: dereference many group ranges at once.

        Args:
            positions: flat gather-index into this offset-list index, as
                produced by :meth:`~repro.storage.csr.NestedCSR.gather`.
            primary_list_starts: per-row start position of each bound
                element's ID list in the primary index.
            counts: per-row entry counts aligning ``positions`` with
                ``primary_list_starts`` (``len(positions) == counts.sum()``).
            primary_edge_ids / primary_nbr_ids: the primary index's ID lists.

        Returns:
            ``(edge_ids, nbr_ids)`` for all rows concatenated, equal to
            concatenating :meth:`resolve` over the rows.
        """
        return self.resolve_at(
            positions,
            np.repeat(np.asarray(primary_list_starts, dtype=np.int64), counts),
            primary_edge_ids,
            primary_nbr_ids,
        )

    def resolve_at(
        self,
        positions: np.ndarray,
        list_starts: np.ndarray,
        primary_edge_ids: np.ndarray,
        primary_nbr_ids: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dereference single positions, each against its own list start.

        ``list_starts[i]`` is the primary list start of the bound element
        owning ``positions[i]`` — what a bisection reads at the one position
        per list it probes, without resolving the rest of the list.
        """
        flat = list_starts + self.offsets[positions].astype(np.int64)
        return primary_edge_ids[flat], primary_nbr_ids[flat]

    def nbytes(self) -> int:
        """Bytes charged for the offsets under the paged fixed-width layout."""
        return self._nbytes
