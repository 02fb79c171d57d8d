"""Virtual address layout of the named hypergraph arrays.

Figure 13 lists the arrays the core conveys to ChGraph via memory-mapped
registers: the two CSR directions (``hyperedge_offset`` / ``incident_vertex``
and ``vertex_offset`` / ``incident_hyperedge``), the two value arrays, the
activity bitmap, and the three OAG arrays.  The cache simulator attributes
every access to one of these arrays so Figure 15's breakdown can be
reproduced.
"""

from __future__ import annotations

import enum

__all__ = ["ArrayId", "ARRAY_GROUPS", "MemoryLayout"]


class ArrayId(enum.IntEnum):
    """The ten named arrays of Figure 13 (plus the activity bitmap)."""

    HYPEREDGE_OFFSET = 0
    INCIDENT_VERTEX = 1
    HYPEREDGE_VALUE = 2
    VERTEX_OFFSET = 3
    INCIDENT_HYPEREDGE = 4
    VERTEX_VALUE = 5
    BITMAP = 6
    OAG_OFFSET = 7
    OAG_EDGE = 8
    OAG_WEIGHT = 9


#: Figure 15 groups its breakdown into offset / incident / value / OAG / other.
ARRAY_GROUPS: dict[str, tuple[ArrayId, ...]] = {
    "offset": (ArrayId.HYPEREDGE_OFFSET, ArrayId.VERTEX_OFFSET),
    "incident": (ArrayId.INCIDENT_VERTEX, ArrayId.INCIDENT_HYPEREDGE),
    "value": (ArrayId.HYPEREDGE_VALUE, ArrayId.VERTEX_VALUE),
    "oag": (ArrayId.OAG_OFFSET, ArrayId.OAG_EDGE, ArrayId.OAG_WEIGHT),
    "other": (ArrayId.BITMAP,),
}

#: Element width in bytes per array: ids and offsets are 4 B, values 8 B,
#: bitmap entries are modelled at byte granularity.
ELEMENT_BYTES: dict[ArrayId, int] = {
    ArrayId.HYPEREDGE_OFFSET: 4,
    ArrayId.INCIDENT_VERTEX: 4,
    ArrayId.HYPEREDGE_VALUE: 8,
    ArrayId.VERTEX_OFFSET: 4,
    ArrayId.INCIDENT_HYPEREDGE: 4,
    ArrayId.VERTEX_VALUE: 8,
    ArrayId.BITMAP: 1,
    ArrayId.OAG_OFFSET: 4,
    ArrayId.OAG_EDGE: 4,
    ArrayId.OAG_WEIGHT: 4,
}


class MemoryLayout:
    """Maps ``(array, element index)`` to a byte address.

    Arrays live in disjoint 1 GiB-aligned regions so cache lines never
    straddle two arrays and the owning array of any address is recoverable
    from its high bits.
    """

    _REGION_SHIFT = 30  # 1 GiB per array region

    def __init__(self, line_size: int = 64) -> None:
        if line_size & (line_size - 1):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        # Per-array constants, indexed by int(ArrayId), hoisted out of the
        # hot line_of path: the 1 GiB region bases are line-aligned for any
        # power-of-two line size, so
        #   line_of(a, i) == line_base[a] + (i * elem_bytes[a]) >> shift
        # is exact integer arithmetic, not an approximation.
        self._line_shift = line_size.bit_length() - 1
        self._elem_bytes = [ELEMENT_BYTES[a] for a in ArrayId]
        self._line_base = [
            (int(a) << self._REGION_SHIFT) >> self._line_shift for a in ArrayId
        ]

    def address(self, array: ArrayId, index: int) -> int:
        """Byte address of element ``index`` of ``array``."""
        return (int(array) << self._REGION_SHIFT) + index * ELEMENT_BYTES[array]

    def line_of(self, array: ArrayId, index: int) -> int:
        """Cache-line number of element ``index`` of ``array``."""
        return self._line_base[array] + (
            (index * self._elem_bytes[array]) >> self._line_shift
        )

    def array_of_line(self, line: int) -> ArrayId:
        """Recover the owning array of a cache-line number."""
        return ArrayId((line * self.line_size) >> self._REGION_SHIFT)

