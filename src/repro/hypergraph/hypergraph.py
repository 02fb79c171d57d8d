"""The :class:`Hypergraph` container.

A hypergraph ``G = <V, H>`` is stored in its bipartite representation
(Figure 4 of the paper): a hyperedge-side CSR (``hyperedge_offset`` /
``incident_vertex``) and a vertex-side CSR (``vertex_offset`` /
``incident_hyperedge``).  Value arrays (``hyperedge_value`` /
``vertex_value``) live with the execution engines, not here: the structure
is immutable, values are per-run state.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import HypergraphFormatError
from repro.hypergraph.csr import Csr
from repro.records import Record

__all__ = ["Hypergraph"]


@dataclasses.dataclass
class _Structure(Record):
    """What a :class:`Hypergraph` is made of: the record its npz form
    writes."""

    name: str
    directed: bool
    hyperedges: Csr
    vertices: Csr


class Hypergraph:
    """An undirected hypergraph in bipartite-CSR form.

    Parameters
    ----------
    hyperedges:
        CSR mapping each hyperedge to its incident vertices.
    vertices:
        CSR mapping each vertex to its incident hyperedges.  When omitted it
        is derived by transposing ``hyperedges``.  Unless ``directed``, it
        must be the transpose of ``hyperedges`` (rows may list their members
        in any order) and no row may list a member twice; anything else
        raises :class:`~repro.errors.HypergraphFormatError`.
    name:
        Optional dataset name used in reports.
    """

    __slots__ = ("hyperedges", "vertices", "name", "directed", "_content_hash")

    def __init__(
        self,
        hyperedges: Csr,
        vertices: Csr | None = None,
        name: str = "hypergraph",
        directed: bool = False,
    ) -> None:
        """``directed=True`` marks an *orientation projection* of a directed
        hypergraph (see :mod:`repro.hypergraph.directed`): the two CSR
        directions then describe different incidence relations (a
        hyperedge's head set vs. a vertex's sourced hyperedges), so their
        entry counts may legitimately differ."""
        if vertices is None:
            vertices = hyperedges.transpose()
        self._validate(hyperedges, vertices, directed)
        self.hyperedges = hyperedges
        self.vertices = vertices
        self.name = name
        self.directed = directed
        self._content_hash: str | None = None

    @staticmethod
    def _validate(hyperedges: Csr, vertices: Csr, directed: bool) -> None:
        if not directed and hyperedges.num_entries != vertices.num_entries:
            raise HypergraphFormatError(
                "hyperedge-side and vertex-side CSRs disagree on the number "
                f"of bipartite edges ({hyperedges.num_entries} vs "
                f"{vertices.num_entries})"
            )
        for csr, ids, kind in (
            (hyperedges, vertices.num_rows, "vertex"),
            (vertices, hyperedges.num_rows, "hyperedge"),
        ):
            if csr.indices.size and not (
                0 <= csr.indices.min() and csr.indices.max() < ids
            ):
                raise HypergraphFormatError(f"incident {kind} id out of range")
        if directed:
            return
        # Both sides as sorted packed (hyperedge, vertex) keys: equal arrays
        # make the vertex side the transpose, whatever order rows list
        # their members in.
        span = max(vertices.num_rows, 1)
        pairs = hyperedges.row_ids() * span + hyperedges.indices
        pairs.sort()
        repeated = np.flatnonzero(pairs[1:] == pairs[:-1])
        if repeated.size:
            hyperedge, vertex = divmod(int(pairs[repeated[0]]), span)
            raise HypergraphFormatError(
                f"hyperedge {hyperedge} lists vertex {vertex} more than once"
            )
        mirrored = vertices.indices * span + vertices.row_ids()
        mirrored.sort()
        if not np.array_equal(pairs, mirrored):
            raise HypergraphFormatError(
                "the vertex-side CSR is not the transpose of the hyperedge side"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_hyperedge_lists(
        cls,
        hyperedge_members: Sequence[Iterable[int]],
        num_vertices: int | None = None,
        name: str = "hypergraph",
    ) -> "Hypergraph":
        """Build from a list of vertex memberships, one per hyperedge."""
        members = [sorted(set(int(v) for v in h)) for h in hyperedge_members]
        for h in members:
            if h and h[0] < 0:
                raise HypergraphFormatError("vertex ids must be non-negative")
        hyperedge_csr = Csr.from_lists(members)
        max_seen = int(hyperedge_csr.indices.max()) + 1 if members and any(members) else 0
        if num_vertices is None:
            num_vertices = max_seen
        elif num_vertices < max_seen:
            raise HypergraphFormatError(
                f"num_vertices={num_vertices} smaller than max vertex id + 1"
            )
        vertex_csr = hyperedge_csr.transpose(num_cols=num_vertices)
        return cls(hyperedge_csr, vertex_csr, name=name)

    def to_npz(self, header: dict[str, Any]) -> bytes:
        """The npz form (:meth:`repro.records.Record.to_npz`) of the name,
        the ``directed`` flag and both CSR sides, under ``header``."""
        return _Structure(
            self.name, self.directed, self.hyperedges, self.vertices
        ).to_npz(header)

    @classmethod
    def from_npz(cls, payload: bytes, header: dict[str, Any]) -> "Hypergraph":
        """The hypergraph :meth:`to_npz` wrote under ``header``, validated
        as any other: raises :class:`~repro.errors.ConfigurationError` or
        :class:`~repro.errors.HypergraphFormatError` on a malformed
        payload."""
        structure = _Structure.from_npz(payload, header)
        return cls(
            structure.hyperedges,
            structure.vertices,
            name=structure.name,
            directed=structure.directed,
        )

    # -- basic queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.num_rows

    @property
    def num_hyperedges(self) -> int:
        return self.hyperedges.num_rows

    @property
    def num_bipartite_edges(self) -> int:
        """``#BEdges`` in Table II: incidences in the bipartite graph."""
        return self.hyperedges.num_entries

    def hyperedge_degree(self, h: int) -> int:
        """``deg(h)``: the number of vertices incident to hyperedge ``h``."""
        return self.hyperedges.degrees_list()[h]

    def vertex_degree(self, v: int) -> int:
        """``deg(v)``: the number of hyperedges incident to vertex ``v``."""
        return self.vertices.degrees_list()[v]

    def incident_vertices(self, h: int) -> np.ndarray:
        """``N(h)``: the vertices connected by hyperedge ``h``."""
        return self.hyperedges.neighbors(h)

    def incident_hyperedges(self, v: int) -> np.ndarray:
        """``N(v)``: the hyperedges containing vertex ``v``."""
        return self.vertices.neighbors(v)

    def content_hash(self) -> str:
        """Stable sha256 hex digest of the structural payload.

        Covers both CSR directions and the ``directed`` flag — not the
        ``name`` — so it is the identity artifact caches key on
        (:mod:`repro.store`).  The structure is immutable, hence the digest
        is computed once and memoized.
        """
        if self._content_hash is None:
            from repro.store.keys import hypergraph_content_hash

            self._content_hash = hypergraph_content_hash(self)
        return self._content_hash

    def hyperedges_overlap(self, h1: int, h2: int) -> bool:
        """Whether two hyperedges share at least one vertex."""
        a = set(map(int, self.incident_vertices(h1)))
        return any(int(v) in a for v in self.incident_vertices(h2))

    def vertices_overlap(self, v1: int, v2: int) -> bool:
        """Whether two vertices are connected by at least one hyperedge."""
        a = set(map(int, self.incident_hyperedges(v1)))
        return any(int(h) in a for h in self.incident_hyperedges(v2))

    # -- derived views -------------------------------------------------------

    def side(self, which: str) -> Csr:
        """Return the CSR for ``"hyperedge"`` or ``"vertex"`` traversal.

        ``side("hyperedge")`` maps hyperedges to incident vertices; it is the
        structure walked during *vertex computation* (active hyperedges push
        to vertices), and vice versa.
        """
        if which == "hyperedge":
            return self.hyperedges
        if which == "vertex":
            return self.vertices
        raise ValueError(f"unknown side {which!r}; expected 'hyperedge' or 'vertex'")

    def clique_expansion(self) -> list[tuple[int, int]]:
        """Clique-expanded edge list (Figure 4(a)); quadratic, small inputs only."""
        edges: set[tuple[int, int]] = set()
        for h in range(self.num_hyperedges):
            members = [int(v) for v in self.incident_vertices(h)]
            for i, u in enumerate(members):
                for w in members[i + 1 :]:
                    edges.add((min(u, w), max(u, w)))
        return sorted(edges)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the bipartite CSR structure.

        Matches the accounting used for the "Size" column of Table II:
        4-byte ids for both CSR directions plus 8-byte value slots.
        """
        id_bytes = 4
        value_bytes = 8
        structure = id_bytes * (
            (self.num_hyperedges + 1)
            + (self.num_vertices + 1)
            + 2 * self.num_bipartite_edges
        )
        values = value_bytes * (self.num_hyperedges + self.num_vertices)
        return structure + values

    def __repr__(self) -> str:
        return (
            f"Hypergraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|H|={self.num_hyperedges}, #BEdges={self.num_bipartite_edges})"
        )
