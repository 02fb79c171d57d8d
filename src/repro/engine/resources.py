"""Preprocessing artifacts shared by the GLA engines.

Both the software GLA engine and ChGraph consume per-chunk OAGs for each
side.  Building them is the paper's extra preprocessing step (Figure 21);
the artifacts are reusable across algorithms, which is how the paper argues
the overhead amortises.  :meth:`GlaResources.build_or_load` extends that
amortization across processes via the persistent :mod:`repro.store`.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING

from repro.core.chain import DEFAULT_D_MAX
from repro.core.oag import DEFAULT_W_MIN, Oag, build_chunk_oags
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.partition import contiguous_chunks
from repro.records import Record

if TYPE_CHECKING:
    from repro.hypergraph.pipeline import PreprocessSpec
    from repro.store.store import ArtifactStore

__all__ = ["GlaResources"]


@dataclasses.dataclass
class GlaResources(Record):
    """Per-chunk V-OAGs and H-OAGs plus preprocessing accounting."""

    num_cores: int
    w_min: int
    d_max: int
    vertex_oags: list[Oag]
    hyperedge_oags: list[Oag]
    build_operations: int

    @classmethod
    def build(
        cls,
        hypergraph: Hypergraph,
        num_cores: int,
        w_min: int = DEFAULT_W_MIN,
        d_max: int = DEFAULT_D_MAX,
    ) -> "GlaResources":
        """Construct both sides' chunk OAGs for an ``num_cores``-way run."""
        vertex_chunks = contiguous_chunks(hypergraph.num_vertices, num_cores)
        hyperedge_chunks = contiguous_chunks(hypergraph.num_hyperedges, num_cores)
        vertex_oags = build_chunk_oags(hypergraph, "vertex", vertex_chunks, w_min)
        hyperedge_oags = build_chunk_oags(
            hypergraph, "hyperedge", hyperedge_chunks, w_min
        )
        operations = sum(
            oag.build_operations for oag in (*vertex_oags, *hyperedge_oags)
        )
        return cls(
            num_cores=num_cores,
            w_min=w_min,
            d_max=d_max,
            vertex_oags=vertex_oags,
            hyperedge_oags=hyperedge_oags,
            build_operations=operations,
        )

    @classmethod
    def build_or_load(
        cls,
        hypergraph: Hypergraph,
        num_cores: int,
        store: "ArtifactStore | None" = None,
        preprocessing: "PreprocessSpec | None" = None,
    ) -> "GlaResources":
        """:meth:`build`, persisted through an artifact ``store``.

        ``preprocessing`` (a
        :class:`~repro.hypergraph.pipeline.PreprocessSpec`, default the
        paper's parameters) supplies ``w_min``/``d_max``, and its full record
        — including the stage list that produced ``hypergraph`` — is hashed
        into the store key, so artifacts can never alias across pipelines.

        With ``store`` (an :class:`~repro.store.ArtifactStore`), the
        content-addressed entry for this hypergraph + preprocessing
        combination is loaded when present and bit-identical to a fresh
        build; on a miss — including checksum or schema failures, which the
        store reports as misses — the resources are built and written back.
        ``store=None`` degrades to a plain build.
        """
        from repro.hypergraph.pipeline import PreprocessSpec

        if preprocessing is None:
            preprocessing = PreprocessSpec()
        w_min, d_max = preprocessing.w_min, preprocessing.d_max
        if store is None:
            return cls.build(hypergraph, num_cores, w_min=w_min, d_max=d_max)
        from repro.store.keys import resources_key

        key = resources_key(hypergraph.content_hash(), num_cores, preprocessing)
        resources = store.get_resources(key)
        if resources is None:
            resources = cls.build(hypergraph, num_cores, w_min=w_min, d_max=d_max)
            store.put_resources(key, resources)
        return resources

    def save(self, path: str | os.PathLike) -> None:
        """Write the npz artifact payload to ``path`` (no store manifest)."""
        from repro.store.serialize import resources_to_bytes

        with open(path, "wb") as fh:
            fh.write(resources_to_bytes(self))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "GlaResources":
        """Inverse of :meth:`save`; raises
        :class:`~repro.store.SerializationError` on a malformed payload."""
        from repro.store.serialize import resources_from_bytes

        with open(path, "rb") as fh:
            return resources_from_bytes(fh.read())

    def oags_for(self, src_side: str) -> list[Oag]:
        """The per-chunk OAGs for the side a phase schedules."""
        if src_side == "vertex":
            return self.vertex_oags
        if src_side == "hyperedge":
            return self.hyperedge_oags
        raise ValueError(f"unknown side {src_side!r}")

    def storage_bytes(self) -> int:
        """Extra storage the OAGs add over the plain bipartite CSR (Fig 21b)."""
        return sum(
            oag.storage_bytes() for oag in (*self.vertex_oags, *self.hyperedge_oags)
        )

    def edge_position_bases(self, src_side: str) -> list[int]:
        """Address base (in OAG_edge element slots) of each chunk's edges.

        Chunk OAGs are separate structures laid out back to back in the
        OAG_edge / OAG_weight regions; these bases keep their address ranges
        disjoint in the simulated layout.
        """
        bases = []
        total = 0
        for oag in self.oags_for(src_side):
            bases.append(total)
            total += oag.num_edges
        return bases
