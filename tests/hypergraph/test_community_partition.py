"""Tests for overlap-aware partitioning (renumbering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chain import ChainGenerator
from repro.core.oag import build_chunk_oags
from repro.harness.runner import Runner
from repro.harness.spec import RunSpec
from repro.hypergraph.community_partition import overlap_aware_renumber
from repro.hypergraph.partition import contiguous_chunks
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.sim.config import scaled_config


def test_permutations_are_bijections(small_hypergraph):
    part = overlap_aware_renumber(small_hypergraph, side="both")
    assert sorted(part.hyperedge_perm) == list(range(small_hypergraph.num_hyperedges))
    assert sorted(part.vertex_perm) == list(range(small_hypergraph.num_vertices))


def test_structure_preserved(small_hypergraph):
    part = overlap_aware_renumber(small_hypergraph, side="both")
    renamed = part.hypergraph
    assert renamed.num_vertices == small_hypergraph.num_vertices
    assert renamed.num_hyperedges == small_hypergraph.num_hyperedges
    assert renamed.num_bipartite_edges == small_hypergraph.num_bipartite_edges
    # Hyperedge h maps to hyperedge_perm[h] with permuted members.
    for old_h in range(small_hypergraph.num_hyperedges):
        new_h = int(part.hyperedge_perm[old_h])
        expected = sorted(
            int(part.vertex_perm[v])
            for v in small_hypergraph.incident_vertices(old_h)
        )
        assert expected == list(renamed.incident_vertices(new_h))


def test_hyperedge_only_keeps_vertices(small_hypergraph):
    part = overlap_aware_renumber(small_hypergraph, side="hyperedge")
    assert np.array_equal(
        part.vertex_perm, np.arange(small_hypergraph.num_vertices)
    )


def test_unknown_side(small_hypergraph):
    with pytest.raises(ValueError):
        overlap_aware_renumber(small_hypergraph, side="nope")


def test_restore_vertex_order(small_hypergraph, monkeypatch):
    """As the ``overlap-renumber`` pipeline stage, the runner maps results
    on the renumbered hypergraph back to the original vertex ids."""
    runner = Runner(pr_iterations=3, cache_dir=None)
    monkeypatch.setattr(runner, "dataset", lambda key: small_hypergraph)
    config = scaled_config(num_cores=4, llc_kb=2)
    renumber = PreprocessSpec(stages=(StageSpec.make("overlap-renumber"),))
    original = runner.run(RunSpec("Hygra", "PR", "small", config))
    renamed = runner.run(
        RunSpec("Hygra", "PR", "small", config, preprocessing=renumber)
    )
    assert np.allclose(renamed.result, original.result)


def test_renumbering_densifies_chunk_oags(small_hypergraph):
    """The point of the exercise: per-chunk OAGs keep more overlap edges."""
    num_chunks = 8

    def chunk_edge_total(hypergraph):
        chunks = contiguous_chunks(hypergraph.num_hyperedges, num_chunks)
        oags = build_chunk_oags(hypergraph, "hyperedge", chunks, w_min=1)
        return sum(oag.num_edges for oag in oags)

    part = overlap_aware_renumber(small_hypergraph, side="hyperedge")
    assert chunk_edge_total(part.hypergraph) >= chunk_edge_total(small_hypergraph)


def test_renumbering_lengthens_chunk_chains(small_hypergraph):
    num_chunks = 8
    generator = ChainGenerator()

    def mean_chain_length(hypergraph):
        chunks = contiguous_chunks(hypergraph.num_hyperedges, num_chunks)
        oags = build_chunk_oags(hypergraph, "hyperedge", chunks, w_min=1)
        lengths = []
        for chunk, oag in zip(chunks, oags):
            chains = generator.generate(np.ones(len(chunk), dtype=bool), oag)
            lengths.append(chains.mean_length)
        return float(np.mean(lengths))

    part = overlap_aware_renumber(small_hypergraph, side="hyperedge")
    assert mean_chain_length(part.hypergraph) >= mean_chain_length(small_hypergraph)
