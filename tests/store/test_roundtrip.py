"""Serialization round-trips are bit-identical, and loads are trustworthy:
a run with loaded resources equals a run with freshly built ones."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.engine import ChGraphEngine, GlaResources
from repro.engine.result import RunResult
from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem
from repro.sim.system import SimulatedSystem
from repro.store import ArtifactStore, SerializationError
from repro.store.serialize import (
    resources_from_bytes,
    resources_to_bytes,
    run_result_from_json,
    run_result_to_json,
)


def make_system() -> SimulatedSystem:
    return SimulatedSystem(scaled_config(num_cores=4, llc_kb=2))


def _assert_identical(built: GlaResources, loaded: GlaResources) -> None:
    assert loaded.num_cores == built.num_cores
    assert loaded.w_min == built.w_min
    assert loaded.d_max == built.d_max
    assert loaded.build_operations == built.build_operations
    assert loaded.storage_bytes() == built.storage_bytes()
    for a, b in zip(
        (*built.vertex_oags, *built.hyperedge_oags),
        (*loaded.vertex_oags, *loaded.hyperedge_oags),
        strict=True,
    ):
        assert a.side == b.side
        assert a.first_id == b.first_id
        assert a.w_min == b.w_min
        assert a.build_operations == b.build_operations
        assert np.array_equal(a.csr.offsets, b.csr.offsets)
        assert np.array_equal(a.csr.indices, b.csr.indices)
        assert np.array_equal(a.csr.weights, b.csr.weights)
        assert b.is_weight_descending() == a.is_weight_descending()


def test_resources_bytes_roundtrip(small_hypergraph):
    built = GlaResources.build(small_hypergraph, 4)
    _assert_identical(built, resources_from_bytes(resources_to_bytes(built)))


def test_two_builds_serialize_to_identical_bytes(small_hypergraph):
    """An artifact is a function of its input alone: no host time rides in
    the content-addressed payload."""
    first = resources_to_bytes(GlaResources.build(small_hypergraph, 4))
    second = resources_to_bytes(GlaResources.build(small_hypergraph, 4))
    assert first == second


def test_payload_with_build_seconds_still_loads(small_hypergraph):
    """Older artifacts carry ``build_seconds`` entries in their metadata;
    the loader ignores them."""
    built = GlaResources.build(small_hypergraph, 4)
    npz = np.load(io.BytesIO(resources_to_bytes(built)))
    arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["build_seconds"] = 0.25
    for oag_meta in (*meta["vertex_oags"], *meta["hyperedge_oags"]):
        oag_meta["build_seconds"] = 0.125
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    _assert_identical(built, resources_from_bytes(buffer.getvalue()))


def test_resources_file_roundtrip(small_hypergraph, tmp_path):
    built = GlaResources.build(small_hypergraph, 3)
    path = tmp_path / "resources.npz"
    built.save(path)
    _assert_identical(built, GlaResources.load(path))


def test_resources_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.npz"
    path.write_bytes(b"not an npz at all")
    with pytest.raises(SerializationError):
        GlaResources.load(path)


def test_loaded_resources_drive_identical_runs(small_hypergraph):
    built = GlaResources.build(small_hypergraph, 4)
    loaded = resources_from_bytes(resources_to_bytes(built))
    fresh = ChGraphEngine(built).run(
        PageRank(iterations=2), small_hypergraph, make_system()
    )
    warmed = ChGraphEngine(loaded).run(
        PageRank(iterations=2), small_hypergraph, make_system()
    )
    assert np.array_equal(fresh.result, warmed.result)
    assert fresh.cycles == warmed.cycles
    assert fresh.dram_accesses == warmed.dram_accesses
    assert fresh.dram_by_array == warmed.dram_by_array


def test_run_result_json_roundtrip(small_hypergraph):
    resources = GlaResources.build(small_hypergraph, 4)
    system = SimulatedSystem(
        scaled_config(num_cores=4, llc_kb=2).replace(track_coherence=True)
    )
    result = ChGraphEngine(resources).run(
        PageRank(iterations=2), small_hypergraph, system
    )
    result.energy = system.energy()
    result.coherence = system.hierarchy.coherence.stats
    text = json.dumps(run_result_to_json(result))
    loaded = run_result_from_json(json.loads(text))
    assert isinstance(loaded, RunResult)
    assert loaded.engine == result.engine
    assert loaded.algorithm == result.algorithm
    assert loaded.dataset == result.dataset
    assert loaded.iterations == result.iterations
    assert loaded.cycles == result.cycles
    assert loaded.compute_cycles == result.compute_cycles
    assert loaded.memory_stall_cycles == result.memory_stall_cycles
    assert loaded.dram_accesses == result.dram_accesses
    assert np.array_equal(loaded.result, result.result)
    assert loaded.result.dtype == result.result.dtype
    assert np.array_equal(loaded.vertex_values, result.vertex_values)
    assert np.array_equal(loaded.hyperedge_values, result.hyperedge_values)
    assert loaded.dram_by_array == result.dram_by_array
    assert all(isinstance(k, ArrayId) for k in loaded.dram_by_array)
    assert loaded.dram_writebacks == result.dram_writebacks
    assert loaded.dram_writebacks_by_array == result.dram_writebacks_by_array
    assert all(
        isinstance(k, ArrayId) for k in loaded.dram_writebacks_by_array
    )
    assert loaded.chain_stats == result.chain_stats
    assert loaded.dram_by_group == result.dram_by_group
    assert loaded.energy == result.energy
    assert loaded.coherence == result.coherence
    assert loaded.coherence.invalidations > 0


def test_profiled_run_result_roundtrips_with_telemetry(small_hypergraph):
    resources = GlaResources.build(small_hypergraph, 4)
    system = InstrumentedSystem.profiled(make_system())
    result = ChGraphEngine(resources).run(
        PageRank(iterations=2), small_hypergraph, system
    )
    assert result.telemetry is not None
    loaded = run_result_from_json(run_result_to_json(result))
    assert loaded.telemetry is not None
    assert loaded.telemetry.to_json() == result.telemetry.to_json()
    assert set(loaded.telemetry.phases) == {"hyperedge", "vertex"}
    restored = loaded.telemetry.phases["hyperedge"]
    original = result.telemetry.phases["hyperedge"]
    assert restored.cycles == original.cycles
    assert restored.dram_by_array == original.dram_by_array
    assert all(isinstance(k, ArrayId) for k in restored.dram_by_array)
    assert loaded.telemetry.fifo == result.telemetry.fifo
    assert (
        loaded.telemetry.mean_frontier_density
        == result.telemetry.mean_frontier_density
    )
    # An unprofiled result still round-trips with telemetry absent.
    plain = ChGraphEngine(resources).run(
        PageRank(iterations=2), small_hypergraph, make_system()
    )
    assert run_result_from_json(run_result_to_json(plain)).telemetry is None


def test_run_result_schema_mismatch_rejected():
    with pytest.raises(SerializationError):
        run_result_from_json({"schema": -1, "kind": "run_result"})
    with pytest.raises(SerializationError):
        run_result_from_json({"schema": 1, "kind": "something_else"})


def test_store_typed_helpers_survive_corrupt_decodes(small_hypergraph, tmp_path):
    """A payload whose checksum passes but whose content is junk still
    degrades to a miss (rebuild), never an exception."""
    store = ArtifactStore(tmp_path)
    store.put_bytes("resources", "bad", b"checksummed but not an npz")
    assert store.get_resources("bad") is None
    assert store.stats.corruptions == 1
    store.put_bytes("results", "bad", b"checksummed but not json")
    assert store.get_run_result("bad") is None
    assert store.stats.corruptions == 2
    assert store.stats.hits == 0
