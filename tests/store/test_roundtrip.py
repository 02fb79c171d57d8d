"""Serialization round-trips are bit-identical, and loads are trustworthy:
a run with loaded resources equals a run with freshly built ones."""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.oag import Oag
from repro.engine import ChGraphEngine, GlaResources
from repro.engine.result import RunResult
from repro.harness.datasets import hypergraph_dataset
from repro.hypergraph.csr import Csr
from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem
from repro.sim.system import SimulatedSystem
from repro.store import ArtifactStore, SerializationError
from repro.store.keys import STORE_SCHEMA_VERSION, resources_key
from repro.store.serialize import (
    decode,
    encode,
    run_result_from_json,
    run_result_to_json,
)
from tests.test_records import MAGIC, RESULT


def resources_to_bytes(resources: GlaResources) -> bytes:
    return b"".join(encode("resources", resources))


def resources_from_bytes(payload: bytes) -> GlaResources:
    return decode("resources", payload)


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
        for name in ("offsets", "indices", "weights"):
            built_array, loaded_array = getattr(a.csr, name), getattr(b.csr, name)
            assert np.array_equal(built_array, loaded_array)
            assert built_array.dtype == loaded_array.dtype
        assert b.is_weight_descending() == a.is_weight_descending()


def test_resources_bytes_roundtrip(small_hypergraph):
    for cores in (1, 4, 16):
        built = GlaResources.build(small_hypergraph, cores)
        _assert_identical(built, resources_from_bytes(resources_to_bytes(built)))
    # At 16 cores some chunk's OAG has no edges: its arrays are empty slices.
    assert min(oag.num_edges for oag in built.hyperedge_oags) == 0


def test_two_builds_serialize_to_identical_bytes(small_hypergraph):
    """An artifact is a function of its input alone: no host time rides in
    the content-addressed payload."""
    first = resources_to_bytes(GlaResources.build(small_hypergraph, 4))
    second = resources_to_bytes(GlaResources.build(small_hypergraph, 4))
    assert first == second


def _per_side_payload(resources: GlaResources) -> bytes:
    """``resources`` as schema-6 stores held it before the pooled layout:
    three flat members per side and a hand-listed ``meta``."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "schema": 6, "kind": "gla_resources", "num_cores": resources.num_cores,
        "w_min": resources.w_min, "d_max": resources.d_max,
        "build_operations": resources.build_operations,
    }
    for prefix, side in (("v", "vertex"), ("h", "hyperedge")):
        oags = resources.oags_for(side)
        for name in ("offsets", "indices", "weights"):
            arrays[f"{prefix}_{name}"] = np.concatenate(
                [getattr(oag.csr, name) for oag in oags]
            )
        meta[f"{side}_oags"] = [
            {"side": oag.side, "w_min": oag.w_min, "first_id": oag.first_id,
             "build_operations": oag.build_operations, "has_weights": True,
             "num_nodes": oag.num_nodes, "num_edges": oag.num_edges}
            for oag in oags
        ]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def test_a_payload_in_the_per_side_layout_is_a_miss_and_rebuilt(
    small_hypergraph, tmp_path
):
    store = ArtifactStore(tmp_path)
    built = GlaResources.build(small_hypergraph, 4)
    key = resources_key(small_hypergraph.content_hash(), 4)
    store.put_bytes("resources", key, _per_side_payload(built))
    rebuilt = GlaResources.build_or_load(small_hypergraph, 4, store=store)
    _assert_identical(built, rebuilt)
    stats = store.stats
    assert (stats.hits, stats.misses, stats.corruptions, stats.writes) == (0, 1, 1, 2)
    _assert_identical(built, store.get_resources(key))
    assert store.stats.hits == 1


def _one_oag(csr: Csr | None = None, num_cores: object = 1) -> bytes:
    """The payload of a resource set with one vertex OAG over ``csr``."""
    csr = csr or Csr.from_lists([[0]], weights=[[1]])
    return resources_to_bytes(GlaResources(
        num_cores=num_cores, w_min=1, d_max=4,
        vertex_oags=[Oag("vertex", csr, w_min=1)], hyperedge_oags=[],
        build_operations=0,
    ))


def _framed(meta: bytes) -> bytes:
    """A raw payload of the meta text ``meta`` and no pools."""
    payload = MAGIC + len(meta).to_bytes(8, "little") + meta
    return payload + bytes(-len(payload) % 8)


def _meta_a_list() -> bytes:
    return _framed(b"[7]")


def _offsets_past_indices() -> bytes:
    csr = Csr.from_lists([[0]], weights=[[1]])
    csr.offsets = np.array([0, 5])  # a built Csr is checked: break it after
    return _one_oag(csr)


MALFORMED = {
    "meta-a-list": _meta_a_list,
    "offsets-past-indices": _offsets_past_indices,
    "num-cores-a-string": lambda: _one_oag(num_cores="x"),
    "truncated": lambda: _one_oag()[:200],
    "empty": lambda: b"",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_payload_is_a_serialization_error_and_a_miss(case, tmp_path):
    payload = MALFORMED[case]()
    path = tmp_path / "resources.rec"
    path.write_bytes(payload)
    with pytest.raises(SerializationError):
        GlaResources.load(path)
    store = ArtifactStore(tmp_path / "store")
    store.put_bytes("resources", "k", payload)
    assert store.get_resources("k") is None
    stats = store.stats
    assert (stats.hits, stats.misses, stats.corruptions) == (0, 1, 1)


def test_resources_file_roundtrip(small_hypergraph, tmp_path):
    built = GlaResources.build(small_hypergraph, 3)
    path = tmp_path / "resources.rec"
    built.save(path)
    _assert_identical(built, GlaResources.load(path))


def test_resources_load_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.rec"
    path.write_bytes(b"not a raw record at all")
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
    store.put_bytes("resources", "bad", b"checksummed but not a raw record")
    assert store.get_resources("bad") is None
    assert store.stats.corruptions == 1
    store.put_bytes("results", "bad", b"checksummed but not a raw record")
    assert store.get_run_result("bad") is None
    assert store.stats.corruptions == 2
    assert store.stats.hits == 0


def _result_payload() -> bytes:
    return b"".join(encode("results", RESULT))


def _with_table(table: object) -> bytes:
    header = {"schema": STORE_SCHEMA_VERSION, "kind": "run_result"}
    return _framed(json.dumps({**header, "record": {}, "pools": table}).encode())


def _v6_result() -> bytes:
    return json.dumps({**run_result_to_json(RESULT), "schema": 6}).encode()


NOT_RAW = {
    "bad-magic": lambda: b"R" + _result_payload()[1:],
    "meta-past-the-end": lambda: (
        MAGIC + (1 << 40).to_bytes(8, "little") + _result_payload()[24:]
    ),
    "pool-past-the-end": lambda: _result_payload()[:-8],
    "trailing-bytes": lambda: _result_payload() + bytes(8),
    "pool-table-a-list": lambda: _with_table([["int64", 0]]),
    "pool-size-negative": lambda: _with_table({"int64": -8}),
    "pool-size-a-string": lambda: _with_table({"int64": "0"}),
    "object-dtype": lambda: _with_table({"object": 0}),
    "complex-dtype": lambda: _with_table({"complex128": 0}),
    "v6-json": _v6_result,
}


@pytest.mark.parametrize("case", NOT_RAW)
def test_a_payload_not_in_the_raw_form_is_a_miss(case, tmp_path):
    """Every malformed frame is a ``SerializationError``, so the store
    reads it as one corruption and a miss, never raises, never unpickles."""
    store = ArtifactStore(tmp_path)
    store.put_bytes("results", "k", NOT_RAW[case]())
    assert store.get_run_result("k") is None
    stats = store.stats
    assert (stats.hits, stats.misses, stats.corruptions) == (0, 1, 1)


def test_a_v6_npz_payload_is_a_miss(small_hypergraph, tmp_path):
    store = ArtifactStore(tmp_path)
    built = GlaResources.build(small_hypergraph, 4)
    store.put_bytes("resources", "k", _per_side_payload(built))
    assert store.get_resources("k") is None
    stats = store.stats
    assert (stats.hits, stats.misses, stats.corruptions) == (0, 1, 1)


def test_a_run_result_round_trips_through_the_store(tmp_path):
    """Telemetry, energy and coherence included, a stored result reads
    back with its wire JSON unchanged, and it is stored raw, not as JSON."""
    assert RESULT.telemetry and RESULT.energy and RESULT.coherence
    store = ArtifactStore(tmp_path)
    path = store.put_run_result("k", RESULT)
    assert path.name == "k.rec"
    assert path.read_bytes().startswith(MAGIC)
    loaded = store.get_run_result("k")
    assert json.dumps(run_result_to_json(loaded)) == json.dumps(
        run_result_to_json(RESULT)
    )
    assert loaded.vertex_values.dtype == np.float32


def test_loaded_arrays_are_read_only(small_hypergraph, tmp_path):
    """Every stored kind reads back as views of its payload, which nothing
    may write through."""
    store = ArtifactStore(tmp_path)
    store.put_dataset("d", small_hypergraph)
    store.put_resources("r", GlaResources.build(small_hypergraph, 4))
    store.put_run_result("x", RESULT)
    dataset = store.get_dataset("d")
    resources = store.get_resources("r")
    result = store.get_run_result("x")
    arrays = [
        getattr(csr, name)
        for csr in (
            dataset.hyperedges, dataset.vertices,
            *(oag.csr for oag in (*resources.vertex_oags, *resources.hyperedge_oags)),
        )
        for name in ("offsets", "indices", "weights")
        if getattr(csr, name) is not None
    ]
    arrays += [result.result, result.vertex_values, result.hyperedge_values]
    assert len(arrays) == 4 + 3 * 8 + 3
    assert not any(array.flags.writeable for array in arrays)


def test_a_resources_write_holds_no_joined_payload(tmp_path):
    """A write streams the payload part by part into its file: its peak
    memory stays under half the payload, which a joined copy would not."""
    resources = GlaResources.build(hypergraph_dataset("OK"), 16)
    store = ArtifactStore(tmp_path)
    store.put_resources("warm-up", resources)
    tracemalloc.start()
    try:
        path = store.put_resources("k", resources)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 100_000
    assert peak < size / 2, f"peak {peak} B for a {size} B payload"
