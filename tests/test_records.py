"""The record codec: every record's JSON round trip and the field rule."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.core.oag import Oag
from repro.engine.resources import GlaResources
from repro.engine.result import RunResult
from repro.errors import ConfigurationError
from repro.harness.spec import RunSpec
from repro.hypergraph.csr import Csr
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.service import JobRequest
from repro.sim.coherence import CoherenceStats
from repro.sim.config import SystemConfig, scaled_config
from repro.sim.energy import EnergyReport
from repro.sim.layout import ArrayId
from repro.sim.telemetry import (
    IterationProfile,
    PhaseProfile,
    PhaseSample,
    RunTelemetry,
)
from repro.store.keys import STORE_SCHEMA_VERSION
from repro.store.serialize import run_result_from_json, run_result_to_json

CONFIG = scaled_config(num_cores=4, llc_kb=2).replace(
    track_coherence=True, mlp=3.5
)
PREPROCESS = PreprocessSpec(
    w_min=5, d_max=8,
    stages=(StageSpec("identity"), StageSpec("locality-reorder")),
)
SPEC = RunSpec(
    "ChGraph", "PR", "WEB", config=CONFIG, pr_iterations=3,
    profile=True, check=True, preprocessing=PREPROCESS,
)
SAMPLE = PhaseSample(
    phase="vertex", frontier_size=12, frontier_density=0.25,
    cycles=1234.5, dram_accesses=7,
)
PROFILE = PhaseProfile(
    phase="vertex", activations=2, cycles=2469.0, compute_cycles=100.5,
    memory_latency=88.25, engine_cycles=12.0,
    accesses={"demand": 40, "engine": 3}, dram_accesses=14,
    dram_by_array={ArrayId.VERTEX_VALUE: 9, ArrayId.OAG_EDGE: 5},
    dram_writebacks=2,
)
ITERATION = IterationProfile(iteration=0, phases=[SAMPLE, SAMPLE])
TELEMETRY = RunTelemetry(
    phases={"vertex": PROFILE},
    iterations=[ITERATION],
    chain_stats={"chains": 4.0, "generations": 2.0},
    fifo={"chain_fifo_depth": 32.0},
    violations=["at most one owner"],
)
ENERGY = EnergyReport(
    l1_nj=1.5, l2_nj=2.25, l3_nj=3.0, dram_nj=40.0, core_nj=7.75,
    dram_write_nj=0.5,
)
COHERENCE = CoherenceStats(
    invalidations=3, downgrades=1, ownership_transfers=4,
    read_misses_served_remote=2,
)
RESULT = RunResult(
    engine="ChGraph", algorithm="PR", dataset="WEB",
    result=np.array([0.5, 0.25, 0.25]),
    vertex_values=np.array([0.5, 0.25, 0.25], dtype=np.float32),
    hyperedge_values=np.array([1, 2], dtype=np.int64),
    iterations=3, cycles=9876.5, compute_cycles=1234.0,
    memory_stall_cycles=8642.5, dram_accesses=20,
    dram_by_array={ArrayId.VERTEX_VALUE: 12, ArrayId.HYPEREDGE_VALUE: 8},
    dram_writebacks=3,
    dram_writebacks_by_array={ArrayId.VERTEX_VALUE: 3},
    chain_stats={"chains": 4.0},
    telemetry=TELEMETRY, energy=ENERGY, coherence=COHERENCE,
)

CSR = Csr(
    np.array([0, 2, 2, 3]), np.array([1, 2, 0]), np.array([0.5, 0.25, 1.0])
)
OAG = Oag("vertex", Csr.from_lists([[1], [0]], weights=[[4], [4]]), w_min=3,
          first_id=8, build_operations=11)
RESOURCES = GlaResources(
    num_cores=2, w_min=3, d_max=16, vertex_oags=[OAG, OAG],
    hyperedge_oags=[dataclasses.replace(OAG, side="hyperedge")],
    build_operations=33,
)

RECORDS = [
    CONFIG, StageSpec("locality-reorder"), PREPROCESS, SPEC,
    JobRequest(SPEC, priority=3), SAMPLE, PROFILE, ITERATION, TELEMETRY,
    ENERGY, COHERENCE, RESULT, CSR, OAG, RESOURCES,
]


def wire(data: dict) -> dict:
    """``data`` after a trip through JSON text."""
    return json.loads(json.dumps(data))


@pytest.mark.parametrize(
    "record", RECORDS, ids=[type(record).__name__ for record in RECORDS]
)
def test_every_record_round_trips(record):
    back = type(record).from_json(wire(record.to_json()))
    assert type(back) is type(record)
    assert json.dumps(back.to_json()) == json.dumps(record.to_json())
    if isinstance(record, RunResult):  # arrays have no plain ==
        for field in ("result", "vertex_values", "hyperedge_values"):
            assert np.array_equal(getattr(back, field), getattr(record, field))
            assert getattr(back, field).dtype == getattr(record, field).dtype
        assert all(isinstance(k, ArrayId) for k in back.dram_by_array)
        assert back.telemetry == record.telemetry
        assert back.energy == record.energy
        assert back.coherence == record.coherence
    else:
        assert back == record


def test_none_fields_are_written_as_null_and_read_back():
    spec = RunSpec("Hygra", "BFS", "FS")
    data = spec.to_json()
    assert data["config"] is None and data["preprocessing"] is None
    assert RunSpec.from_json(wire(data)) == spec


#: A ``RunResult`` as the store has written it since schema v6: an
#: unprofiled run without energy or coherence counters.
PARENT_PAYLOAD = {
    "schema": 6, "kind": "run_result",
    "engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
    "result": {"dtype": "int64", "data": [0, 1, 1, 2]},
    "vertex_values": {"dtype": "int64", "data": [0, 1, 1, 2]},
    "hyperedge_values": {"dtype": "int64", "data": [1, 1]},
    "iterations": 3, "cycles": 5120.0, "compute_cycles": 960.0,
    "memory_stall_cycles": 4160.0, "dram_accesses": 41,
    "dram_by_array": {"0": 12, "5": 29},
    "dram_writebacks": 4, "dram_writebacks_by_array": {"5": 4},
    "chain_stats": {},
    "telemetry": None, "energy": None, "coherence": None,
}


def test_a_stored_payload_with_null_records_still_decodes():
    assert STORE_SCHEMA_VERSION == PARENT_PAYLOAD["schema"]
    result = run_result_from_json(wire(PARENT_PAYLOAD))
    assert result.telemetry is None
    assert result.energy is None and result.coherence is None
    assert result.dram_by_array == {
        ArrayId.HYPEREDGE_OFFSET: 12, ArrayId.VERTEX_VALUE: 29,
    }
    assert result.result.dtype == np.int64
    assert run_result_to_json(result) == PARENT_PAYLOAD


@pytest.mark.parametrize(
    "field, value",
    [
        ("result", [0, 1]),
        ("dram_by_array", {"99": 1}),
        ("dram_by_array", {"0": 1.5}),
        ("iterations", "3"),
        ("telemetry", {"phases": {}, "iterations": [], "turbo": 1}),
        ("energy", {"l1_nj": 1.0}),
    ],
)
def test_a_malformed_payload_is_a_serialization_error(field, value):
    from repro.store.serialize import SerializationError

    with pytest.raises(SerializationError):
        run_result_from_json({**PARENT_PAYLOAD, field: value})


class TestFieldRule:
    def test_an_int_for_a_float_is_stored_as_a_float(self):
        config = SystemConfig.from_json({"name": "c", "mlp": 2})
        assert type(config.mlp) is float
        assert config == SystemConfig.from_json({"name": "c", "mlp": 2.0})
        assert type(scaled_config().replace(mlp=2).mlp) is float

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
              "profile": 1}, "RunSpec.profile must be bool"),
            ({"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
              "pr_iterations": True}, "pr_iterations must be None or int"),
            ({"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
              "config": {"name": "c", "num_cores": 2.5}},
             "num_cores must be int"),
            ({"engine": "Hygra", "algorithm": "BFS"}, "missing 'dataset'"),
            ({"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
              "turbo": 1}, "unknown run spec field"),
            (["Hygra"], "JSON object"),
        ],
        ids=["bool", "int-not-bool", "int-not-float", "missing", "unknown",
             "not-an-object"],
    )
    def test_mistyped_payloads_are_rejected(self, payload, match):
        with pytest.raises(ConfigurationError, match=match):
            RunSpec.from_json(payload)

    def test_a_built_record_is_checked_item_by_item(self):
        spec = PreprocessSpec(stages=(StageSpec("identity"), "identity"))
        with pytest.raises(ConfigurationError, match="list of StageSpec"):
            spec.validate()

    def test_configuration_errors_are_value_errors(self):
        """One error type from the field check to the service's HTTP 400."""
        with pytest.raises(ValueError):
            dataclasses.replace(SPEC, pr_iterations=0).validate()


def rewritten(payload: bytes, **members: np.ndarray) -> bytes:
    """The npz ``payload`` with ``members`` put in place of its own."""
    with np.load(io.BytesIO(payload)) as npz:
        arrays = {name: npz[name] for name in npz.files}
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **{**arrays, **members})
    return buffer.getvalue()


class TestNpzForm:
    HEADER = {"schema": 6, "kind": "csr"}

    def test_every_array_is_a_slice_of_its_dtype_pool(self):
        payload = CSR.to_npz(self.HEADER)
        with np.load(io.BytesIO(payload)) as npz:
            assert sorted(npz.files) == ["float64", "int64", "meta"]
            meta = json.loads(npz["meta"].tobytes())
            assert npz["int64"].tolist() == [0, 2, 2, 3, 1, 2, 0]
        assert meta == {
            **self.HEADER,
            "offsets": {"dtype": "int64", "at": 0, "size": 4},
            "indices": {"dtype": "int64", "at": 4, "size": 3},
            "weights": {"dtype": "float64", "at": 0, "size": 3},
        }
        back = Csr.from_npz(payload, self.HEADER)
        assert back == CSR and back.weights.dtype == np.float64

    def test_the_payload_is_what_savez_compressed_writes(self):
        payload = CSR.to_npz(self.HEADER)
        assert rewritten(payload) == payload

    def test_a_nested_record_round_trips(self):
        back = GlaResources.from_npz(RESOURCES.to_npz(self.HEADER), self.HEADER)
        assert back == RESOURCES

    @pytest.mark.parametrize(
        "members, match",
        [
            ({"int64": np.arange(6)}, "slice"),
            ({"int64": np.arange(8)}, "no field reads"),
            ({"int64": np.arange(7.0)}, "flat array of its dtype"),
            ({"meta": np.frombuffer(b"{}", dtype=np.uint8)}, "does not carry"),
        ],
        ids=["past-the-end", "unread", "wrong-dtype", "no-header"],
    )
    def test_a_payload_that_does_not_tile_is_rejected(self, members, match):
        payload = rewritten(CSR.to_npz(self.HEADER), **members)
        with pytest.raises(ConfigurationError, match=match):
            Csr.from_npz(payload, self.HEADER)

    def test_json_keeps_the_inline_array_form(self):
        assert CSR.to_json()["weights"] == {
            "dtype": "float64", "data": [0.5, 0.25, 1.0],
        }
