"""The push tuple loop walks the same accesses on either channel.

:func:`~repro.engine.base.process_elements` serves the demand channel
(Hygra, GLA, ChGraph-HCGonly) and the decoupled engine's channel (ChGraph,
HATS-V, the event prefetcher) with one body; only the channel its four
loads are bound on differs.  This pins that contract: one element list
walked under ports bound on ``read`` and on ``engine`` touches the same
(array, index) sequence, its loads carry the bound channel and its writes
``write``, both walks activate the same elements and count the same beats,
and the returned latency sum is exactly the sum of the loads' latencies.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import Bfs, PageRank
from repro.algorithms.base import PHASE_HYPEREDGE, PHASE_VERTEX
from repro.chgraph.prefetcher import CpCost
from repro.engine.base import PHASE_SPECS, Phase, PhasePorts, process_elements
from repro.harness.differential import seeded_graphs
from repro.hypergraph.partition import contiguous_chunks
from repro.sim.config import scaled_config
from repro.sim.layout import ArrayId
from repro.sim.observe import InstrumentedSystem, Observer
from repro.sim.system import SimulatedSystem

GRAPH = seeded_graphs(1)[0]
ALGORITHMS = {"BFS": Bfs, "PR": lambda: PageRank(iterations=1)}


class _AccessLog(Observer):
    def __init__(self) -> None:
        self.accesses: list[tuple[str, ArrayId, int, int]] = []

    def on_access(
        self, kind: str, core: int, array: ArrayId, index: int, latency: int
    ) -> None:
        self.accesses.append((kind, array, index, latency))


def _walk(
    algorithm_name: str, phase: str, elements: list[int], channel: str
) -> tuple[list[tuple[str, ArrayId, int, int]], list[bool], CpCost]:
    algorithm = ALGORITHMS[algorithm_name]()
    state = algorithm.init_state(GRAPH)
    algorithm.begin_phase(state, GRAPH, phase)
    spec = PHASE_SPECS[phase]
    log = _AccessLog()
    system = InstrumentedSystem(SimulatedSystem(scaled_config(num_cores=2)), [log])
    hyperedge_phase = phase == PHASE_HYPEREDGE
    sources = GRAPH.num_vertices if hyperedge_phase else GRAPH.num_hyperedges
    destinations = GRAPH.num_hyperedges if hyperedge_phase else GRAPH.num_vertices
    activated = [False] * destinations
    bound = Phase(
        system,
        GRAPH,
        algorithm,
        spec,
        state.frontier_v if hyperedge_phase else state.frontier_e,
        contiguous_chunks(sources, 2),
        activated,
        algorithm.phase_apply(state, GRAPH, phase),
    )
    cost = process_elements(
        bound, 0, elements, PhasePorts.bind(bound, 0, channel)
    )
    return log.accesses, activated, cost


@pytest.mark.parametrize("phase", [PHASE_HYPEREDGE, PHASE_VERTEX])
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
def test_read_and_engine_channels_walk_the_same_accesses(
    algorithm_name: str, phase: str
) -> None:
    sources = (
        GRAPH.num_vertices if phase == PHASE_HYPEREDGE else GRAPH.num_hyperedges
    )
    # A chain-like order: every source element once, not in index order.
    elements = list(range(sources))
    random.Random(7).shuffle(elements)

    demand, demand_bitmap, demand_cost = _walk(
        algorithm_name, phase, elements, "read"
    )
    engine, engine_bitmap, engine_cost = _walk(
        algorithm_name, phase, elements, "engine"
    )

    assert [(a, i) for _, a, i, _ in demand] == [(a, i) for _, a, i, _ in engine]
    for (demand_kind, array, _, _), (engine_kind, _, _, _) in zip(demand, engine):
        if demand_kind == "write":
            assert engine_kind == "write"
            assert array in (PHASE_SPECS[phase].dst_value, ArrayId.BITMAP)
        else:
            assert (demand_kind, engine_kind) == ("read", "engine")
    assert any(kind == "write" for kind, _, _, _ in demand)
    if algorithm_name == "BFS":  # sparse: first activations write the bitmap
        assert any(array == ArrayId.BITMAP for _, array, _, _ in demand)

    assert demand_bitmap == engine_bitmap
    assert any(demand_bitmap)
    csr = GRAPH.side(PHASE_SPECS[phase].src_side)
    tuples = sum(len(csr.neighbors(element)) for element in elements)
    assert demand_cost.beats == engine_cost.beats == len(elements) + tuples

    for accesses, cost in ((demand, demand_cost), (engine, engine_cost)):
        loads = sum(latency for kind, _, _, latency in accesses if kind != "write")
        assert cost.overlapped_latency == loads
