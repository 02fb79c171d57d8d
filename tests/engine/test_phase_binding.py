"""Every engine gets each phase's update bound once, by the engine loop.

``ExecutionEngine.run`` takes the algorithm's ``phase_apply`` closure once
per phase and hands it to ``_run_phase`` in the
:class:`~repro.engine.base.Phase` record.  A binding per chunk would not
show in any number for an algorithm whose mirrors hold no cross-chunk
values, so this counts the bindings themselves: two per iteration, on
every engine.  It also pins when ``run`` flushes the state's list mirrors:
after the phase's last update and before ``end_phase`` reads the arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import PHASE_HYPEREDGE, Bfs, PageRank
from repro.engine.registry import engine_names
from repro.harness.differential import seeded_graphs
from repro.harness.runner import Runner
from repro.hypergraph.generators import two_uniform_graph
from repro.sim.config import scaled_config
from repro.sim.system import SimulatedSystem

CONFIG = scaled_config(num_cores=4, llc_kb=2)
HYPERGRAPH = seeded_graphs(1)[0]
#: Ligra accepts ordinary graphs only: a 64-vertex ring with chords.
GRAPH = two_uniform_graph(
    [(v, (v + 1) % 64) for v in range(64)] + [(v, v + 7) for v in range(0, 56, 3)],
    num_vertices=64,
    name="ring-64",
)
RUNNER = Runner(cache_dir=None)


class _CountsBindings:
    """Counts the algorithm's ``phase_apply`` calls."""

    bindings = 0

    def phase_apply(self, state, hypergraph, phase):
        self.bindings += 1
        return super().phase_apply(state, hypergraph, phase)


class _Bfs(_CountsBindings, Bfs):
    pass


class _PageRank(_CountsBindings, PageRank):
    pass


@pytest.mark.parametrize(
    "make_algorithm",
    [_Bfs, lambda: _PageRank(iterations=1)],
    ids=["BFS", "PR"],
)
@pytest.mark.parametrize("engine", engine_names())
def test_each_phase_binds_the_update_once(engine, make_algorithm):
    graph = GRAPH if engine == "Ligra" else HYPERGRAPH
    algorithm = make_algorithm()
    result = RUNNER.engine(engine, graph, CONFIG).run(
        algorithm, graph, SimulatedSystem(CONFIG)
    )
    assert result.iterations >= 1
    assert algorithm.bindings == 2 * result.iterations


class _CappedBfs(_Bfs):
    max_iterations = 2


#: A 10-vertex path: BFS from vertex 0 needs far more than two iterations.
PATH = two_uniform_graph([(v, v + 1) for v in range(9)], num_vertices=10)


@pytest.mark.parametrize("engine", engine_names())
def test_a_capped_run_reports_the_iterations_it_ran(engine):
    algorithm = _CappedBfs()
    result = RUNNER.engine(engine, PATH, CONFIG).run(
        algorithm, PATH, SimulatedSystem(CONFIG)
    )
    assert algorithm.bindings == 4  # two iterations of two phases
    assert result.iterations == 2


class _FlushProbe(Bfs):
    """Counts its updates into an ``extras`` array through a mirror.

    Each scheduled element's update runs once per incident edge, so by
    ``end_phase`` the array must hold the frontier's degree sum.
    """

    def init_state(self, hypergraph):
        state = super().init_state(hypergraph)
        state.extras["calls"] = np.zeros(1)
        return state

    def begin_phase(self, state, hypergraph, phase):
        super().begin_phase(state, hypergraph, phase)
        hyperedge_phase = phase == PHASE_HYPEREDGE
        frontier = state.frontier_v if hyperedge_phase else state.frontier_e
        csr = hypergraph.vertices if hyperedge_phase else hypergraph.hyperedges
        self.degree_sum = int(np.diff(csr.offsets)[frontier.ids()].sum())
        state.extras["calls"][0] = 0.0

    def phase_apply(self, state, hypergraph, phase):
        update = super().phase_apply(state, hypergraph, phase)
        calls = state.mirror("calls")

        def apply(src, dst):
            calls[0] += 1.0
            return update(src, dst)

        return apply

    def end_phase(self, state, hypergraph, phase, activated):
        assert state.extras["calls"].sum() == self.degree_sum
        return super().end_phase(state, hypergraph, phase, activated)


@pytest.mark.parametrize("engine", engine_names())
def test_mirrors_are_flushed_before_end_phase(engine):
    graph = GRAPH if engine == "Ligra" else HYPERGRAPH
    result = RUNNER.engine(engine, graph, CONFIG).run(
        _FlushProbe(), graph, SimulatedSystem(CONFIG)
    )
    assert result.iterations > 1
