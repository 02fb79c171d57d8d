"""The algorithm abstraction shared by every execution engine.

Algorithm 1 structures a hypergraph application as two update functions: HF
(an active *vertex* updates an incident *hyperedge*) and VF (an active
*hyperedge* updates an incident *vertex*), driven by alternating frontier
phases.  Engines differ only in the *order* they visit active elements and
in the hardware costs they charge — the semantics live here.

Update functions must be commutative over the edges of one phase (sums,
mins, logical-or): the paper's correctness argument for chain scheduling is
exactly that reordering a synchronous phase cannot change its outcome, and
the test suite verifies every algorithm produces equal results under index
order and chain order.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Callable

import numpy as np

from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "AlgorithmState",
    "HypergraphAlgorithm",
    "PHASE_HYPEREDGE",
    "PHASE_VERTEX",
    "Update",
    "check_source",
]

#: Hyperedge computation: active vertices push HF into hyperedges.
PHASE_HYPEREDGE = "hyperedge"
#: Vertex computation: active hyperedges push VF into vertices.
PHASE_VERTEX = "vertex"

#: A phase's ``apply(src, dst) -> bool`` (:meth:`HypergraphAlgorithm.phase_apply`).
Update = Callable[[int, int], bool]


@dataclasses.dataclass
class AlgorithmState:
    """Mutable per-run state: the two value arrays plus the frontiers.

    Updates work on list mirrors of the arrays (:meth:`mirror`): indexing
    numpy boxes a scalar on every tuple, while Python floats share float64
    arithmetic and ``tolist`` round-trips floats, ints and bools exactly.
    """

    vertex_values: np.ndarray
    hyperedge_values: np.ndarray
    frontier_v: Frontier
    frontier_e: Frontier
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)
    _lists: dict[str, list[Any]] = dataclasses.field(default_factory=dict, init=False)

    def _array(self, name: str) -> np.ndarray:
        return self.extras[name] if name in self.extras else getattr(self, name)

    def mirror(self, name: str) -> list[Any]:
        """The phase's list copy of ``vertex_values``, ``hyperedge_values``
        or ``extras[name]``; the array itself is stale until :meth:`flush`."""
        if name not in self._lists:
            self._lists[name] = self._array(name).tolist()
        return self._lists[name]

    def sides(
        self,
        phase: str,
        vertex: str = "vertex_values",
        hyperedge: str = "hyperedge_values",
    ) -> tuple[list[Any], list[Any]]:
        """``(src, dst)`` mirrors of a vertex array and a hyperedge array:
        the side ``phase`` schedules first, the side it updates second."""
        if phase == PHASE_HYPEREDGE:
            return self.mirror(vertex), self.mirror(hyperedge)
        return self.mirror(hyperedge), self.mirror(vertex)

    def flush(self) -> None:
        """Copy every mirror back into its array and drop them."""
        for name, values in self._lists.items():
            self._array(name)[:] = values
        self._lists.clear()


def check_source(source: int, hypergraph: Hypergraph) -> None:
    """Reject a source vertex outside ``[0, num_vertices)``."""
    if not 0 <= source < hypergraph.num_vertices:
        raise ValueError(f"source {source} is outside [0, {hypergraph.num_vertices})")


class HypergraphAlgorithm(abc.ABC):
    """A hypergraph application: one update plus lifecycle hooks."""

    #: Short name used in reports ("BFS", "PR", ...).
    name: str = "base"
    #: Hard iteration cap; ``None`` means run to frontier exhaustion.
    max_iterations: int | None = None
    #: Dense algorithms (PR) keep everything active every iteration, so
    #: engines skip activity-bitmap traffic for them (§VI-C: "there is no
    #: need to access the bitmap" for PageRank).
    dense_frontier: bool = False
    #: Relative compute weight of one HF/VF application, scaling the
    #: engine's per-tuple Apply cost: BC's floating-point sigma/delta math
    #: outweighs BFS's compare-and-set.
    apply_cost_factor: float = 1.0

    @abc.abstractmethod
    def init_state(self, hypergraph: Hypergraph) -> AlgorithmState:
        """Initialise values and the seed vertex frontier (Lines 1-3)."""

    @abc.abstractmethod
    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Update:
        """The phase's update: HF in the hyperedge phase, VF in the vertex one.

        ``ExecutionEngine.run`` calls this once per phase, after
        :meth:`begin_phase`, and flushes the :meth:`AlgorithmState.mirror`
        lists the update works on before :meth:`end_phase`.  The engines
        call ``apply(src, dst)`` once per edge from an active ``src``; it
        returns True when ``dst`` should join the next frontier.
        """

    # -- lifecycle hooks (default no-ops) -----------------------------------

    def begin_phase(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> None:
        """Called before a phase starts processing its frontier."""

    def end_phase(
        self,
        state: AlgorithmState,
        hypergraph: Hypergraph,
        phase: str,
        activated: Frontier,
    ) -> Frontier:
        """Transform the set activated during ``phase`` into the next frontier.

        The default is the identity (Algorithm 1's behaviour); algorithms
        with finalisation steps (MIS decisions, k-core re-seeding, BC's
        backward pass) override this to steer the engine.
        """
        return activated

    def finished(
        self, state: AlgorithmState, hypergraph: Hypergraph, iteration: int
    ) -> bool:
        """Convergence test, checked after each iteration's vertex phase.

        The default stops once both frontiers are empty.  Engines also stop
        after ``max_iterations`` iterations, whatever this returns.
        """
        return state.frontier_v.is_empty() and state.frontier_e.is_empty()

    # -- results --------------------------------------------------------------

    def result(self, state: AlgorithmState, hypergraph: Hypergraph) -> np.ndarray:
        """The per-vertex output array (what tests compare across engines)."""
        return state.vertex_values

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
