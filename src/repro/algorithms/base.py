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
import functools
from typing import Any, Callable

import numpy as np

from repro.hypergraph.frontier import Frontier
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["AlgorithmState", "HypergraphAlgorithm", "PHASE_HYPEREDGE", "PHASE_VERTEX"]

#: Hyperedge computation: active vertices push HF into hyperedges.
PHASE_HYPEREDGE = "hyperedge"
#: Vertex computation: active hyperedges push VF into vertices.
PHASE_VERTEX = "vertex"


@dataclasses.dataclass
class AlgorithmState:
    """Mutable per-run state: the two value arrays plus the frontiers."""

    vertex_values: np.ndarray
    hyperedge_values: np.ndarray
    frontier_v: Frontier
    frontier_e: Frontier
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)


class HypergraphAlgorithm(abc.ABC):
    """A hypergraph application expressed as HF/VF plus lifecycle hooks."""

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
    def apply_hf(
        self, state: AlgorithmState, hypergraph: Hypergraph, v: int, h: int
    ) -> bool:
        """Apply vertex ``v``'s influence on hyperedge ``h``.

        Returns True when ``h`` should join the hyperedge frontier.
        """

    @abc.abstractmethod
    def apply_vf(
        self, state: AlgorithmState, hypergraph: Hypergraph, h: int, v: int
    ) -> bool:
        """Apply hyperedge ``h``'s influence on vertex ``v``.

        Returns True when ``v`` should join the vertex frontier.
        """

    def phase_apply(
        self, state: AlgorithmState, hypergraph: Hypergraph, phase: str
    ) -> Callable[[int, int], bool]:
        """A per-phase bound form of the phase's update function.

        ``ExecutionEngine.run`` calls this once per phase (never per chunk),
        and the engines invoke the returned ``apply(src, dst) -> bool`` once
        per bipartite edge — the hot call of every inner loop.  The default
        binds ``state`` and ``hypergraph`` into :meth:`apply_hf`/
        :meth:`apply_vf` unchanged; algorithms may override it to return a
        closure over cheaper private state (plain-list mirrors of the numpy
        value arrays), provided they reconcile that state in
        :meth:`end_phase` so the update arithmetic stays bit-identical to
        the per-call methods.
        """
        fn = self.apply_hf if phase == PHASE_HYPEREDGE else self.apply_vf
        return functools.partial(fn, state, hypergraph)

    # -- lifecycle hooks (default no-ops) -----------------------------------

    def begin_iteration(
        self, state: AlgorithmState, hypergraph: Hypergraph, iteration: int
    ) -> None:
        """Called before each iteration's hyperedge phase."""

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

        Engines additionally stop when both frontiers are empty and a
        ``max_iterations`` cap exists in either place.
        """
        return state.frontier_v.is_empty() and state.frontier_e.is_empty()

    # -- results --------------------------------------------------------------

    def result(self, state: AlgorithmState, hypergraph: Hypergraph) -> np.ndarray:
        """The per-vertex output array (what tests compare across engines)."""
        return state.vertex_values

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
