"""Hypergraph applications (the paper's six) plus ordinary-graph apps."""

from repro.algorithms.base import (
    PHASE_HYPEREDGE,
    PHASE_VERTEX,
    AlgorithmState,
    HypergraphAlgorithm,
)
from repro.algorithms.bc import BetweennessCentrality
from repro.algorithms.bfs import Bfs
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.graph import Adsorption, Sssp
from repro.algorithms.kcore import KCore
from repro.algorithms.mis import MaximalIndependentSet
from repro.algorithms.pagerank import PageRank

__all__ = [
    "PHASE_HYPEREDGE",
    "PHASE_VERTEX",
    "AlgorithmState",
    "HypergraphAlgorithm",
    "Adsorption",
    "BetweennessCentrality",
    "Bfs",
    "ConnectedComponents",
    "KCore",
    "MaximalIndependentSet",
    "PageRank",
    "Sssp",
]

