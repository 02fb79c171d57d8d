"""Hypergraph representation substrate (bipartite CSR, Figure 4)."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "Csr": "csr",
    "DirectedHypergraph": "directed",
    "Frontier": "frontier",
    "Hypergraph": "hypergraph",
    "PipelineResult": "pipeline",
    "PreprocessSpec": "pipeline",
    "StageSpec": "pipeline",
    "apply_pipeline": "pipeline",
    "stage_names": "pipeline",
})
