"""ChGraph reproduction: hardware-accelerated hypergraph processing with
chain-driven scheduling (Wang et al., HPCA 2022).

Quick start::

    from repro import Hypergraph, PageRank, HygraEngine, ChGraphEngine
    from repro.hypergraph.generators import paper_dataset
    from repro.sim import SimulatedSystem, scaled_config

    hg = paper_dataset("WEB")
    hygra = HygraEngine().run(PageRank(), hg, SimulatedSystem(scaled_config()))
    chg = ChGraphEngine().run(PageRank(), hg, SimulatedSystem(scaled_config()))
    print(chg.speedup_over(hygra), chg.dram_reduction_over(hygra))

The names below resolve on first use (:mod:`repro._exports`).
"""

from repro._exports import exports

#: Source-tree fallback; must match ``[project] version`` in pyproject.toml
#: (``tests/test_public_api.py`` pins the two together).
_FALLBACK_VERSION = "1.2.0"

_export, __all__ = exports(__name__, {
    "Adsorption": "algorithms.graph",
    "ArtifactStore": "store.store",
    "BetweennessCentrality": "algorithms.bc",
    "Bfs": "algorithms.bfs",
    "ChGraphEngine": "engine.chgraph_engine",
    "ConnectedComponents": "algorithms.cc",
    "Csr": "hypergraph.csr",
    "Frontier": "hypergraph.frontier",
    "GlaResources": "engine.resources",
    "Hypergraph": "hypergraph.hypergraph",
    "HygraEngine": "engine.hygra",
    "KCore": "algorithms.kcore",
    "MaximalIndependentSet": "algorithms.mis",
    "PageRank": "algorithms.pagerank",
    "RunResult": "engine.result",
    "SoftwareGlaEngine": "engine.gla_soft",
    "Sssp": "algorithms.graph",
})


def _detect_version() -> str:
    """The installed distribution version, else the source-tree fallback.

    Package metadata is the single source of truth for deployments (wheels,
    editable installs); running straight off ``PYTHONPATH=src`` has no
    metadata, so the literal above stands in.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        return _FALLBACK_VERSION


def __getattr__(name: str) -> object:
    """``__version__``, read from package metadata on first use (importing
    ``importlib.metadata`` costs every start-up that does), else an
    export."""
    if name == "__version__":
        global __version__
        __version__ = _detect_version()
        return __version__
    return _export(name)
