"""Dataset registry for the evaluation harness.

The five Table II hypergraphs come from
:func:`repro.hypergraph.generators.paper_dataset`.  Figure 25 additionally
needs two ordinary graphs — com-Amazon (AZ) and soc-Pokec (PK) — which are
generated as 2-uniform hypergraphs with community structure (AZ: mild
power-law co-purchase graph; PK: denser social graph).
"""

from __future__ import annotations

import random

from repro.hypergraph.generators import PAPER_DATASETS, paper_dataset
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "hypergraph_dataset",
    "graph_dataset",
    "load_dataset",
    "clear_dataset_cache",
    "DATASETS",
    "GRAPH_DATASETS",
]

#: The two §VI-I ordinary-graph datasets, in paper order.
GRAPH_DATASETS: tuple[str, ...] = ("AZ", "PK")

#: Every dataset key :func:`load_dataset` accepts: the Table II
#: hypergraphs, then the ordinary graphs.
DATASETS: tuple[str, ...] = (*PAPER_DATASETS, *GRAPH_DATASETS)

_cache: dict[tuple[str, float], Hypergraph] = {}


def clear_dataset_cache() -> None:
    """Drop every module-cached dataset instance.

    Tests that mutate generator behaviour (or assert cold-path timings,
    e.g. the store benchmarks) use this to force regeneration; production
    code never needs it.
    """
    _cache.clear()


def hypergraph_dataset(key: str, scale: float = 1.0) -> Hypergraph:
    """A Table II stand-in, cached across the harness."""
    cache_key = (key, scale)
    if cache_key not in _cache:
        _cache[cache_key] = paper_dataset(key, scale=scale)
    return _cache[cache_key]


def _community_graph(
    num_vertices: int,
    num_edges: int,
    num_communities: int,
    rewire: float,
    seed: int,
    name: str,
) -> Hypergraph:
    """An ordinary graph with community structure, as a 2-uniform hypergraph."""
    rng = random.Random(seed)
    community = [rng.randrange(num_communities) for _ in range(num_vertices)]
    members: list[list[int]] = [[] for _ in range(num_communities)]
    for v, c in enumerate(community):
        members[c].append(v)
    for pool in members:
        if not pool:
            pool.append(rng.randrange(num_vertices))
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        u = rng.randrange(num_vertices)
        if rng.random() < rewire:
            w = rng.randrange(num_vertices)
        else:
            w = rng.choice(members[community[u]])
        if u != w:
            edges.add((min(u, w), max(u, w)))
    hyperedges = [list(edge) for edge in sorted(edges)]
    return Hypergraph.from_hyperedge_lists(
        hyperedges, num_vertices=num_vertices, name=name
    )


def graph_dataset(key: str) -> Hypergraph:
    """A Figure 25 ordinary-graph stand-in ('AZ' or 'PK')."""
    cache_key = (f"graph:{key}", 1.0)
    if cache_key in _cache:
        return _cache[cache_key]
    if key == "AZ":  # com-Amazon: sparse co-purchase network
        graph = _community_graph(
            num_vertices=2400,
            num_edges=7200,
            num_communities=120,
            rewire=0.05,
            seed=21,
            name="AZ",
        )
    elif key == "PK":  # soc-Pokec: denser social network
        graph = _community_graph(
            num_vertices=1800,
            num_edges=13500,
            num_communities=60,
            rewire=0.1,
            seed=22,
            name="PK",
        )
    else:
        raise KeyError(f"unknown graph dataset {key!r}; expected 'AZ' or 'PK'")
    _cache[cache_key] = graph
    return graph


def load_dataset(key: str) -> Hypergraph:
    """Any harness dataset by key: a :data:`GRAPH_DATASETS` graph, else a
    Table II hypergraph."""
    if key in GRAPH_DATASETS:
        return graph_dataset(key)
    return hypergraph_dataset(key)
