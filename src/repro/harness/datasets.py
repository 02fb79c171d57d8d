"""Dataset registry for the evaluation harness.

The five Table II hypergraphs come from
:func:`repro.hypergraph.generators.paper_dataset`.  Figure 25 additionally
needs two ordinary graphs — com-Amazon (AZ) and soc-Pokec (PK) — which are
generated as 2-uniform hypergraphs with community structure (AZ: mild
power-law co-purchase graph; PK: denser social graph).

:func:`load_dataset` is the one loader.  Given an artifact store, it reads
the dataset from the store and generates (and stores) it only on a miss.
The store keys a dataset by its name, its scale and the source of the
modules that generate it (:func:`repro.store.keys.dataset_key`), which is
why this module imports no more of ``repro`` than generation needs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.hypergraph.generators import PAPER_DATASETS, paper_dataset
from repro.hypergraph.hypergraph import Hypergraph

if TYPE_CHECKING:
    from repro.store.store import ArtifactStore

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


def load_dataset(key: str, store: ArtifactStore | None = None) -> Hypergraph:
    """Any harness dataset by key: a :data:`GRAPH_DATASETS` graph, else a
    Table II hypergraph.

    With a ``store``, the dataset is read from it, and on a miss generated
    and written to it, even when this process has generated it before: a
    store's entries then never depend on what the process did earlier.
    Without one it is generated, or taken from this module's cache.
    """
    if store is None:
        return _generate(key)
    from repro.store.keys import dataset_key

    artifact_key = dataset_key(key, scale=1.0)
    hypergraph = store.get_dataset(artifact_key)
    if hypergraph is None:
        hypergraph = _generate(key)
        store.put_dataset(artifact_key, hypergraph)
    return hypergraph


def _generate(key: str) -> Hypergraph:
    if key in GRAPH_DATASETS:
        return graph_dataset(key)
    return hypergraph_dataset(key)
