"""The reference affiliation generator: every member drawn by ``choice``.

This is the original :func:`repro.hypergraph.generators.generate_affiliation_hypergraph`,
kept verbatim as the parity oracle for the production member loop, which
inlines ``Random.choice``/``Random.randrange`` into direct ``getrandbits``
draws.  ``tests/hypergraph/test_generators.py`` holds both to identical
hyperedges on the five Table II presets, the benchmark's graph parameters
and a hypothesis sweep of :class:`AffiliationConfig` corners: the inlined
draws must consume the random stream exactly as these calls do.
"""

from __future__ import annotations

import random

from repro.hypergraph.generators import AffiliationConfig
from repro.hypergraph.hypergraph import Hypergraph

__all__ = ["generate_affiliation_hypergraph"]


def _powerlaw_degree(rng: random.Random, mean: float, exponent: float, lo: int) -> int:
    """Sample a hyperedge cardinality from a truncated Pareto-like law."""
    # Inverse-transform sampling of a Pareto tail, shifted to honour the mean.
    u = rng.random()
    raw = lo * (1.0 - u) ** (-1.0 / exponent)
    scale = mean / (lo * exponent / (exponent - 1.0))
    value = max(lo, int(round(raw * max(scale, 0.25))))
    return min(value, lo + int(mean * 6))


def generate_affiliation_hypergraph(
    config: AffiliationConfig, name: str = "affiliation"
) -> Hypergraph:
    """Generate a hypergraph with community-induced overlap."""
    rng = random.Random(config.seed)
    communities: list[list[int]] = [[] for _ in range(config.num_communities)]
    run = max(1, config.vertex_run)
    for start in range(0, config.num_vertices, run):
        community = rng.randrange(config.num_communities)
        communities[community].extend(
            range(start, min(start + run, config.num_vertices))
        )
    # Guarantee no empty community so sampling below always terminates.
    for c, members in enumerate(communities):
        if not members:
            members.append(rng.randrange(config.num_vertices))

    # Pre-assign each hyperedge's home community in contiguous runs.
    homes: list[int] = []
    h_run = max(1, config.hyperedge_run)
    while len(homes) < config.num_hyperedges:
        home = rng.randrange(config.num_communities)
        homes.extend([home] * h_run)
    del homes[config.num_hyperedges :]

    hyperedges: list[list[int]] = []
    for home in homes:
        cardinality = _powerlaw_degree(
            rng,
            config.mean_hyperedge_degree,
            config.degree_exponent,
            config.min_hyperedge_degree,
        )
        pool = communities[home]
        hubs = pool[: config.hubs_per_community]
        members: set[int] = set()
        attempts = 0
        while len(members) < cardinality and attempts < cardinality * 20:
            attempts += 1
            draw = rng.random()
            if hubs and draw < config.hub_bias:
                members.add(rng.choice(hubs))
            elif draw < config.hub_bias + config.overlap_bias * (
                1.0 - config.hub_bias
            ):
                members.add(rng.choice(pool))
            else:
                members.add(rng.randrange(config.num_vertices))
        if len(members) < 2:
            members.add(rng.randrange(config.num_vertices))
            members.add(rng.randrange(config.num_vertices))
        hyperedges.append(sorted(members))

    return Hypergraph.from_hyperedge_lists(
        hyperedges, num_vertices=config.num_vertices, name=name
    )
