"""Synthetic hypergraph generators.

The paper evaluates on five real hypergraphs (Table II) from SNAP/KONECT.
Those datasets are unavailable offline, so this module generates scaled-down
synthetic stand-ins whose *overlap profiles* (Figure 8) and vertex:hyperedge
ratios match each dataset's character.  The generator is a community
(affiliation) model: vertices belong to communities and each hyperedge samples
most of its members from one community, so hyperedges within a community
overlap heavily — exactly the structure the chain scheduler exploits.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections.abc import Callable

from repro.hypergraph.csr import Csr
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "AffiliationConfig",
    "generate_affiliation_hypergraph",
    "generate_rmat_bipartite",
    "generate_uniform_random_hypergraph",
    "planted_chain_hypergraph",
    "two_uniform_graph",
    "paper_dataset",
    "PAPER_DATASETS",
]


@dataclasses.dataclass(frozen=True)
class AffiliationConfig:
    """Parameters for the community affiliation generator.

    ``overlap_bias`` in [0, 1] is the probability that a hyperedge member is
    drawn from the hyperedge's home community rather than uniformly; higher
    values produce heavier overlap (datasets like OG/LJ/OK in Figure 8).
    """

    num_vertices: int
    num_hyperedges: int
    mean_hyperedge_degree: float
    num_communities: int
    overlap_bias: float = 0.85
    degree_exponent: float = 2.0
    min_hyperedge_degree: int = 2
    seed: int = 7
    # Hub structure: each community designates ``hubs_per_community`` hot
    # vertices that members pick with probability ``hub_bias``.  Hubs are
    # what real hypergraphs' power-law popularity looks like, and they are
    # the source of the weight >= W_min overlaps the OAG keeps: two
    # hyperedges of the same community share most of its hubs.
    hubs_per_community: int = 0
    hub_bias: float = 0.0
    # Vertices are assigned to communities in contiguous runs of this many
    # ids.  Real datasets' ids follow crawl/insertion order, which places
    # related vertices near each other, so the vertices one hyperedge
    # touches share cache lines with the vertices its overlap-neighbors
    # touch.  1 disables co-location (fully random membership).
    vertex_run: int = 1
    # Hyperedges of the same community likewise appear in contiguous id runs
    # of this length (e.g. consecutive crawl of one site's pages).  Short
    # runs (2) keep per-chunk community density under 16-way chunking
    # without handing the index-ordered baseline the full reuse window.
    hyperedge_run: int = 1


def _powerlaw_degree(rng: random.Random, mean: float, exponent: float, lo: int) -> int:
    """Sample a hyperedge cardinality from a truncated Pareto-like law."""
    # Inverse-transform sampling of a Pareto tail, shifted to honour the mean.
    u = rng.random()
    raw = lo * (1.0 - u) ** (-1.0 / exponent)
    scale = mean / (lo * exponent / (exponent - 1.0))
    value = max(lo, int(round(raw * max(scale, 0.25))))
    return min(value, lo + int(mean * 6))


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in ``[0, n)``, drawn as ``Random.randrange(n)`` draws it.

    ``Random.choice`` and ``Random.randrange`` both draw through
    ``Random._randbelow``: ``r = getrandbits(n.bit_length())``, redrawn
    while ``r >= n``.  Drawing the same way keeps every graph's random
    stream, while the generator depends only on the public ``random()``
    and ``getrandbits()``; ``tests/hypergraph/generator_ref.py`` keeps the
    ``choice``/``randrange`` calls as the oracle.
    """
    if n <= 0:  # getrandbits(0) is 0, so the loop below would never end
        raise ValueError(f"empty range: no int in [0, {n})")
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def generate_affiliation_hypergraph(
    config: AffiliationConfig, name: str = "affiliation"
) -> Hypergraph:
    """Generate a hypergraph with community-induced overlap."""
    rng = random.Random(config.seed)
    random_draw = rng.random
    getrandbits = rng.getrandbits
    num_vertices = config.num_vertices
    communities: list[list[int]] = [[] for _ in range(config.num_communities)]
    run = max(1, config.vertex_run)
    for start in range(0, num_vertices, run):
        community = _below(getrandbits, config.num_communities)
        communities[community].extend(range(start, min(start + run, num_vertices)))
    # Guarantee no empty community so sampling below always terminates.
    for c, members in enumerate(communities):
        if not members:
            members.append(_below(getrandbits, num_vertices))

    # Pre-assign each hyperedge's home community in contiguous runs.
    homes: list[int] = []
    h_run = max(1, config.hyperedge_run)
    while len(homes) < config.num_hyperedges:
        home = _below(getrandbits, config.num_communities)
        homes.extend([home] * h_run)
    del homes[config.num_hyperedges :]

    # The member loop inlines ``_below`` (about five draws per kept member),
    # with each pool's length and bit length taken once per hyperedge.
    hub_bias = config.hub_bias
    pool_cut = hub_bias + config.overlap_bias * (1.0 - hub_bias)
    vertex_bits = num_vertices.bit_length()
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
        pool_size = len(pool)
        pool_bits = pool_size.bit_length()
        hub_count = len(hubs)
        hub_bits = hub_count.bit_length()
        # ``draw < 0.0`` never holds, so a hubless pool skips the hub branch.
        hub_cut = hub_bias if hubs else 0.0
        members: set[int] = set()
        add = members.add
        for _ in range(cardinality * 20):
            if len(members) >= cardinality:
                break
            draw = random_draw()
            if draw < hub_cut:
                r = getrandbits(hub_bits)
                while r >= hub_count:
                    r = getrandbits(hub_bits)
                add(hubs[r])
            elif draw < pool_cut:
                r = getrandbits(pool_bits)
                while r >= pool_size:
                    r = getrandbits(pool_bits)
                add(pool[r])
            else:
                r = getrandbits(vertex_bits)
                while r >= num_vertices:
                    r = getrandbits(vertex_bits)
                add(r)
        if len(members) < 2:
            add(_below(getrandbits, num_vertices))
            add(_below(getrandbits, num_vertices))
        hyperedges.append(sorted(members))

    # Each member list is already sorted, distinct and in range, so the CSR
    # is built directly rather than re-normalized by ``from_hyperedge_lists``.
    incidence = Csr.from_lists(hyperedges)
    return Hypergraph(
        incidence, incidence.transpose(num_cols=num_vertices), name=name
    )


def generate_uniform_random_hypergraph(
    num_vertices: int,
    num_hyperedges: int,
    hyperedge_degree: int,
    seed: int = 7,
    name: str = "uniform",
) -> Hypergraph:
    """A k-uniform Erdos-Renyi-style hypergraph (low overlap control case)."""
    rng = random.Random(seed)
    k = min(hyperedge_degree, num_vertices)
    hyperedges = [
        sorted(rng.sample(range(num_vertices), k)) for _ in range(num_hyperedges)
    ]
    return Hypergraph.from_hyperedge_lists(
        hyperedges, num_vertices=num_vertices, name=name
    )


def generate_rmat_bipartite(
    num_vertices: int,
    num_hyperedges: int,
    num_bipartite_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 7,
    name: str = "rmat",
) -> Hypergraph:
    """A bipartite R-MAT hypergraph (power-law on both sides).

    Drops each bipartite edge by recursive quadrant descent over the
    (hyperedge x vertex) adjacency matrix — the standard synthetic for
    skewed graph workloads, useful as a hub-heavy stress input distinct
    from the community model.
    """
    rng = random.Random(seed)
    members: list[set[int]] = [set() for _ in range(num_hyperedges)]
    placed = 0
    attempts = 0
    limit = num_bipartite_edges * 20
    while placed < num_bipartite_edges and attempts < limit:
        attempts += 1
        row_lo, row_hi = 0, num_hyperedges
        col_lo, col_hi = 0, num_vertices
        while row_hi - row_lo > 1 or col_hi - col_lo > 1:
            draw = rng.random()
            top = draw < a + b
            left = draw < a or (a + b <= draw < a + b + c)
            if row_hi - row_lo > 1:
                mid = (row_lo + row_hi) // 2
                row_lo, row_hi = (row_lo, mid) if top else (mid, row_hi)
            if col_hi - col_lo > 1:
                mid = (col_lo + col_hi) // 2
                col_lo, col_hi = (col_lo, mid) if left else (mid, col_hi)
        if col_lo not in members[row_lo]:
            members[row_lo].add(col_lo)
            placed += 1
    hyperedges = [sorted(m) if m else [rng.randrange(num_vertices)] for m in members]
    return Hypergraph.from_hyperedge_lists(
        hyperedges, num_vertices=num_vertices, name=name
    )


def planted_chain_hypergraph(
    num_hyperedges: int, overlap: int = 2, fresh: int = 2, name: str = "planted"
) -> Hypergraph:
    """A hypergraph whose optimal hyperedge chain is known by construction.

    Hyperedge ``i`` shares exactly ``overlap`` vertices with hyperedge
    ``i + 1`` and introduces ``fresh`` new vertices, so the maximal-overlap
    chain is ``<h_0, h_1, ..., h_{n-1}>``.  Used by tests that need a ground
    truth chain.
    """
    hyperedges = []
    base = 0
    for _ in range(num_hyperedges):
        members = list(range(base, base + overlap + fresh))
        hyperedges.append(members)
        base += fresh
    return Hypergraph.from_hyperedge_lists(hyperedges, name=name)


def two_uniform_graph(
    edges: list[tuple[int, int]], num_vertices: int | None = None, name: str = "graph"
) -> Hypergraph:
    """Represent an ordinary graph as a 2-uniform hypergraph (§VI-I)."""
    return Hypergraph.from_hyperedge_lists(
        [list(e) for e in edges], num_vertices=num_vertices, name=name
    )


# --------------------------------------------------------------------------
# Paper dataset stand-ins (Table II, scaled down).
#
# Each preset preserves the dataset's |V|:|H| ratio and its Figure 8 overlap
# character: OG/LJ/OK have 71-82% of vertices shared by >= 7 hyperedges
# (high overlap_bias, few communities relative to size) while FS/WEB sit at
# 8-13% (lower bias, more communities).
# --------------------------------------------------------------------------

_PAPER_PRESETS: dict[str, AffiliationConfig] = {
    # Friendster: |V| > |H|, lightest sharing (largest pools, no hubs).
    "FS": AffiliationConfig(
        num_vertices=1920,
        num_hyperedges=1408,
        mean_hyperedge_degree=45.0,
        min_hyperedge_degree=22,
        degree_exponent=3.0,
        num_communities=18,
        overlap_bias=0.98,
        seed=11,
    ),
    # com-Orkut: |H| > |V|, heavy sharing (small pools + hot hubs).
    "OK": AffiliationConfig(
        num_vertices=1536,
        num_hyperedges=2304,
        mean_hyperedge_degree=50.0,
        min_hyperedge_degree=25,
        degree_exponent=3.0,
        num_communities=24,
        overlap_bias=0.99,
        hubs_per_community=2,
        hub_bias=0.1,
        seed=12,
    ),
    # LiveJournal: |H| > |V|, heavy sharing.
    "LJ": AffiliationConfig(
        num_vertices=1664,
        num_hyperedges=2176,
        mean_hyperedge_degree=48.0,
        min_hyperedge_degree=24,
        degree_exponent=3.0,
        num_communities=24,
        overlap_bias=0.985,
        hubs_per_community=3,
        hub_bias=0.15,
        seed=13,
    ),
    # Web-trackers: largest |V|, light sharing, most memory-bound (Fig 5).
    "WEB": AffiliationConfig(
        num_vertices=1920,
        num_hyperedges=1536,
        mean_hyperedge_degree=52.0,
        min_hyperedge_degree=26,
        degree_exponent=3.0,
        num_communities=26,
        overlap_bias=0.99,
        seed=14,
    ),
    # Orkut-group: densest incidences, heaviest sharing (hub-hot, so the
    # LRU baseline already captures part of the reuse, as §VI-C notes).
    "OG": AffiliationConfig(
        num_vertices=1408,
        num_hyperedges=1920,
        mean_hyperedge_degree=58.0,
        min_hyperedge_degree=28,
        degree_exponent=3.0,
        num_communities=20,
        overlap_bias=0.99,
        hubs_per_community=4,
        hub_bias=0.2,
        seed=15,
    ),
}

#: Names of the five Table II stand-ins in paper order.
PAPER_DATASETS: tuple[str, ...] = ("FS", "OK", "LJ", "WEB", "OG")

#: Scale divisor applied to Table II sizes, recorded for reporting.
PAPER_SCALE_NOTE = "Table II datasets scaled down ~2000-24000x; ratios preserved"


def paper_dataset(key: str, scale: float = 1.0) -> Hypergraph:
    """Instantiate a Table II stand-in by its paper abbreviation.

    ``scale`` < 1 shrinks the preset further (used by quick benchmark modes);
    the |V|:|H| ratio and overlap character are preserved.
    """
    try:
        preset = _PAPER_PRESETS[key]
    except KeyError:
        raise KeyError(
            f"unknown dataset {key!r}; expected one of {sorted(_PAPER_PRESETS)}"
        ) from None
    if scale != 1.0:
        preset = dataclasses.replace(
            preset,
            num_vertices=max(32, int(preset.num_vertices * scale)),
            num_hyperedges=max(16, int(preset.num_hyperedges * scale)),
            num_communities=max(4, int(math.ceil(preset.num_communities * scale))),
        )
    return generate_affiliation_hypergraph(preset, name=key)
