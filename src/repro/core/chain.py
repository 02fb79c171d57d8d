"""Chain generation (Definition 2, Algorithm 3, and the HCG pipeline order).

A chain is a sequence of OAG nodes produced by a greedy maximally-overlapped
walk: starting from the lowest-indexed active element, repeatedly step to the
unvisited *active* neighbor with the highest overlap weight (the OAG rows are
pre-sorted descending, so "pick the first eligible" is weight-maximal), until
no eligible neighbor remains or the exploration depth reaches ``D_max``
(default 16 — the paper's sweet spot, equal to the hardware stack depth).

Elements that are active but have no OAG presence (isolated nodes, or nodes
whose overlaps were pruned by ``W_min``) become singleton chains in index
order, which is the paper's correctness argument for pruning: "the data that
miss the overlapping information will be safely scheduled in order of their
indices".

Every active element appears in exactly one chain exactly once; inactive
elements never appear.  Tests enforce this invariant.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.core.oag import Oag

__all__ = ["ChainSet", "ChainGenerator", "ChainProbe", "DEFAULT_D_MAX"]

#: §IV-B: "we set D_max to 16 by default".
DEFAULT_D_MAX = 16


class ChainProbe:
    """Instrumentation hooks invoked once per micro-step of generation.

    Execution engines subclass this to charge memory accesses / cycles for
    each hardware pipeline stage (root setting, offsets fetching, neighbor
    fetching, neighbor selection) without duplicating the algorithm.
    """

    def on_root_scan(self, element: int) -> None:
        """Bitmap probe while hunting for the next active root."""

    def on_offsets_fetch(self, node: int) -> None:
        """OAG_offset read for the node on top of the stack."""

    def on_neighbor_inspect(self, node: int, position: int) -> None:
        """OAG_edge/OAG_weight read at CSR position ``position``."""

    def on_select(self, element: int) -> None:
        """An element enters the chain (pushed to stack + chain FIFO).

        ``element`` is the *global* hypergraph id, like all probe hooks.
        """


@dataclasses.dataclass
class ChainSet:
    """The chains generated for one chunk in one phase, plus cost counters."""

    chains: list[list[int]]
    root_scans: int = 0
    offsets_fetches: int = 0
    neighbor_inspections: int = 0

    @property
    def num_chains(self) -> int:
        return len(self.chains)

    @property
    def num_elements(self) -> int:
        return sum(len(chain) for chain in self.chains)

    @property
    def mean_length(self) -> float:
        return self.num_elements / self.num_chains if self.chains else 0.0

    def order(self) -> Iterator[int]:
        """The flattened scheduling order."""
        for chain in self.chains:
            yield from chain

    def __iter__(self) -> Iterator[list[int]]:
        return iter(self.chains)


class ChainGenerator:
    """Greedy maximal-overlap chain generation over a (chunk) OAG.

    Without a probe, Algorithm 3 runs as whole-row array steps.  With a
    :class:`ChainProbe` it runs as a scalar walk that fires one hook per
    micro-step: the HCG and software GLA charge their cycle and access
    costs through those hooks.  Both walks return identical chains and
    identical ``root_scans`` / ``offsets_fetches`` / ``neighbor_inspections``
    counters; ``tests/core/test_fast_parity.py`` enforces the equivalence.
    """

    def __init__(self, d_max: int = DEFAULT_D_MAX) -> None:
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        self.d_max = d_max

    def generate(
        self,
        active: np.ndarray,
        oag: Oag,
        probe: ChainProbe | None = None,
    ) -> ChainSet:
        """Generate chains for the active elements of one chunk.

        ``active`` is a boolean bitmap over the chunk's elements (local index
        0 is hypergraph element ``oag.first_id``).  The bitmap is not
        mutated.  Chain entries are *global* element ids.
        """
        if active.size != oag.num_nodes:
            raise ValueError(
                f"active bitmap size {active.size} != OAG nodes {oag.num_nodes}"
            )
        if probe is None:
            return self._generate_vectorized(active, oag)
        # Plain-list mirrors of the numpy inputs: the scalar walk touches
        # them once per micro-step, where numpy scalar indexing costs ~10x a
        # list index.  ``remaining`` is private to this call; the CSR lists
        # are the Csr's cached copies.
        remaining = active.tolist()
        result = ChainSet(chains=[])
        offsets = oag.csr.offsets_list()
        edges = oag.csr.indices_list()
        first_id = oag.first_id
        on_root_scan = probe.on_root_scan
        root_scans = 0

        for root in range(active.size):
            # Root-setting stage: scan the bitmap for the minimal active id.
            root_scans += 1
            on_root_scan(first_id + root)
            if not remaining[root]:
                continue
            chain = self._explore(
                root, remaining, offsets, edges, probe, result, first_id
            )
            result.chains.append([first_id + node for node in chain])
        result.root_scans += root_scans
        return result

    def _explore(
        self,
        root: int,
        remaining: list[bool],
        offsets: list[int],
        edges: list[int],
        probe: ChainProbe,
        result: ChainSet,
        first_id: int,
    ) -> list[int]:
        """One greedy walk: the chain rooted at ``root`` (local node ids)."""
        chain = [root]
        remaining[root] = False
        probe.on_select(first_id + root)
        on_offsets_fetch = probe.on_offsets_fetch
        on_neighbor_inspect = probe.on_neighbor_inspect
        offsets_fetches = 0
        neighbor_inspections = 0
        current = root
        depth = 0
        while depth < self.d_max - 1:
            # Offsets-fetching stage.
            offsets_fetches += 1
            on_offsets_fetch(current)
            start, end = offsets[current], offsets[current + 1]
            # Neighbor fetching + selection: the row is weight-descending, so
            # the first unvisited active neighbor is the maximal-weight one.
            successor = -1
            for position in range(start, end):
                neighbor_inspections += 1
                on_neighbor_inspect(current, position)
                candidate = edges[position]
                if remaining[candidate]:
                    successor = candidate
                    break
            if successor < 0:
                break
            remaining[successor] = False
            chain.append(successor)
            probe.on_select(first_id + successor)
            current = successor
            depth += 1
        result.offsets_fetches += offsets_fetches
        result.neighbor_inspections += neighbor_inspections
        return chain

    def _generate_vectorized(self, active: np.ndarray, oag: Oag) -> ChainSet:
        """Probe-free Algorithm 3: whole-row array steps, identical output.

        Matches the scalar walk chain-for-chain and counter-for-counter: the
        scalar path scans every local index as a root candidate
        (``root_scans``), fetches one offsets pair per walk step
        (``offsets_fetches``), and inspects each CSR slot up to and
        including the first still-active neighbor (``neighbor_inspections``).
        """
        remaining = active.astype(bool, copy=True)
        result = ChainSet(chains=[], root_scans=int(active.size))
        # Row bounds as Python ints: one list index per walk step instead of
        # two numpy scalar reads.  The copy is local, not the Csr's cached
        # mirror, so it does not live as long as the OAG.
        offsets = oag.csr.offsets.tolist()
        edges = oag.csr.indices
        first_id = oag.first_id
        offsets_fetches = 0
        neighbor_inspections = 0
        max_steps = self.d_max - 1
        chains = result.chains

        for root in np.flatnonzero(remaining).tolist():
            if not remaining[root]:
                continue  # consumed by an earlier walk
            chain = [first_id + root]
            remaining[root] = False
            current = root
            for _ in range(max_steps):
                offsets_fetches += 1
                start, end = offsets[current], offsets[current + 1]
                if start == end:
                    break
                # The row is weight-descending, so the first still-active
                # slot is the maximal-weight successor.
                row = edges[start:end]
                alive = remaining[row]
                hit = int(alive.argmax())
                if not alive[hit]:
                    neighbor_inspections += end - start
                    break
                neighbor_inspections += hit + 1
                current = int(row[hit])
                remaining[current] = False
                chain.append(first_id + current)
            chains.append(chain)
        result.offsets_fetches = offsets_fetches
        result.neighbor_inspections = neighbor_inspections
        return result
