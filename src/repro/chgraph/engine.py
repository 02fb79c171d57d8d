"""The programmer-visible ChGraph device model (§V-A, Figure 13).

A general-purpose core drives its private ChGraph engine through two ISA
instructions, exposed to software as two low-level APIs:

* ``ChGraph_Configure()`` (the ``CH_CONFIGURE`` instruction) writes the
  memory-mapped configuration registers: the computation-phase label, the
  bases/sizes of the six hypergraph arrays, the bitmap base, the chunk's id
  range, and the OAG array bases.
* ``ChGraph_fetch_bipartite_edge()`` (``CH_FETCH_BIPARTITE_EDGE``) pops the
  next prefetched tuple from the bipartite-edge FIFO, bypassing the normal
  load datapath.  After the last tuple the engine delivers the fake tuple
  ``{-1, -1, -1, -1}`` and stalls.

This model is functional: it produces the exact tuple stream the hardware
would, using the HCG chain order.  Cycle-level cost accounting lives in
:mod:`repro.chgraph.hcg` / :mod:`repro.chgraph.prefetcher` and is composed
by the performance engine.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from repro.chgraph.fifo import BoundedFifo
from repro.core.chain import ChainGenerator
from repro.core.oag import Oag
from repro.core.tuples import END_OF_CHAINS, BipartiteTuple, TupleLoader
from repro.errors import ConfigurationError
from repro.hypergraph.hypergraph import Hypergraph
from repro.sim.config import SystemConfig

__all__ = ["ChGraphConfigRegisters", "ChGraphDevice"]

#: Figure 13's register file totals 84 bytes.
CONFIG_REGISTER_BYTES = 84


@dataclasses.dataclass
class ChGraphConfigRegisters:
    """The memory-mapped configuration registers (Figure 13).

    In this functional model the "base addresses" are the Python objects
    themselves; the simulated byte layout is owned by
    :class:`~repro.sim.layout.MemoryLayout`.
    """

    phase_label: int  # 1 = hyperedge computation, 0 = vertex computation
    hypergraph: Hypergraph
    bitmap: np.ndarray
    chunk_first: int
    chunk_last: int
    oag: Oag
    d_max: int = 16

    def __post_init__(self) -> None:
        if self.phase_label not in (0, 1):
            raise ConfigurationError("phase_label must be 0 or 1")
        if self.chunk_first > self.chunk_last:
            raise ConfigurationError("chunk range reversed")
        expected = self.chunk_last - self.chunk_first
        if self.oag.num_nodes != expected:
            raise ConfigurationError(
                f"OAG covers {self.oag.num_nodes} nodes, chunk has {expected}"
            )
        if self.bitmap.size != expected:
            raise ConfigurationError("bitmap must cover exactly the chunk")

    @property
    def scheduled_side(self) -> str:
        """Which side's elements the chains schedule."""
        return "vertex" if self.phase_label == 1 else "hyperedge"


class ChGraphDevice:
    """One core's ChGraph engine: configure, then stream tuples."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig(name="default")
        self.chain_fifo = BoundedFifo(self.config.chain_fifo_depth, entry_bytes=4)
        self.tuple_fifo = BoundedFifo(self.config.tuple_fifo_depth, entry_bytes=24)
        self._registers: ChGraphConfigRegisters | None = None
        self._stream = None

    # -- the two ISA-level operations ----------------------------------------

    def ch_configure(self, registers: ChGraphConfigRegisters) -> None:
        """``CH_CONFIGURE``: load the registers and arm the pipelines."""
        self._registers = registers
        self._stream = self._tuple_stream(registers)

    def ch_fetch_bipartite_edge(self) -> BipartiteTuple:
        """``CH_FETCH_BIPARTITE_EDGE``: next tuple (or the -1 sentinel)."""
        if self._stream is None:
            raise ConfigurationError("ChGraph not configured")
        self._refill()
        if self.tuple_fifo.is_empty:
            return END_OF_CHAINS
        return self.tuple_fifo.pop()

    # -- internals -----------------------------------------------------------

    def _refill(self) -> None:
        """The CP fills the tuple FIFO whenever it has space."""
        assert self._stream is not None
        while not self.tuple_fifo.is_full:
            entry = next(self._stream, None)
            if entry is None:
                break
            self.tuple_fifo.push(entry)

    def _tuple_stream(
        self, registers: ChGraphConfigRegisters
    ) -> Iterator[BipartiteTuple]:
        """HCG chains feeding the CP's tuple packing, as one generator."""
        generator = ChainGenerator(
            d_max=min(registers.d_max, self.config.stack_depth)
        )
        chains = generator.generate(registers.bitmap.astype(bool), registers.oag)
        loader = TupleLoader(registers.hypergraph, registers.scheduled_side)
        for chain in chains:
            for element in chain:
                # The chain FIFO decouples HCG from CP; occupancy is modelled
                # by pushing/popping each element through it.
                self.chain_fifo.push(element)
                yield from loader.edges_of(self.chain_fifo.pop())

    def drain(self) -> list[BipartiteTuple]:
        """Fetch every tuple until the sentinel (testing convenience)."""
        tuples = []
        while True:
            entry = self.ch_fetch_bipartite_edge()
            if entry == END_OF_CHAINS:
                return tuples
            tuples.append(entry)
