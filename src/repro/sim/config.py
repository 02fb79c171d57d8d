"""System configurations.

``table1_config`` reproduces the paper's Table I verbatim.  ``scaled_config``
shrinks the caches proportionally to the scaled-down datasets (DESIGN.md §5)
so that the working-set : cache ratios — which drive every locality result —
stay in the paper's regime while simulations finish in seconds.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError

__all__ = ["SystemConfig", "table1_config", "scaled_config"]


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Parameters of the simulated multi-core system (Table I).

    Cache sizes are per-core for L1/L2 and total for the shared L3.  Latency
    fields are in core cycles.  ``mlp`` is the effective memory-level
    parallelism of the Haswell-like OOO core: the average number of
    outstanding misses the core overlaps, used to convert summed miss
    latencies into stall cycles.
    """

    name: str
    num_cores: int = 16
    frequency_ghz: float = 2.2
    line_size: int = 64
    l1_size: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 3
    l2_size: int = 128 * 1024
    l2_assoc: int = 8
    l2_latency: int = 6
    l3_size: int = 32 * 1024 * 1024
    l3_assoc: int = 16
    l3_banks: int = 16
    l3_latency: int = 24
    # Table I's L3 is inclusive.  The scaled-down configs disable inclusion:
    # with a deliberately tiny LLC, inclusive back-invalidation would wipe
    # the private caches on every eviction, which the paper's (huge) L3
    # never does — non-inclusive keeps the scaled hierarchy in the same
    # behavioural regime as the full-size inclusive one.
    inclusive_l3: bool = True
    # Track full MESI directory state (Table I).  Off by default: the
    # synchronous engines' results and timing do not depend on it; enable to
    # measure coherence traffic (see tests/sim/test_coherence.py and the
    # ``ablation_coherence`` figure, whose runs carry the counters on
    # ``RunResult.coherence``).
    track_coherence: bool = False
    # Apply the DRAM bandwidth-contention model at each barrier: per-phase
    # demanded lines (fetches + writebacks) inflate that phase's memory
    # stalls via ``DramModel.contention_factor`` and floor the phase at
    # ``DramModel.drain_cycles``.  Off by default so the published figures
    # stay bit-identical; flip on to study bandwidth-bound regimes.
    dram_contention: bool = False
    noc_router_latency: int = 1
    noc_link_latency: int = 1
    dram_controllers: int = 4
    dram_latency: int = 120
    dram_gbps_per_controller: float = 12.8
    mlp: float = 2.0
    # Per-operation compute costs charged by the engines (cycles).
    apply_cycles: int = 6
    frontier_op_cycles: int = 1
    # Software GLA per-tuple overhead: indirection through the chain queue
    # and tuple packing that Hygra's tight index loop does not pay.
    sw_load_cycles: int = 2
    # Software chain generation: per OAG-edge inspection cost on the core
    # (weight compare + branch + bookkeeping).
    sw_explore_cycles: int = 10
    # Software Algorithm 3 sorts each explored node's active neighbors by
    # weight (Line 7, "SORT(N)") — the "expensive sorting overheads that may
    # outweigh the benefits" (Section I).  Cost per comparison-swap on the
    # core; the HCG avoids this via the weight-pre-sorted OAG rows.
    sw_sort_cycles: float = 8.0
    # CALIBRATED (not derived): total per-element cost of the software
    # Generate phase beyond the modelled loads — recursion, visited/active
    # bookkeeping, queue management.  Chosen so the software GLA slowdowns
    # land in the paper's Figure 14 band (1.13-1.62x slower, PR mildest)
    # and stay stable in the iteration count, as the paper reports; at our
    # scale the OAG is cache-resident, so this cannot emerge from first
    # principles (see DESIGN.md "timing calibration").
    sw_generate_cycles: float = 1000.0
    # ChGraph hardware pipelines (1 GHz engine vs 2.2 GHz core => each engine
    # stage occupies ~2.2 core cycles per element when not memory bound).
    hw_stage_cycles: float = 2.2
    # Outstanding-miss overlap of the pipelined chain-driven prefetcher
    # (bounded by the 32-deep FIFOs, far above a core's demand MLP).
    engine_mlp: float = 8.0
    fifo_pop_cycles: int = 1
    chain_fifo_depth: int = 32
    tuple_fifo_depth: int = 32
    stack_depth: int = 16

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("num_cores must be >= 1")
        if self.l3_banks < 1:
            raise ConfigurationError("l3_banks must be >= 1")
        for field in ("l1_size", "l2_size", "l3_size"):
            size = getattr(self, field)
            if size < self.line_size:
                raise ConfigurationError(f"{field}={size} smaller than a line")

    @property
    def dram_bytes_per_cycle_per_controller(self) -> float:
        return self.dram_gbps_per_controller / self.frequency_ghz

    @property
    def peak_dram_lines_per_cycle(self) -> float:
        """All controllers' peak line rate (``DramModel.peak_lines_per_cycle``)."""
        return (
            self.dram_controllers * self.dram_bytes_per_cycle_per_controller
        ) / self.line_size

    def replace(self, **changes: object) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


def table1_config() -> SystemConfig:
    """The paper's simulated system, verbatim from Table I."""
    return SystemConfig(name="table1")


def scaled_config(
    num_cores: int = 16,
    llc_kb: int = 4,
    l1_bytes: int = 1024,
    l2_bytes: int = 8192,
) -> SystemConfig:
    """Caches scaled down ~2000x to match the scaled datasets.

    The scaled datasets' value arrays are tens of KB, so an LLC of 8–32 KB
    reproduces the paper's "value arrays far exceed the LLC" regime, while
    L1/L2 still hold a chain's reuse window (a few KB).
    """
    return SystemConfig(
        name=f"scaled-{num_cores}c-{llc_kb}kb",
        num_cores=num_cores,
        l1_size=l1_bytes,
        l1_assoc=4,
        l2_size=l2_bytes,
        l2_assoc=8,
        l3_size=llc_kb * 1024,
        l3_assoc=16,
        l3_banks=4,
        inclusive_l3=False,
    )
