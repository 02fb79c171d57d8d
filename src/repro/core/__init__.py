"""The paper's contribution: OAG, chains, and the GLA execution model."""

from repro._exports import exports

__getattr__, __all__ = exports(__name__, {
    "ChainGenerator": "chain",
    "ChainQuality": "metrics",
    "ChainSet": "chain",
    "Oag": "oag",
    "build_oag": "oag",
    "chain_quality": "metrics",
    "schedule_affinity": "metrics",
})
