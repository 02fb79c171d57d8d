"""The declarative engine registry: names, construction, resource gating."""

from __future__ import annotations

import pytest

from repro.engine import (
    ENGINE_REGISTRY,
    ChGraphEngine,
    GlaResources,
    HygraEngine,
    create_engine,
    engine_names,
)
from repro.engine.interleaved import InterleavedHygraEngine
from repro.engine.pull import PullHygraEngine


def test_registry_covers_every_engine_in_order():
    assert engine_names() == (
        "Hygra", "Hygra-pull", "Hygra-interleaved", "GLA", "GLA-cached",
        "ChGraph", "ChGraph-uncached", "ChGraph-HCGonly", "ChGraph-CPonly",
        "Ligra", "EventPrefetcher", "HATS-V",
    )
    # Spec names agree with the keys they are registered under, and with
    # the name each constructed engine reports.
    for name, spec in ENGINE_REGISTRY.items():
        assert spec.name == name


def test_create_engine_builds_the_right_classes(small_hypergraph):
    assert isinstance(create_engine("Hygra"), HygraEngine)
    assert isinstance(create_engine("Hygra-pull"), PullHygraEngine)
    assert isinstance(create_engine("Hygra-interleaved"), InterleavedHygraEngine)
    resources = GlaResources.build(small_hypergraph, 2)
    engine = create_engine("ChGraph", resources)
    assert isinstance(engine, ChGraphEngine)
    assert engine.resources is resources
    assert engine.use_hcg and engine.use_cp


def test_ablation_specs_set_their_switches(small_hypergraph):
    resources = GlaResources.build(small_hypergraph, 2)
    hcg_only = create_engine("ChGraph-HCGonly", resources)
    assert hcg_only.use_hcg and not hcg_only.use_cp
    cp_only = create_engine("ChGraph-CPonly", resources)
    assert not cp_only.use_hcg and cp_only.use_cp
    assert create_engine("GLA-cached", resources).cache_dense_chains
    assert not create_engine("GLA", resources).cache_dense_chains
    assert not create_engine("ChGraph-uncached", resources).cache_dense_chains


def test_engine_name_matches_registry_key(small_hypergraph):
    resources = GlaResources.build(small_hypergraph, 2)
    for name, spec in ENGINE_REGISTRY.items():
        if name == "Ligra":
            continue  # only constructs meaningfully on 2-uniform inputs
        engine = create_engine(name, resources if spec.needs_resources else None)
        assert engine.name == name


def test_unknown_engine_lists_the_known_ones():
    with pytest.raises(KeyError, match="Hygra.*ChGraph"):
        create_engine("nope")


def test_resource_engines_refuse_to_build_bare():
    with pytest.raises(ValueError, match="requires GlaResources"):
        create_engine("ChGraph")
    # Demand-path engines ignore the resources argument entirely.
    assert isinstance(create_engine("Hygra", None), HygraEngine)
