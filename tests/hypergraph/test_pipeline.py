"""The preprocessing-stage registry and pipeline composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hypergraph.pipeline import (
    PreprocessSpec,
    StageSpec,
    apply_pipeline,
    stage_names,
)


class TestStageSpec:
    def test_unknown_stage_rejected_with_known_names(self):
        with pytest.raises(ConfigurationError, match="no-such-stage"):
            StageSpec.make("no-such-stage").validate()
        with pytest.raises(ConfigurationError, match="locality-reorder"):
            StageSpec.make("no-such-stage").validate()

    def test_json_round_trip(self):
        spec = StageSpec.make("identity")
        assert StageSpec.from_json(spec.to_json()) == spec

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            StageSpec.from_json({"name": "identity", "turbo": True})

    def test_stage_params_rejected_for_parameterless_stage(self):
        """No stage takes parameters, so a request naming one fails when it
        is parsed, not in the worker that would run the stage."""
        with pytest.raises(ConfigurationError, match="no parameters"):
            PreprocessSpec.from_json(
                {"stages": [{"name": "identity", "params": {"level": 3}}]}
            )
        # The empty object every stage serializes with still parses.
        assert StageSpec.from_json({"name": "identity", "params": {}}) == \
            StageSpec("identity")


class TestPreprocessSpec:
    def test_defaults_match_oag_and_chain(self):
        from repro.core.chain import DEFAULT_D_MAX
        from repro.core.oag import DEFAULT_W_MIN

        spec = PreprocessSpec()
        assert spec.w_min == DEFAULT_W_MIN
        assert spec.d_max == DEFAULT_D_MAX
        assert spec.stages == ()

    def test_json_round_trip_with_stages(self):
        spec = PreprocessSpec(
            w_min=5, d_max=8,
            stages=(StageSpec.make("locality-reorder"),
                    StageSpec.make("identity")),
        )
        assert PreprocessSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "overrides",
        [{"w_min": 0}, {"d_max": -1}, {"w_min": 3.9}, {"d_max": True}],
    )
    def test_bad_parameters_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            PreprocessSpec(**overrides).validate()
        with pytest.raises(ConfigurationError):
            PreprocessSpec.from_json(overrides)

    def test_stage_must_be_an_object(self):
        with pytest.raises(ConfigurationError, match="must be an object"):
            PreprocessSpec.from_json({"stages": ["identity"]})

    def test_unknown_stage_in_list_rejected(self):
        spec = PreprocessSpec(stages=(StageSpec("bogus"),))
        with pytest.raises(ConfigurationError, match="bogus"):
            spec.validate()


class TestRegistry:
    def test_builtin_stages_registered(self):
        names = stage_names()
        assert "identity" in names
        assert "locality-reorder" in names
        assert names == tuple(sorted(names))


class TestApplyPipeline:
    def test_empty_pipeline_is_the_input(self, small_hypergraph):
        result = apply_pipeline(small_hypergraph, PreprocessSpec())
        assert result.hypergraph is small_hypergraph
        assert result.vertex_perm is None
        assert result.cost_accesses == 0

    def test_identity_stage_is_free(self, small_hypergraph):
        spec = PreprocessSpec(stages=(StageSpec.make("identity"),))
        result = apply_pipeline(small_hypergraph, spec)
        assert result.hypergraph is small_hypergraph
        assert result.vertex_perm is None
        assert result.cost_accesses == 0

    def test_locality_reorder_matches_direct_call(self, small_hypergraph):
        from repro.hypergraph.reorder import locality_reorder

        spec = PreprocessSpec(stages=(StageSpec.make("locality-reorder"),))
        result = apply_pipeline(small_hypergraph, spec)
        direct = locality_reorder(small_hypergraph)
        assert np.array_equal(result.vertex_perm, direct.vertex_perm)
        assert result.cost_accesses == direct.cost_accesses
        assert result.hypergraph.hyperedges == direct.hypergraph.hyperedges

    def test_permutations_compose_across_stages(self, small_hypergraph):
        """Running the reorder twice must compose old->new in one gather."""
        spec = PreprocessSpec(
            stages=(StageSpec.make("locality-reorder"),) * 2
        )
        result = apply_pipeline(small_hypergraph, spec)
        n = small_hypergraph.num_vertices
        perm = result.vertex_perm
        assert sorted(perm) == list(range(n))
        # Composed permutation maps each original vertex's degree onto the
        # final hypergraph's degree at its new id.
        for old in range(n):
            assert small_hypergraph.vertex_degree(old) == \
                result.hypergraph.vertex_degree(int(perm[old]))

    def test_unknown_stage_raises_before_running(self, small_hypergraph):
        spec = PreprocessSpec(stages=(StageSpec("bogus"),))
        with pytest.raises(ConfigurationError, match="bogus"):
            apply_pipeline(small_hypergraph, spec)
