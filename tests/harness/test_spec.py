"""RunSpec: normalization, JSON round trip, and golden store keys."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.harness.spec import RunSpec
from repro.hypergraph.pipeline import PreprocessSpec, StageSpec
from repro.sim.config import scaled_config
from repro.store.keys import resources_key, run_result_key

#: Pinned v7 keys for the fully-default spec against an all-zero dataset
#: hash.  These change ONLY on a deliberate schema bump (update them and
#: ``STORE_SCHEMA_VERSION`` together) — an accidental drift here would
#: silently orphan every cached artifact in existing stores.
GOLDEN_RUN_KEY = "1becf29fb54bcacb51d9f226da1addc2"
GOLDEN_RESOURCES_KEY = "0e8cd9794a5a729056fd4564a7e9551a"
#: sha256 over the run and resources keys of all 413 ``FIGURES`` specs
#: against the all-zero dataset hash: any drift orphans a figure's entries.
GOLDEN_FIGURE_KEYS = (
    "a9361e441cf0655e6c425e841259d9d2326962777923b08204ddb0373ae8d18b"
)


class TestNormalization:
    def test_none_fields_resolve_to_runner_defaults(self):
        spec = RunSpec("ChGraph", "PR", "WEB").normalized(pr_iterations=7)
        assert spec.config == scaled_config()
        assert spec.pr_iterations == 7
        assert spec.preprocessing == PreprocessSpec()

    def test_explicit_fields_beat_runner_defaults(self):
        spec = RunSpec(
            "ChGraph", "PR", "WEB",
            pr_iterations=3,
            preprocessing=PreprocessSpec(d_max=8),
        ).normalized(pr_iterations=7)
        assert spec.pr_iterations == 3
        assert spec.preprocessing == PreprocessSpec(d_max=8)

    def test_check_implies_profile(self):
        spec = RunSpec("ChGraph", "PR", "WEB", check=True).normalized()
        assert spec.profile and spec.check
        assert RunSpec("ChGraph", "PR", "WEB").normalized(check=True).profile

    def test_normalized_is_idempotent(self):
        spec = RunSpec("ChGraph", "PR", "WEB").normalized()
        assert spec.normalized() == spec

    @pytest.mark.parametrize(
        "fields",
        [
            {"engine": ""},
            {"algorithm": ""},
            {"dataset": ""},
            {"pr_iterations": 0},
        ],
    )
    def test_bad_fields_rejected(self, fields):
        base = dict(engine="ChGraph", algorithm="PR", dataset="WEB")
        with pytest.raises(ConfigurationError):
            RunSpec(**{**base, **fields}).validate()

    @pytest.mark.parametrize(
        "fields",
        [
            {"config": "x"},
            {"config": PreprocessSpec()},
            {"preprocessing": "x"},
            {"preprocessing": scaled_config()},
        ],
        ids=["config-str", "config-preprocess", "preprocessing-str",
             "preprocessing-config"],
    )
    def test_mistyped_records_rejected(self, fields):
        """``config``/``preprocessing`` must be ``None`` or their record."""
        spec = RunSpec("Hygra", "BFS", "FS", **fields)
        with pytest.raises(ConfigurationError, match="must be None or a"):
            spec.validate()
        with pytest.raises(ConfigurationError, match="must be None or a"):
            spec.normalized()


class TestJson:
    def test_round_trip_preserves_none_fields(self):
        spec = RunSpec("ChGraph", "PR", "WEB")
        back = RunSpec.from_json(spec.to_json())
        assert back == spec
        assert back.config is None and back.pr_iterations is None
        assert back.preprocessing is None

    def test_round_trip_full_spec(self):
        spec = RunSpec(
            "Hygra", "BFS", "FS",
            config=scaled_config(num_cores=4, llc_kb=2),
            pr_iterations=1,
            profile=True,
            check=True,
            preprocessing=PreprocessSpec(
                w_min=5, d_max=8,
                stages=(StageSpec.make("locality-reorder"),),
            ),
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="turbo"):
            RunSpec.from_json(
                {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
                 "turbo": True}
            )

    def test_unknown_stage_name_rejected(self):
        payload = RunSpec(
            "Hygra", "BFS", "FS",
            preprocessing=PreprocessSpec(stages=(StageSpec("identity"),)),
        ).to_json()
        payload["preprocessing"]["stages"][0]["name"] = "warp-speed"
        with pytest.raises(ConfigurationError, match="warp-speed"):
            RunSpec.from_json(payload)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError, match="config"):
            RunSpec.from_json(
                {"engine": "Hygra", "algorithm": "BFS", "dataset": "FS",
                 "config": {"no_such_field": 1}}
            )


class TestGoldenKeys:
    def test_default_run_key_is_pinned(self):
        spec = RunSpec("ChGraph", "PR", "WEB").normalized()
        assert run_result_key(spec, "0" * 64) == GOLDEN_RUN_KEY

    def test_default_resources_key_is_pinned(self):
        assert resources_key("0" * 64, 16) == GOLDEN_RESOURCES_KEY

    def test_json_round_trip_preserves_the_key(self):
        spec = RunSpec(
            "ChGraph", "PR", "WEB",
            preprocessing=PreprocessSpec(
                w_min=5, stages=(StageSpec.make("locality-reorder"),)
            ),
        ).normalized()
        back = RunSpec.from_json(spec.to_json())
        assert run_result_key(back, "0" * 64) == run_result_key(spec, "0" * 64)

    def test_every_figure_key_is_pinned(self):
        import hashlib

        from repro.harness.experiments import FIGURES

        digest = hashlib.sha256()
        specs = [
            spec.normalized()
            for figure in FIGURES.values()
            for spec in figure.specs()
        ]
        for spec in specs:
            digest.update(run_result_key(spec, "0" * 64).encode())
            digest.update(resources_key(
                "0" * 64, spec.config.num_cores, spec.preprocessing
            ).encode())
        assert len(specs) == 413
        assert digest.hexdigest() == GOLDEN_FIGURE_KEYS

    def test_key_is_dataset_name_blind(self):
        # Keys address *content*: renaming a dataset (same structure, same
        # content hash) must keep its cache entries valid.
        a = RunSpec("ChGraph", "PR", "WEB").normalized()
        b = RunSpec("ChGraph", "PR", "renamed").normalized()
        hash_ = "ab" * 32
        assert run_result_key(a, hash_) == run_result_key(b, hash_)

