"""BuildSpec construction API: keyword builders, overrides, wrapped legacy builders."""

from __future__ import annotations

import warnings

import pytest

from repro.baselines import (
    MODEL_BUILDERS,
    BuildSpec,
    build_from_spec,
    build_model,
    register_model,
)
from repro.baselines.gru_seq2seq import GRUForecaster

HISTORY, HORIZON = 12, 12


def spec_for(dataset, **kwargs):
    return BuildSpec(dataset=dataset, history=HISTORY, horizon=HORIZON, **kwargs)


class TestBuildSpec:
    def test_build_from_spec(self, tiny_dataset):
        model = build_from_spec("st-wa", spec_for(tiny_dataset, seed=3))
        assert model.num_parameters() > 0

    def test_case_insensitive(self, tiny_dataset):
        assert build_from_spec("St-Wa", spec_for(tiny_dataset)) is not None

    def test_unknown_model_raises(self, tiny_dataset):
        with pytest.raises(KeyError):
            build_from_spec("nope", spec_for(tiny_dataset))

    def test_overrides_reach_constructor(self, tiny_dataset):
        small = build_from_spec("gru", spec_for(tiny_dataset, overrides={"hidden_size": 4}))
        large = build_from_spec("gru", spec_for(tiny_dataset, overrides={"hidden_size": 32}))
        assert small.num_parameters() < large.num_parameters()

    def test_unknown_override_raises(self, tiny_dataset):
        with pytest.raises(TypeError):
            build_from_spec("gru", spec_for(tiny_dataset, overrides={"wingspan": 3}))

    def test_replace(self, tiny_dataset):
        spec = spec_for(tiny_dataset, seed=0)
        other = spec.replace(seed=5, horizon=24)
        assert other.seed == 5 and other.horizon == 24
        assert other.dataset is spec.dataset and spec.seed == 0

    def test_positional_build_model_still_works(self, tiny_dataset):
        model = build_model("gru", tiny_dataset, HISTORY, HORIZON, seed=0)
        assert model.num_parameters() > 0

    def test_build_model_forwards_overrides(self, tiny_dataset):
        model = build_model("gru", tiny_dataset, HISTORY, HORIZON, overrides={"hidden_size": 4})
        baseline = build_model("gru", tiny_dataset, HISTORY, HORIZON)
        assert model.num_parameters() < baseline.num_parameters()


class TestLegacyRejection:
    def legacy_builder(self, ds, history, horizon, seed):
        return GRUForecaster(history, horizon, hidden_size=4, predictor_hidden=8, seed=seed)

    def test_hand_wrapped_legacy_builder_registers(self, tiny_dataset):
        # the documented migration: close over the old callable yourself
        register_model(
            "legacy-wrapped",
            lambda spec: self.legacy_builder(
                spec.dataset, spec.history, spec.horizon, spec.seed
            ),
        )
        try:
            model = build_from_spec("legacy-wrapped", spec_for(tiny_dataset))
            assert model.num_parameters() > 0
        finally:
            MODEL_BUILDERS.pop("legacy-wrapped", None)

    def test_new_style_builder_not_wrapped(self, tiny_dataset):
        def builder(spec):
            return GRUForecaster(spec.history, spec.horizon, hidden_size=4, predictor_hidden=8, seed=spec.seed)

        register_model("new-style-test", builder)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = build_from_spec("new-style-test", spec_for(tiny_dataset))
            assert model.num_parameters() > 0
        finally:
            MODEL_BUILDERS.pop("new-style-test", None)
