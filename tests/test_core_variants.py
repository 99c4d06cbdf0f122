"""Variant factories and window-size stacking logic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    STWAConfig,
    default_window_sizes,
    make_deterministic_st_wa,
    make_mean_aggregator_st_wa,
    make_s_wa,
    make_st_wa,
    make_wa,
    make_wa1,
)
from repro.tensor import Tensor


class TestFactoryFlags:
    def test_st_wa_is_fully_aware(self):
        model = make_st_wa(4, model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert model.latent.mode == "st"
        assert not model.latent.deterministic

    def test_s_wa_is_spatial_only(self):
        model = make_s_wa(4, model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert model.latent.mode == "spatial"
        assert model.latent.temporal is None

    def test_wa_is_agnostic(self):
        model = make_wa(4, model_dim=8, skip_dim=8, predictor_hidden=16)
        assert model.latent is None
        assert model.layers[0].static_key is not None

    def test_wa1_single_layer(self):
        model = make_wa1(4, model_dim=8, skip_dim=8, predictor_hidden=16)
        assert len(model.layers) == 1

    def test_deterministic_flags(self):
        model = make_deterministic_st_wa(4, model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert model.latent.deterministic
        model(Tensor(np.zeros((2, 4, 12, 1))))
        assert model.kl_divergence() is None  # no KL term for the loss to weigh

    def test_mean_aggregator(self):
        model = make_mean_aggregator_st_wa(4, model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert model.layers[0].aggregator.mode == "mean"

    def test_generated_layers_have_no_static_projections(self):
        model = make_st_wa(4, model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert model.layers[0].static_key is None

    def test_custom_window_sizes_accepted(self):
        model = make_st_wa(4, history=12, window_sizes=(6, 2), model_dim=8, latent_dim=4, skip_dim=8, predictor_hidden=16)
        assert len(model.layers) == 2


class TestDefaultWindowSizes:
    def test_paper_defaults(self):
        assert default_window_sizes(12) == (3, 2, 2)
        assert default_window_sizes(72) == (6, 6, 2)

    @pytest.mark.parametrize("history", [12, 24, 36, 48, 60, 72, 96, 120, 144])
    def test_sizes_always_divide(self, history):
        sizes = default_window_sizes(history)
        remaining = history
        for size in sizes:
            assert remaining % size == 0
            remaining //= size
        assert remaining >= 1

    @given(st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_sizes_valid_for_any_history(self, history):
        sizes = default_window_sizes(history)
        assert len(sizes) >= 1
        config = STWAConfig(num_sensors=2, history=history, window_sizes=sizes)
        lengths = config.layer_lengths()  # must not raise
        assert lengths[0] == history

    def test_prime_history_falls_back_to_single_window(self):
        sizes = default_window_sizes(13)
        assert sizes == (13,)
