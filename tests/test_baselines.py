"""Every baseline in the registry: contract, learnability, mechanisms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    MODEL_FAMILIES,
    PersistenceForecaster,
    VARForecaster,
    WindowMeanForecaster,
    available_models,
    build_model,
    model_family,
    similarity_graph,
)
from repro.baselines.stsgcn import build_st_block_adjacency
from repro.optim import Adam
from repro.tensor import Tensor, functional as F, no_grad

HISTORY, HORIZON = 12, 12


@pytest.fixture(scope="module")
def x_batch(tiny_dataset):
    rng = np.random.default_rng(0)
    return Tensor(rng.standard_normal((2, tiny_dataset.num_sensors, HISTORY, 1)))


class TestRegistry:
    def test_every_model_has_a_family(self):
        from repro.harness.runner import NON_TRAINED

        # the analytic baselines train nothing, so they have no memory model
        assert set(available_models()) - NON_TRAINED == set(MODEL_FAMILIES)
        assert not NON_TRAINED & set(MODEL_FAMILIES)

    def test_unknown_model_raises(self, tiny_dataset):
        with pytest.raises(KeyError):
            build_model("nope", tiny_dataset, HISTORY, HORIZON)
        with pytest.raises(KeyError):
            model_family("nope")

    def test_name_lookup_case_insensitive(self, tiny_dataset):
        model = build_model("St-Wa", tiny_dataset, HISTORY, HORIZON)
        assert model is not None

    @pytest.mark.parametrize("name", sorted(available_models()))
    def test_forecaster_contract(self, name, tiny_dataset, x_batch):
        """(B, N, H, F) -> (B, N, U, F) for every registered model."""
        model = build_model(name, tiny_dataset, HISTORY, HORIZON, seed=0)
        with no_grad():
            out = model(x_batch)
        assert out.shape == (2, tiny_dataset.num_sensors, HORIZON, 1)
        assert np.all(np.isfinite(out.numpy()))

    @pytest.mark.parametrize(
        "name",
        ["gru", "att", "dcrnn", "stgcn", "gwn", "agcrn", "enhancenet", "meta-lstm", "stfgnn", "stsgcn", "astgnn", "stg2seq", "longformer"],
    )
    def test_one_training_step_reduces_loss(self, name, tiny_dataset, x_batch):
        """Gradients must actually reach each model's parameters."""
        model = build_model(name, tiny_dataset, HISTORY, HORIZON, seed=0)
        target = Tensor(np.zeros((2, tiny_dataset.num_sensors, HORIZON, 1)))
        optimizer = Adam(model.parameters(), lr=5e-3)
        losses = []
        for _ in range(8):
            optimizer.zero_grad()
            loss = F.huber_loss(model(x_batch), target)
            losses.append(loss.item())
            loss.backward()
            optimizer.step()
        # either the loss went down, or it was already at numerical zero
        assert losses[-1] < losses[0] or losses[-1] < 1e-4


class TestClassicalBaselines:
    def test_persistence_repeats_last_value(self, rng):
        model = PersistenceForecaster(4, 3)
        x = Tensor(rng.standard_normal((2, 5, 4, 1)))
        out = model(x).numpy()
        for step in range(3):
            np.testing.assert_array_equal(out[:, :, step], x.numpy()[:, :, -1])

    def test_window_mean(self, rng):
        model = WindowMeanForecaster(4, 2)
        x = Tensor(rng.standard_normal((2, 5, 4, 1)))
        out = model(x).numpy()
        np.testing.assert_allclose(out[:, :, 0], x.numpy().mean(axis=2))

    def test_var_requires_fit(self, rng):
        model = VARForecaster(3, 4, 2)
        with pytest.raises(RuntimeError, match="fit"):
            model(Tensor(rng.standard_normal((1, 3, 4, 1))))

    def test_var_input_validation(self):
        model = VARForecaster(3, 4, 2)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 50)))
        with pytest.raises(ValueError, match="sensor"):
            model.fit(np.zeros((5, 50, 1)))

    def test_var_recovers_linear_dynamics(self, rng):
        """VAR must nail a truly linear AR process."""
        n, total = 3, 400
        series = np.zeros((n, total))
        series[:, 0] = rng.standard_normal(n)
        coupling = np.array([[0.8, 0.1, 0.0], [0.0, 0.7, 0.2], [0.1, 0.0, 0.8]])
        for t in range(1, total):
            series[:, t] = coupling @ series[:, t - 1] + 0.01 * rng.standard_normal(n)
        data = series[:, :, None]
        model = VARForecaster(n, 4, 2, ridge=1e-6).fit(data[:, :300])
        x = Tensor(data[None, :, 300:304])
        prediction = model(x).numpy()[0, :, 0, 0]
        np.testing.assert_allclose(prediction, series[:, 304], atol=0.1)


class TestMechanisms:
    def test_stsgcn_block_adjacency_structure(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        block = build_st_block_adjacency(adj, steps=3)
        assert block.shape == (9, 9)
        # temporal self-connections exist between adjacent copies
        assert block[0, 3] > 0 and block[3, 6] > 0
        # no connection skipping a step
        assert block[0, 6] == 0

    def test_similarity_graph_topk_and_symmetric(self, rng):
        series = rng.standard_normal((6, 200, 1))
        series[1] = series[0] * 1.1 + 0.01 * rng.standard_normal((200, 1))  # correlated pair
        graph = similarity_graph(series, top_k=2)
        np.testing.assert_allclose(graph, graph.T)
        assert graph[0, 1] > 0  # finds the correlated pair
        np.testing.assert_allclose(np.diag(graph), 0.0)

    def test_similarity_graph_detects_lagged_twin(self, rng):
        base = np.cumsum(rng.standard_normal(203))
        series = np.zeros((3, 200, 1))
        series[0, :, 0] = base[:200]
        series[1, :, 0] = base[2:202]  # lag-2 twin
        series[2, :, 0] = rng.standard_normal(200)
        graph = similarity_graph(series, top_k=1, max_lag=2)
        assert graph[0, 1] > graph[0, 2]

    def test_enhancenet_memory_makes_sensors_behave_differently(self, tiny_dataset, rng):
        """Per-location memory = spatial awareness: identical inputs at two
        sensors yield different forecasts."""
        model = build_model("enhancenet", tiny_dataset, HISTORY, HORIZON, seed=0)
        n = tiny_dataset.num_sensors
        x_np = np.repeat(rng.standard_normal((1, 1, HISTORY, 1)), n, axis=1)
        with no_grad():
            out = model(Tensor(x_np)).numpy()
        assert not np.allclose(out[0, 0], out[0, 1])

    def test_meta_lstm_is_spatial_agnostic(self, tiny_dataset, rng):
        """meta-LSTM shares parameters across sensors: identical inputs give
        identical outputs (the paper's criticism)."""
        model = build_model("meta-lstm", tiny_dataset, HISTORY, HORIZON, seed=0)
        n = tiny_dataset.num_sensors
        x_np = np.repeat(rng.standard_normal((1, 1, HISTORY, 1)), n, axis=1)
        with no_grad():
            out = model(Tensor(x_np)).numpy()
        np.testing.assert_allclose(out[0, 0], out[0, 1], atol=1e-10)

    def test_agcrn_is_spatial_aware(self, tiny_dataset, rng):
        model = build_model("agcrn", tiny_dataset, HISTORY, HORIZON, seed=0)
        n = tiny_dataset.num_sensors
        x_np = np.repeat(rng.standard_normal((1, 1, HISTORY, 1)), n, axis=1)
        with no_grad():
            out = model(Tensor(x_np)).numpy()
        assert not np.allclose(out[0, 0], out[0, 1])
