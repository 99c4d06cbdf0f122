"""Online serving stack: artifacts, ring buffer, batcher, cache, engine."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.baselines import GRUForecaster
from repro.baselines.classical import PersistenceForecaster
from repro.data import WindowSpec
from repro.data.scalers import StandardScaler
from repro.exec import ExecutorSpec
from repro.obs import ListSink
from repro.resilience import CircuitBreaker
import repro.serve.engine as serve_engine
import repro.serve.state as serve_state
from repro.data.imputation import impute_series
from repro.serve import (
    ForecasterArtifact,
    LatencyHistogram,
    LiveWindow,
    MicroBatcher,
    PredictionCache,
    ServeConfig,
    ServingEngine,
    StreamStateStore,
    fingerprint_window,
    load_artifact,
)
from repro.tensor import (
    Tensor,
    inference_mode,
    is_grad_enabled,
    is_inference_mode_enabled,
)
from repro.training import CheckpointError, Trainer, TrainerConfig, latest_checkpoint

HISTORY = 12
HORIZON = 12


def make_scaler(loc=100.0, scale=20.0) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean, scaler.std = loc, scale
    return scaler


def make_artifact(model=None, history=HISTORY, horizon=HORIZON) -> ForecasterArtifact:
    if model is None:
        model = PersistenceForecaster(history, horizon)
    return ForecasterArtifact(
        model,
        scaler=make_scaler(),
        model_name="test-model",
        history=history,
        horizon=horizon,
    )


def raw_window(rng, sensors=4, history=HISTORY, features=1) -> np.ndarray:
    return 100.0 + 20.0 * rng.standard_normal((sensors, history, features))


# --------------------------------------------------------------------------- #
# inference mode
# --------------------------------------------------------------------------- #
class TestInferenceMode:
    def test_disables_grad_and_flags(self):
        assert not is_inference_mode_enabled()
        with inference_mode():
            assert is_inference_mode_enabled()
            assert not is_grad_enabled()
        assert not is_inference_mode_enabled()
        assert is_grad_enabled()

    def test_nested_restores_outer_state(self):
        with inference_mode():
            with inference_mode():
                assert is_inference_mode_enabled()
            assert is_inference_mode_enabled()
        assert not is_inference_mode_enabled()

    def test_no_graph_is_built(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with inference_mode():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        with pytest.raises(RuntimeError):
            y.backward()

    def test_matches_grad_enabled_forward(self, rng):
        model = GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        model.eval()
        x = rng.standard_normal((1, 3, HISTORY, 1))
        expected = model(Tensor(x)).numpy()
        with inference_mode():
            fast = model(Tensor(x)).numpy()
        np.testing.assert_array_equal(fast, expected)

    def test_mode_is_thread_local(self, rng):
        # A serving thread holding inference_mode open (as the MicroBatcher
        # worker does mid-forward) must not switch off graph recording for a
        # concurrently training thread — the fleet serves and fine-tunes in
        # the same process.
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def hold_inference_mode():
            with inference_mode():
                observed["inference"] = is_inference_mode_enabled()
                observed["grad"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=10.0)

        worker = threading.Thread(target=hold_inference_mode, daemon=True)
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            # worker saw its own mode...
            assert observed == {"inference": True, "grad": False}
            # ...but this thread still records a graph and can backprop
            assert not is_inference_mode_enabled()
            assert is_grad_enabled()
            x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            loss = (x * 2.0).sum()
            assert loss.requires_grad
            loss.backward()
            np.testing.assert_allclose(x.grad, 2.0 * np.ones((3, 3)))
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert is_grad_enabled() and not is_inference_mode_enabled()


# --------------------------------------------------------------------------- #
# latency metrics
# --------------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_quantiles_on_known_data(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):  # 1..100 ms
            histogram.record(ms / 1e3)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert 45.0 <= summary["p50_ms"] <= 55.0
        assert 90.0 <= summary["p95_ms"] <= 99.0
        assert summary["p99_ms"] <= 100.0

    def test_bounded_reservoir(self):
        histogram = LatencyHistogram(capacity=8)
        for _ in range(100):
            histogram.record(0.001)
        assert histogram.summary()["count"] == 100  # count is exact, storage bounded


# --------------------------------------------------------------------------- #
# streaming state store
# --------------------------------------------------------------------------- #
class TestStreamStateStore:
    def test_cold_stream_shorter_than_window(self):
        store = StreamStateStore(num_sensors=2, window=4)
        store.ingest(np.array([1.0, 10.0]))
        assert not store.ready
        window, mask = store.window()
        assert window.shape == (2, 4, 1)
        assert np.isfinite(window).all()  # prefix imputed, not NaN
        assert mask.sum() == 2  # only the single observed tick is real

    def test_window_is_chronological(self):
        store = StreamStateStore(num_sensors=1, window=3)
        for value in [1.0, 2.0, 3.0, 4.0]:  # wraps the ring once
            store.ingest(np.array([value]))
        window, _ = store.window()
        np.testing.assert_array_equal(window[0, :, 0], [2.0, 3.0, 4.0])
        assert store.ready

    def test_partial_tick_imputes_missing_sensors(self):
        store = StreamStateStore(num_sensors=3, window=2)
        store.ingest(np.array([1.0, 2.0, 3.0]))
        store.ingest(np.array([20.0]), sensor_ids=[1])  # only sensor 1 reports
        window, mask = store.window()
        assert np.isfinite(window).all()
        np.testing.assert_array_equal(window[1, :, 0], [2.0, 20.0])
        np.testing.assert_array_equal(mask[:, 1, 0], [0.0, 1.0, 0.0])

    def test_nan_observation_is_filled(self):
        store = StreamStateStore(num_sensors=1, window=2)
        store.ingest(np.array([5.0]))
        store.ingest(np.array([np.nan]))  # sensor sent garbage
        window, mask = store.window()
        np.testing.assert_array_equal(window[0, :, 0], [5.0, 5.0])  # last-value fill
        assert mask[0, 1, 0] == 0.0

    def test_version_is_monotone(self):
        store = StreamStateStore(num_sensors=1, window=2)
        versions = [store.ingest(np.array([float(i)])) for i in range(5)]
        assert versions == sorted(versions) and len(set(versions)) == 5

    def test_validation(self):
        store = StreamStateStore(num_sensors=2, window=3)
        with pytest.raises(ValueError):
            store.ingest(np.zeros(3))  # wrong sensor count
        with pytest.raises(IndexError):
            store.ingest(np.zeros(1), sensor_ids=[7])


class TestLiveWindowMemo:
    def test_matches_rolled_reference_over_seeded_ingests(self):
        sensors, width, features = 4, 5, 2
        rng = np.random.default_rng(2024)
        store = StreamStateStore(num_sensors=sensors, window=width, num_features=features)
        ring = np.full((sensors, width, features), np.nan)  # independent mirror
        head = 0
        for tick in range(50):  # 10 wrap-arounds of the ring
            values = 100.0 + 20.0 * rng.standard_normal((sensors, features))
            values[rng.random(values.shape) < 0.2] = np.nan
            column = np.full((sensors, features), np.nan)
            if tick % 3 == 2:  # partial tick: a random subset reports
                ids = np.flatnonzero(rng.random(sensors) < 0.5)
                store.ingest(values[ids], sensor_ids=ids)
                column[ids] = values[ids]
            else:
                store.ingest(values)
                column[:] = values
            ring[:, head, :] = column
            head = (head + 1) % width
            expected = impute_series(np.roll(ring, -head, axis=1))
            for got, want in zip(store.window(), expected):
                np.testing.assert_array_equal(got, want)

    def test_one_build_and_one_hash_per_version(self, rng, monkeypatch):
        calls = {"impute": 0, "fingerprint": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(serve_state, "impute_series", counting("impute", impute_series))
        hashing = counting("fingerprint", fingerprint_window)
        monkeypatch.setattr(serve_state, "fingerprint_window", hashing)
        monkeypatch.setattr(serve_engine, "fingerprint_window", hashing)
        with make_engine(rng) as engine:
            calls.update(impute=0, fingerprint=0)
            results = [engine.forecast() for _ in range(8)]
            records = {id(engine.store.live()) for _ in range(8)}
            engine.store.window()
            assert calls == {"impute": 1, "fingerprint": 1}
            assert len(records) == 1
            engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
            engine.forecast()
            engine.forecast()
        assert calls == {"impute": 2, "fingerprint": 2}
        assert [r.source for r in results].count("model") == 1

    def test_live_window_and_mask_are_read_only(self):
        store = StreamStateStore(num_sensors=2, window=3)
        store.ingest(np.array([1.0, 2.0]))
        window, mask = store.window()
        for array in (window, mask):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 99.0
        record = store.live()
        assert isinstance(record, LiveWindow)
        assert record.window is window and record.mask is mask
        assert record.version == store.version
        assert record.digest == fingerprint_window(window.copy())

    def test_ingest_rebuilds_the_record(self):
        store = StreamStateStore(num_sensors=1, window=2)
        store.ingest(np.array([1.0]))
        before = store.live()
        store.ingest(np.array([2.0]))
        after = store.live()
        assert after is not before and after.version == before.version + 1
        np.testing.assert_array_equal(before.window[0, :, 0], [0.0, 1.0])  # unchanged
        np.testing.assert_array_equal(after.window[0, :, 0], [1.0, 2.0])


# --------------------------------------------------------------------------- #
# prediction cache
# --------------------------------------------------------------------------- #
class TestPredictionCache:
    def test_hit_after_put(self, rng):
        cache = PredictionCache()
        window = raw_window(rng)
        key = cache.make_key("m1", window, HORIZON)
        assert cache.get(key) is None
        cache.put(key, np.ones(3), data_version=1)
        np.testing.assert_array_equal(cache.get(key), np.ones(3))
        assert cache.hit_rate == 0.5

    def test_key_distinguishes_model_window_horizon(self, rng):
        cache = PredictionCache()
        window = raw_window(rng)
        base = cache.make_key("m1", window, 12)
        assert cache.make_key("m2", window, 12) != base
        assert cache.make_key("m1", window, 6) != base
        assert cache.make_key("m1", window + 1.0, 12) != base
        assert cache.make_key("m1", window, 12) == base  # deterministic

    def test_ttl_expiry(self, rng):
        clock = [0.0]
        cache = PredictionCache(ttl_seconds=10.0, clock=lambda: clock[0])
        key = cache.make_key("m", raw_window(rng), HORIZON)
        cache.put(key, np.ones(2))
        clock[0] = 9.9
        assert cache.get(key) is not None
        clock[0] = 10.1
        assert cache.get(key) is None  # expired

    def test_invalidated_by_new_data(self, rng):
        cache = PredictionCache()
        stale = cache.make_key("m", raw_window(rng), HORIZON)
        fresh = cache.make_key("m", raw_window(rng), HORIZON)
        cache.put(stale, np.ones(2), data_version=3)
        cache.put(fresh, np.ones(2), data_version=5)
        dropped = cache.invalidate_before(5)
        assert dropped == 1
        assert cache.get(stale) is None
        assert cache.get(fresh) is not None

    def test_invalidation_scoped_to_model_id(self, rng):
        cache = PredictionCache()
        tenant_a = cache.make_key("city-a", raw_window(rng), HORIZON)
        tenant_b = cache.make_key("city-b", raw_window(rng), HORIZON)
        cache.put(tenant_a, np.ones(2), data_version=1)
        cache.put(tenant_b, np.ones(2), data_version=1)
        dropped = cache.invalidate_before(5, model_id="city-a")
        assert dropped == 1
        assert cache.get(tenant_a) is None  # the named tenant's entry went
        assert cache.get(tenant_b) is not None  # the other tenant's survived

    def test_invalidation_without_model_id_keeps_old_behaviour(self, rng):
        cache = PredictionCache()
        for tenant in ("city-a", "city-b"):
            cache.put(cache.make_key(tenant, raw_window(rng), HORIZON), np.ones(2), 1)
        assert cache.invalidate_before(5) == 2  # None = evict across tenants

    def test_lru_eviction(self, rng):
        cache = PredictionCache(capacity=2)
        keys = [cache.make_key("m", raw_window(rng), h) for h in (1, 2, 3)]
        cache.put(keys[0], np.zeros(1))
        cache.put(keys[1], np.zeros(1))
        cache.get(keys[0])  # touch: key 1 becomes the LRU entry
        cache.put(keys[2], np.zeros(1))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_put_stores_a_private_read_only_copy(self, rng):
        cache = PredictionCache()
        key = cache.make_key("m", raw_window(rng), HORIZON)
        value = np.ones(3)
        cache.put(key, value)
        value[0] = 99.0  # the filler's array is not the cached one
        hit = cache.get(key)
        np.testing.assert_array_equal(hit, np.ones(3))
        with pytest.raises(ValueError, match="read-only"):
            hit[0] = 99.0
        np.testing.assert_array_equal(cache.get(key), np.ones(3))

    def test_fingerprint_sensitive_to_every_element(self, rng):
        window = raw_window(rng)
        bumped = window.copy()
        bumped[-1, -1, 0] += 1e-9
        assert fingerprint_window(window) != fingerprint_window(bumped)


# --------------------------------------------------------------------------- #
# micro-batcher
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_single_request_roundtrip(self, rng):
        with MicroBatcher(lambda batch: batch * 2.0, max_wait_s=0.0) as batcher:
            window = raw_window(rng)
            result = batcher.submit(window).result(timeout=5.0)
            np.testing.assert_array_equal(result, window * 2.0)

    def test_coalesces_concurrent_requests(self, rng):
        release = threading.Event()
        batch_sizes = []

        def slow_forward(batch):
            release.wait(timeout=5.0)
            batch_sizes.append(batch.shape[0])
            return batch

        with MicroBatcher(slow_forward, max_batch_size=8, max_wait_s=0.05) as batcher:
            futures = [batcher.submit(raw_window(rng)) for _ in range(5)]
            release.set()
            for future in futures:
                future.result(timeout=5.0)
        # the concurrent requests ran in fewer, larger batches
        assert max(batch_sizes) > 1
        assert batcher.batches_run < batcher.requests_seen
        assert sum(batch_sizes) == 5

    def test_results_routed_to_their_requests(self, rng):
        with MicroBatcher(lambda batch: batch + 1.0, max_batch_size=4, max_wait_s=0.05) as batcher:
            windows = [raw_window(rng) for _ in range(6)]
            futures = [batcher.submit(w) for w in windows]
            for window, future in zip(windows, futures):
                np.testing.assert_array_equal(future.result(timeout=5.0), window + 1.0)

    def test_wait_excludes_idle_time_before_submit(self, rng):
        waits = []
        with MicroBatcher(
            lambda batch: batch, max_wait_s=0.0, on_batch=lambda *args: waits.append(args[2])
        ) as batcher:
            time.sleep(0.1)  # idle: nothing queued
            batcher.submit(raw_window(rng)).result(timeout=5.0)
        assert len(waits) == 1 and waits[0] < 0.02

    def test_fruitless_linger_turns_lingering_off(self, rng):
        outcomes = []
        with MicroBatcher(
            lambda batch: batch, max_wait_s=0.5, on_batch=lambda *args: outcomes.append(args[3])
        ) as batcher:
            batcher.submit(raw_window(rng)).result(timeout=5.0)  # lingers alone
            start = time.perf_counter()
            batcher.submit(raw_window(rng)).result(timeout=5.0)
            elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert outcomes == ["alone", "at_once"]

    def test_forward_error_fails_all_requests(self, rng):
        def broken(batch):
            raise RuntimeError("model exploded")

        with MicroBatcher(broken, max_wait_s=0.0) as batcher:
            future = batcher.submit(raw_window(rng))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=5.0)

    def test_rejects_after_close(self, rng):
        batcher = MicroBatcher(lambda batch: batch)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(raw_window(rng))


# --------------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes_after_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0, clock=lambda: clock[0])
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.allow() and not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open and not breaker.allow()
        clock[0] = 5.0
        assert breaker.allow()  # half-open probe
        breaker.record_success()
        assert not breaker.is_open and breaker.allow()

    def test_failed_probe_restarts_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        clock[0] = 9.0
        assert not breaker.allow()
        assert breaker.snapshot()["opens"] == 1

    def test_transitions_reported_closed_open_half_open_closed(self):
        clock, edges = [0.0], []
        breaker = CircuitBreaker(
            failure_threshold=2,
            cooldown_s=5.0,
            clock=lambda: clock[0],
            on_transition=lambda a, b: edges.append((a, b)),
        )
        breaker.record_failure()
        assert edges == []  # below threshold: still closed, no edge
        breaker.record_failure()
        clock[0] = 5.0
        breaker.allow()  # half-open probe
        breaker.record_success()
        assert edges == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]

    def test_failed_probe_transitions_half_open_to_open(self):
        clock, edges = [0.0], []
        breaker = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=5.0,
            clock=lambda: clock[0],
            on_transition=lambda a, b: edges.append((a, b)),
        )
        breaker.record_failure()
        clock[0] = 5.0
        breaker.allow()
        breaker.record_failure()
        assert edges == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "open"),
        ]
        assert breaker.state == "open"

    def test_snapshot_carries_state_and_callback_errors_are_swallowed(self):
        def explode(a, b):
            raise RuntimeError("observer crashed")

        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=0.0, on_transition=explode)
        assert breaker.snapshot()["state"] == "closed"
        breaker.record_failure()  # callback raises; circuit must still open
        assert breaker.snapshot()["state"] == "open"
        assert breaker.is_open

    def test_repeated_states_emit_no_duplicate_edges(self):
        edges = []
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1e9, on_transition=lambda a, b: edges.append((a, b))
        )
        breaker.record_success()  # closed -> closed: no edge
        breaker.record_failure()
        breaker.record_failure()  # open -> open: no extra edge
        assert edges == [("closed", "open")]

    def test_engine_emits_circuit_transition_events(self, rng):
        sink = ListSink()
        engine = make_engine(rng, sink=sink, failure_threshold=1, cooldown_s=30.0)
        hook = engine.artifact.model.register_forward_pre_hook(
            lambda module, args: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        try:
            window = raw_window(rng)
            assert engine.forecast(window).source == "fallback"
        finally:
            hook.remove()
            engine.close()
        transitions = sink.of_type("circuit_transition")
        assert [(e["from"], e["to"]) for e in transitions] == [("closed", "open")]
        assert transitions[0]["model_id"] == engine.artifact.model_id


# --------------------------------------------------------------------------- #
# forecaster artifact
# --------------------------------------------------------------------------- #
class TestForecasterArtifact:
    def test_predict_matches_manual_forward(self, rng):
        model = GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        scaler = make_scaler()
        artifact = ForecasterArtifact(
            model, scaler=scaler, model_name="gru", history=HISTORY, horizon=HORIZON
        )
        window = raw_window(rng, sensors=3)
        expected = scaler.inverse_transform(
            model(Tensor(scaler.transform(window[None]))).numpy()
        )[0]
        np.testing.assert_allclose(artifact.predict(window), expected)

    def test_freeze_disables_gradients_and_training(self):
        model = GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        model.train()
        artifact = make_artifact(model)
        assert not artifact.model.training
        assert all(not p.requires_grad for p in artifact.model.parameters())

    def test_dropout_model_is_deterministic(self, rng):
        class DropoutForecaster(nn.Module):
            def __init__(self):
                super().__init__()
                self.dropout = nn.Dropout(0.5, rng=np.random.default_rng(0))
                self.inner = PersistenceForecaster(HISTORY, HORIZON)

            def forward(self, x):
                return self.inner(self.dropout(x))

        artifact = make_artifact(DropoutForecaster())
        window = raw_window(rng)
        np.testing.assert_array_equal(artifact.predict(window), artifact.predict(window))

    def test_batched_and_single_windows(self, rng):
        artifact = make_artifact()
        single = raw_window(rng)
        batched = np.stack([single, single + 1.0])
        out_single = artifact.predict(single)
        out_batched = artifact.predict(batched)
        assert out_single.shape == (4, HORIZON, 1)
        assert out_batched.shape == (2, 4, HORIZON, 1)
        np.testing.assert_allclose(out_batched[0], out_single)

    def test_rejects_wrong_history_length(self, rng):
        artifact = make_artifact()
        with pytest.raises(ValueError, match="window"):
            artifact.predict(raw_window(rng, history=HISTORY + 1))

    def test_save_load_roundtrip_with_model(self, tmp_path, rng):
        model = GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        artifact = make_artifact(model)
        path = artifact.save(tmp_path / "artifact.npz")
        clone_model = GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=9)
        reloaded = load_artifact(path, model=clone_model)
        assert reloaded.model_id == artifact.model_id
        window = raw_window(rng, sensors=3)
        np.testing.assert_allclose(reloaded.predict(window), artifact.predict(window))

    def test_truncated_artifact_raises_checkpoint_error(self, tmp_path):
        path = make_artifact().save(tmp_path / "artifact.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_artifact(path, model=PersistenceForecaster(HISTORY, HORIZON))

    def test_foreign_archive_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_artifact(path, model=PersistenceForecaster(HISTORY, HORIZON))

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_artifact(tmp_path / "nope.npz")

    def test_from_training_checkpoint(self, tmp_path, tiny_dataset):
        model = GRUForecaster(HISTORY, HORIZON, hidden_size=8, predictor_hidden=32, seed=0)
        trainer = Trainer(
            model,
            tiny_dataset,
            WindowSpec(HISTORY, HORIZON),
            TrainerConfig(
                epochs=2,
                batch_size=16,
                max_batches_per_epoch=4,
                eval_batches=2,
                seed=0,
                checkpoint_dir=tmp_path,
            ),
        )
        trainer.fit()
        checkpoint = latest_checkpoint(tmp_path)
        assert checkpoint is not None
        fresh = GRUForecaster(HISTORY, HORIZON, hidden_size=8, predictor_hidden=32, seed=5)
        artifact = ForecasterArtifact.from_training_checkpoint(
            checkpoint,
            fresh,
            scaler=tiny_dataset.scaler,
            model_name="gru",
            history=HISTORY,
            horizon=HORIZON,
        )
        window = tiny_dataset.test_raw[:, :HISTORY, :]
        forecast = artifact.predict(window)
        assert forecast.shape == (tiny_dataset.num_sensors, HORIZON, 1)
        assert np.isfinite(forecast).all()


# --------------------------------------------------------------------------- #
# serving engine
# --------------------------------------------------------------------------- #
def make_engine(rng, **config_overrides) -> ServingEngine:
    defaults = dict(max_wait_ms=1.0, cooldown_s=0.02, failure_threshold=2)
    defaults.update(config_overrides)
    engine = ServingEngine(make_artifact(), num_sensors=4, config=ServeConfig(**defaults))
    for _ in range(HISTORY):
        engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
    return engine


def wait_for_fill(cache: PredictionCache, size: int, timeout: float = 5.0) -> None:
    """Block until the batcher's cache fill has landed (it runs after the waiter wakes)."""
    deadline = time.monotonic() + timeout
    while len(cache) < size:
        assert time.monotonic() < deadline, "cache fill never landed"
        time.sleep(0.001)


class TestServingEngine:
    def test_model_then_cache(self, rng):
        with make_engine(rng) as engine:
            first = engine.forecast()
            second = engine.forecast()
        assert first.source == "model" and first.ok
        assert second.source == "cache"
        np.testing.assert_array_equal(first.forecast, second.forecast)

    def test_forecast_is_last_value_for_persistence(self, rng):
        with make_engine(rng) as engine:
            window, _ = engine.store.window()
            result = engine.forecast()
        expected = np.repeat(window[:, -1:, :], HORIZON, axis=1)
        np.testing.assert_allclose(result.forecast, expected)

    def test_ingest_invalidates_cache(self, rng):
        with make_engine(rng) as engine:
            engine.forecast()
            engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
            after = engine.forecast()
        assert after.source == "model"  # stale entry was dropped

    def test_fallback_on_model_failure_then_circuit_opens(self, rng):
        sink = ListSink()
        with make_engine(rng, sink=sink) as engine:
            handle = engine.artifact.model.register_forward_pre_hook(
                lambda module, args: (_ for _ in ()).throw(RuntimeError("boom"))
            )
            try:
                windows = [raw_window(rng) for _ in range(3)]  # distinct: bypass the cache
                results = [engine.forecast(w) for w in windows]
            finally:
                handle.remove()
        assert all(r.source == "fallback" for r in results)
        assert "boom" in results[0].reason
        assert results[-1].reason == "circuit_open"  # threshold=2 opened the circuit
        # fallback is the persistence forecast of the requested window
        np.testing.assert_allclose(
            results[0].forecast, np.repeat(windows[0][:, -1:, :], HORIZON, axis=1)
        )
        assert len(sink.of_type("fallback")) == 3

    def test_recovers_after_circuit_cooldown(self, rng):
        with make_engine(rng) as engine:
            handle = engine.artifact.model.register_forward_pre_hook(
                lambda module, args: (_ for _ in ()).throw(RuntimeError("boom"))
            )
            try:
                for _ in range(2):
                    engine.forecast(raw_window(rng))
            finally:
                handle.remove()
            assert engine.circuit.is_open
            time.sleep(engine.config.cooldown_s + 0.01)
            recovered = engine.forecast(raw_window(rng))
        assert recovered.source == "model"
        assert not engine.circuit.is_open

    def test_deadline_overrun_falls_back(self, rng):
        with make_engine(rng, deadline_ms=1.0) as engine:
            release = threading.Event()
            original = engine.artifact.predict

            def stalled(batch):
                release.wait(timeout=5.0)
                return original(batch)

            engine.batcher.forward = stalled
            result = engine.forecast()
            release.set()
        assert result.source == "fallback"
        assert result.reason == "deadline_overrun"

    def test_stats_and_snapshot(self, rng):
        with make_engine(rng) as engine:
            engine.forecast()
            engine.forecast()
            snapshot = engine.snapshot()
        assert snapshot["cache_hit_rate"] == 0.5
        assert snapshot["requests"] == 2
        assert snapshot["latency"]["count"] == 2
        assert snapshot["circuit"]["open"] is False
        slo = engine.stats.slo_report(p95_ms=60_000.0)
        assert slo["ok"]
        failed = engine.stats.slo_report(p95_ms=1e-9)
        assert not failed["ok"]

    def test_slo_report_stamped_with_artifact_identity(self, rng):
        artifact = make_artifact()
        artifact.metadata["registry"] = {"model_id": "city-a", "version": 4}
        # pins the interpreted backend's stamp, so it asks for that backend
        config = ServeConfig(max_wait_ms=0.5, executor=ExecutorSpec.inference())
        with ServingEngine(artifact, num_sensors=4, config=config) as engine:
            for _ in range(HISTORY):
                engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
            served = engine.forecast()
            slo = engine.stats.slo_report(p95_ms=60_000.0)
            snapshot = engine.snapshot()
        # the interpreted backend serves the model itself, never the fallback
        assert served.source == "model" and engine.stats.fallbacks == 0
        assert slo["model_id"] == artifact.model_id
        assert slo["artifact_version"] == 4
        assert slo["executor_kind"] == "inference"
        assert snapshot["artifact_version"] == 4
        assert snapshot["executor_kind"] == "inference"

    def test_unregistered_artifact_has_no_version(self, rng):
        with make_engine(rng) as engine:
            assert engine.stats.slo_report()["artifact_version"] is None
            assert engine.artifact.registry_version is None

    def test_engines_share_a_store_and_invalidate_independently(self, rng):
        store = StreamStateStore(num_sensors=4, window=HISTORY)
        primary = ServingEngine(
            make_artifact(), num_sensors=4, config=ServeConfig(max_wait_ms=0.5), store=store
        )
        shadow = ServingEngine(
            make_artifact(GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8)),
            num_sensors=4,
            config=ServeConfig(max_wait_ms=0.5),
            store=store,
        )
        try:
            for _ in range(HISTORY):
                version = store.ingest(100.0 + 20.0 * rng.standard_normal(4))
            assert primary.store is shadow.store
            assert primary.forecast().source == "model"
            assert shadow.forecast().source == "model"  # same window, own cache
            assert primary.forecast().source == "cache"
            # the fleet hook: one tick, every arm invalidated by version
            version = store.ingest(100.0 + 20.0 * rng.standard_normal(4))
            assert primary.invalidate_stale(version) == 1
            assert shadow.invalidate_stale(version) == 1
            assert primary.forecast().source == "model"  # stale entry gone
        finally:
            primary.close()
            shadow.close()

    def test_default_engine_serves_compiled_plans(self, rng):
        artifact = make_artifact(
            GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        )
        windows = [raw_window(rng) for _ in range(3)]
        with ServingEngine(artifact, num_sensors=4) as engine:
            results = [engine.forecast(window) for window in windows]
            snapshot = engine.snapshot()
            stats = engine._model_executor.stats
        assert snapshot["executor_kind"] == engine.executor_kind == "compiled"
        assert stats["replays"] >= 2 and stats["fallback_steps"] == 0
        for window, result in zip(windows, results):
            assert result.source == "model"
            np.testing.assert_allclose(
                result.forecast, artifact.predict(window), rtol=1e-9, atol=1e-9
            )

    def test_forward_hook_forces_interpreted_serving_until_removed(self, rng):
        """A raising pre-hook must fault a warm compiled engine, then let go."""
        artifact = make_artifact(
            GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0)
        )
        config = ServeConfig(max_wait_ms=0.5, cooldown_s=0.0, failure_threshold=100)
        with ServingEngine(artifact, num_sensors=4, config=config) as engine:
            assert engine.forecast(raw_window(rng)).source == "model"  # plan traced
            assert engine.forecast(raw_window(rng)).source == "model"  # plan replayed
            handle = artifact.model.register_forward_pre_hook(
                lambda module, args: (_ for _ in ()).throw(RuntimeError("fault drill"))
            )
            try:
                faulted = [engine.forecast(raw_window(rng)) for _ in range(4)]
            finally:
                handle.remove()
            recovered = engine.forecast(raw_window(rng))
            stats = engine._model_executor.stats
        assert all(r.source != "model" for r in faulted)
        assert all("fault drill" in r.reason for r in faulted)
        assert stats["fallback_reasons"]["module_hooks"] == 4
        assert recovered.source == "model"
        assert stats["replays"] >= 2

    def test_served_forecasts_are_read_only_on_both_paths(self, rng):
        with make_engine(rng) as engine:
            model = engine.forecast()
            hit = engine.forecast()  # the fill has landed once this hits
            assert (model.source, hit.source) == ("model", "cache")
            assert not np.shares_memory(model.forecast, hit.forecast)
            for result in (model, hit):
                with pytest.raises(ValueError, match="read-only"):
                    result.forecast[0, 0, 0] = 99.0
            again = engine.forecast()
        np.testing.assert_array_equal(again.forecast, model.forecast)

    def test_requests_queued_behind_a_busy_forward_turn_lingering_on(self, rng):
        entered, release = threading.Event(), threading.Event()
        with make_engine(rng, max_wait_ms=50.0) as engine:
            original = engine.batcher.forward

            def blocking(batch):
                entered.set()
                release.wait(timeout=5.0)
                return original(batch)

            engine.batcher.submit(raw_window(rng)).result(timeout=5.0)  # alone: off
            engine.batcher.forward = blocking
            first = engine.batcher.submit(raw_window(rng))  # dispatched at once
            assert entered.wait(timeout=5.0)
            queued = [engine.batcher.submit(raw_window(rng)) for _ in range(2)]
            release.set()
            for future in [first] + queued:
                future.result(timeout=5.0)
            linger = engine.snapshot()["linger"]
            histogram = engine.stats.batch_sizes.histogram()
        assert linger == {"lingered": 2, "with_company": 1, "at_once": 1}
        assert histogram == {"1": 2, "2": 1}

    def test_concurrent_misses_on_one_window_coalesce(self, rng):
        clients = 4
        config = ServeConfig(max_batch_size=clients, max_wait_ms=200.0)
        with ServingEngine(make_artifact(), num_sensors=4, config=config) as engine:
            for _ in range(HISTORY):
                engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
            start = threading.Barrier(clients)

            def client(_):
                start.wait(timeout=5.0)
                return engine.forecast()

            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(pool.map(client, range(clients)))
        served_by_model = sum(r.source == "model" for r in results)
        assert served_by_model >= 2
        assert engine.batcher.batches_run < served_by_model

    def test_explicit_window_shares_the_live_entry_both_ways(self, rng):
        with make_engine(rng) as engine:
            live = engine.forecast()
            wait_for_fill(engine.cache, 1)
            explicit = engine.forecast(np.array(engine.store.window()[0]))
            engine.ingest(100.0 + 20.0 * rng.standard_normal(4))
            first = engine.forecast(np.array(engine.store.window()[0]))
            wait_for_fill(engine.cache, 1)
            second = engine.forecast()
        assert (live.source, explicit.source) == ("model", "cache")
        assert (first.source, second.source) == ("model", "cache")

    def test_cache_stamp_is_the_version_the_window_was_built_from(self, rng, tear_after_build):
        with make_engine(rng) as engine:
            built = tear_after_build(engine.store, 100.0 + 20.0 * rng.standard_normal(4))
            result = engine.forecast()
        assert result.source == "model"
        assert engine.store.version == built[0] + 1  # the ingest landed mid-request
        # the fill is stamped with the window's version, so the next
        # version's invalidation drops it
        assert engine.cache.invalidate_before(built[0]) == 0
        assert engine.cache.invalidate_before(built[0] + 1) == 1

    def test_shared_store_shape_mismatch_is_rejected(self):
        store = StreamStateStore(num_sensors=3, window=HISTORY)
        with pytest.raises(ValueError, match=r"shared store has shape \(N=3"):
            ServingEngine(make_artifact(), num_sensors=4, store=store)
