"""Fleet lifecycle: registry, router, drift detector, manager."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.baselines import GRUForecaster
from repro.baselines.classical import PersistenceForecaster
from repro.data.scalers import StandardScaler
from repro.fleet import (
    DriftDetector,
    DriftPolicy,
    FleetConfig,
    FleetManager,
    FleetRouter,
    ModelRegistry,
    RegistryError,
    RetrainPolicy,
    UnknownModelError,
    holdout_mae,
)
from repro.obs import ListSink
from repro.serve import ForecasterArtifact, ServeConfig

HISTORY = 8
HORIZON = 4
SENSORS = 5


def make_scaler(loc=100.0, scale=20.0) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean, scaler.std = loc, scale
    return scaler


def make_artifact(loc=100.0, history=HISTORY, horizon=HORIZON) -> ForecasterArtifact:
    """Persistence artifact; distinct ``loc`` gives a distinct model_id-free
    behaviour for shadow/A-B divergence (persistence itself is scaler-free,
    so differing behaviour comes from nothing — use GRU when weights must
    differ; use loc only as a label here)."""
    return ForecasterArtifact(
        PersistenceForecaster(history, horizon),
        scaler=make_scaler(loc),
        model_name="persistence",
        history=history,
        horizon=horizon,
    )


def make_gru_artifact(seed=0, history=HISTORY, horizon=HORIZON) -> ForecasterArtifact:
    model = GRUForecaster(history, horizon, hidden_size=4, predictor_hidden=8, seed=seed)
    return ForecasterArtifact(
        model,
        scaler=make_scaler(),
        model_name="gru",
        history=history,
        horizon=horizon,
    )


def raw_window(rng, sensors=SENSORS, history=HISTORY, features=1) -> np.ndarray:
    return 100.0 + 20.0 * rng.standard_normal((sensors, history, features))


def warm_router(router, model_id, rng, ticks=HISTORY):
    for _ in range(ticks):
        router.ingest(model_id, 100.0 + 20.0 * rng.standard_normal(SENSORS))


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestModelRegistry:
    def test_publish_promote_load_roundtrip(self, tmp_path, rng):
        registry = ModelRegistry(tmp_path)
        artifact = make_gru_artifact(seed=0)
        version = registry.publish("city-a", artifact, metrics={"mae": 1.5}, promote=True)
        assert version == 1
        assert registry.models() == ["city-a"]
        assert registry.live_version("city-a") == 1
        assert [e["version"] for e in registry.versions("city-a")] == [1]
        assert [e["action"] for e in registry.history("city-a")] == ["publish", "promote"]

        loaded = registry.load("city-a", model=GRUForecaster(
            HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=9
        ))
        assert loaded.model_id == artifact.model_id
        assert loaded.registry_version == 1
        window = raw_window(rng)
        np.testing.assert_allclose(loaded.predict(window), artifact.predict(window))

    def test_unpromoted_publish_does_not_move_live(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", make_artifact(), promote=True)
        registry.publish("m", make_artifact())
        assert registry.live_version("m") == 1
        assert len(registry.versions("m")) == 2

    def test_rollback_restores_previous_promoted(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", make_artifact(), promote=True)
        v2 = registry.publish("m", make_artifact(), promote=True)
        assert registry.live_version("m") == v2
        assert registry.rollback("m") == 1
        assert registry.live_version("m") == 1
        # rolling back the rollback re-promotes v2
        assert registry.rollback("m") == 2

    def test_rollback_without_history_diagnoses(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="no model"):
            registry.rollback("ghost")
        registry.publish("m", make_artifact(), promote=True)
        with pytest.raises(RegistryError, match="no earlier promoted version"):
            registry.rollback("m")

    def test_unknown_version_names_known_ones(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", make_artifact(), promote=True)
        with pytest.raises(RegistryError, match=r"no version 7 \(known versions: \[1\]\)"):
            registry.promote("m", 7)

    def test_load_without_live_version_diagnoses(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", make_artifact())  # published, never promoted
        with pytest.raises(RegistryError, match="no live version"):
            registry.load("m")

    def test_invalid_model_id_rejected(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(RegistryError, match="not a valid registry key"):
                registry.publish(bad, make_artifact())


class TestRegistryCorruption:
    """Truncated/foreign/skewed manifests and vanished archives must
    diagnose themselves with found-vs-expected messages."""

    def _seeded(self, tmp_path) -> ModelRegistry:
        registry = ModelRegistry(tmp_path)
        registry.publish("m", make_artifact(), promote=True)
        return registry

    def test_truncated_manifest(self, tmp_path):
        registry = self._seeded(tmp_path)
        manifest = tmp_path / "m" / "MANIFEST.json"
        manifest.write_text(manifest.read_text()[: 40])
        with pytest.raises(RegistryError, match="corrupt or truncated"):
            registry.live_version("m")

    def test_foreign_json_manifest(self, tmp_path):
        registry = self._seeded(tmp_path)
        (tmp_path / "m" / "MANIFEST.json").write_text('{"hello": "world"}\n')
        with pytest.raises(RegistryError, match="missing 'schema' discriminator"):
            registry.versions("m")

    def test_schema_skew_names_found_and_expected(self, tmp_path):
        registry = self._seeded(tmp_path)
        manifest = tmp_path / "m" / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        data["schema"] = 99
        manifest.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="schema version 99, expected 1"):
            registry.live_version("m")

    def test_missing_required_field(self, tmp_path):
        registry = self._seeded(tmp_path)
        manifest = tmp_path / "m" / "MANIFEST.json"
        data = json.loads(manifest.read_text())
        del data["next_version"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(RegistryError, match="missing required field 'next_version'"):
            registry.versions("m")

    def test_missing_artifact_file(self, tmp_path):
        registry = self._seeded(tmp_path)
        (tmp_path / "m" / "v0001.npz").unlink()
        with pytest.raises(RegistryError, match="does not exist"):
            registry.load("m")

    def test_digest_mismatch_on_swapped_archive(self, tmp_path):
        registry = self._seeded(tmp_path)
        foreign = make_gru_artifact(seed=3)
        foreign.save(tmp_path / "m" / "v0001.npz")
        with pytest.raises(RegistryError, match="digest .* but the manifest recorded"):
            registry.load("m", model=GRUForecaster(
                HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=0
            ))

    def test_publish_refuses_to_clobber_corrupt_manifest(self, tmp_path):
        registry = self._seeded(tmp_path)
        manifest = tmp_path / "m" / "MANIFEST.json"
        manifest.write_text("{not json")
        with pytest.raises(RegistryError, match="corrupt or truncated"):
            registry.publish("m", make_artifact(), promote=True)
        assert manifest.read_text() == "{not json"  # untouched

    def test_missing_manifest_names_known_models(self, tmp_path):
        registry = self._seeded(tmp_path)
        with pytest.raises(RegistryError, match=r"known models: \['m'\]"):
            registry.live_version("ghost")


# --------------------------------------------------------------------------- #
# drift detector
# --------------------------------------------------------------------------- #
class TestDriftDetector:
    def test_calibrates_then_trips_once_on_shift(self):
        detector = DriftDetector(DriftPolicy(window=4, calibration=4, factor=1.5, min_samples=2))
        trips = [detector.record(1.0) for _ in range(6)]
        assert not any(trips)
        assert detector.calibrated and detector.effective_baseline == pytest.approx(1.0)
        trips = [detector.record(5.0) for _ in range(6)]
        assert trips.count(True) == 1  # edge-triggered, not level-triggered
        assert detector.check()["drifted"]

    def test_stable_stream_never_trips(self):
        detector = DriftDetector(DriftPolicy(window=4, calibration=4, factor=1.5, min_samples=2))
        assert not any(detector.record(2.0 + 0.1 * (i % 3)) for i in range(50))

    def test_explicit_baseline_skips_calibration(self):
        detector = DriftDetector(
            DriftPolicy(window=3, calibration=10, factor=2.0, min_samples=3), baseline=1.0
        )
        assert detector.calibrated
        assert [detector.record(5.0) for i in range(3)].count(True) == 1

    def test_reset_rearms(self):
        detector = DriftDetector(DriftPolicy(window=3, calibration=3, factor=1.5, min_samples=2))
        for _ in range(3):
            detector.record(1.0)
        assert any(detector.record(9.0) for _ in range(3))
        detector.reset()
        assert not detector.calibrated and not detector.check()["drifted"]
        for _ in range(3):
            assert not detector.record(9.0)  # recalibrates at the new level
        assert not detector.record(9.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DriftPolicy(window=0)
        with pytest.raises(ValueError):
            DriftPolicy(factor=1.0)
        with pytest.raises(ValueError):
            DriftPolicy(min_samples=0)


# --------------------------------------------------------------------------- #
# router
# --------------------------------------------------------------------------- #
def make_router(**overrides) -> FleetRouter:
    defaults = dict(
        max_inflight=4,
        drain_timeout_s=5.0,
        serve=ServeConfig(max_wait_ms=0.5, cooldown_s=0.02, deadline_ms=10_000.0),
        drift=DriftPolicy(window=4, calibration=4, factor=1.5, min_samples=2),
    )
    defaults.update(overrides)
    return FleetRouter(FleetConfig(**defaults))


class TestFleetRouter:
    def test_routes_by_model_id(self, rng):
        with make_router() as router:
            router.add_model("city-a", make_artifact(), SENSORS)
            router.add_model("city-b", make_gru_artifact(), SENSORS)
            warm_router(router, "city-a", rng)
            warm_router(router, "city-b", rng)
            a, b = router.forecast("city-a"), router.forecast("city-b")
            assert a.model_id == "city-a" and b.model_id == "city-b"
            assert a.ok and b.ok
            assert sorted(router.models()) == ["city-a", "city-b"]
            with pytest.raises(UnknownModelError):
                router.forecast("city-z")

    def test_duplicate_deploy_rejected(self):
        with make_router() as router:
            router.add_model("m", make_artifact(), SENSORS)
            with pytest.raises(ValueError, match="already deployed"):
                router.add_model("m", make_artifact(), SENSORS)

    def test_admission_sheds_over_capacity(self, rng):
        sink = ListSink()
        with make_router(max_inflight=1, sink=sink) as router:
            artifact = make_artifact()
            router.add_model("m", artifact, SENSORS)
            warm_router(router, "m", rng)
            hook = artifact.model.register_forward_pre_hook(
                lambda module, args: time.sleep(0.05)
            )
            try:
                results = []
                threads = [
                    threading.Thread(target=lambda: results.append(router.forecast("m")))
                    for _ in range(6)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                hook.remove()
            sheds = [r for r in results if r.source == "shed"]
            assert sheds and len(results) == 6
            for shed in sheds:
                assert shed.arm == "shed" and shed.reason == "admission_overload"
                assert shed.forecast.shape == (SENSORS, HORIZON, 1)
            assert router.snapshot()["tenants"]["m"]["sheds"] == len(sheds)
            assert len(sink.of_type("fleet_shed")) == len(sheds)

    def test_hot_swap_is_zero_drop_under_load(self, rng):
        with make_router() as router:
            router.add_model("m", make_gru_artifact(seed=0), SENSORS, version=1)
            warm_router(router, "m", rng)
            results, errors = [], []
            stop = threading.Event()

            def client():
                while not stop.is_set():
                    try:
                        results.append(router.forecast("m"))
                    except Exception as error:  # pragma: no cover - the failure mode
                        errors.append(error)
                        return

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            report = router.swap("m", make_gru_artifact(seed=1), version=2)
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join()

            assert not errors
            assert report["drained"] and report["from_version"] == 1
            assert router.live_version("m") == 2
            assert {r.source for r in results} <= {"model", "cache", "fallback", "shed"}
            versions = {r.version for r in results}
            assert versions <= {1, 2}
            assert router.forecast("m").version == 2

    def test_swap_resets_drift(self, rng):
        with make_router() as router:
            router.add_model("m", make_artifact(), SENSORS)
            warm_router(router, "m", rng)
            # calibrate low, then drive the stream away from persistence
            for _ in range(6):
                router.forecast("m")
                router.ingest("m", 100.0 + 1.0 * rng.standard_normal(SENSORS))
            for _ in range(8):
                router.forecast("m")
                router.ingest("m", 300.0 + 1.0 * rng.standard_normal(SENSORS))
            assert router.drift_status("m")["drifted"]
            router.swap("m", make_artifact())
            assert not router.drift_status("m")["drifted"]

    def test_shadow_divergence_accumulates_off_path(self, rng):
        sink = ListSink()
        with make_router(sink=sink) as router:
            router.add_model("m", make_gru_artifact(seed=0), SENSORS, version=1)
            warm_router(router, "m", rng)
            router.start_shadow("m", make_gru_artifact(seed=1), version=7)
            for _ in range(5):
                router.ingest("m", 100.0 + 20.0 * rng.standard_normal(SENSORS))
                assert router.forecast("m").arm == "primary"  # shadow never serves
            assert router.drain_shadow(timeout_s=5.0)
            summary = router.stop_shadow("m")
            assert summary["version"] == 7
            assert summary["compared"] == 5
            assert summary["mean_mae"] > 0  # different seeds genuinely diverge
            events = sink.of_type("shadow_divergence")
            assert len(events) == 5
            assert events[0]["shadow_version"] == 7 and events[0]["primary_version"] == 1

    def test_promote_shadow_swaps_it_live(self, rng):
        with make_router() as router:
            router.add_model("m", make_gru_artifact(seed=0), SENSORS, version=1)
            warm_router(router, "m", rng)
            shadow = make_gru_artifact(seed=1)
            router.start_shadow("m", shadow, version=2)
            router.forecast("m")
            router.drain_shadow(timeout_s=5.0)
            report = router.promote_shadow("m")
            assert report["to_version"] == 2 and "shadow" in report
            assert router.live_artifact("m") is shadow
            assert router.stop_shadow("m")["compared"] == 0  # detached

    def test_ab_split_is_deterministic_and_concludable(self, rng):
        with make_router() as router:
            router.add_model("m", make_gru_artifact(seed=0), SENSORS, version=1)
            warm_router(router, "m", rng)
            router.set_ab("m", make_gru_artifact(seed=1), weight=0.25, version=2)
            arms = []
            for _ in range(16):
                arms.append(router.forecast("m").arm)
            # error diffusion: exactly weight * n requests on the candidate
            assert arms.count("candidate") == 4
            report = router.conclude_ab("m", promote=True)
            assert report["promoted"] and report["live_version"] == 2
            assert report["arms"]["candidate"]["requests"] == 4
            assert router.live_version("m") == 2
            with pytest.raises(ValueError, match="no A/B candidate"):
                router.conclude_ab("m", promote=False)

    def test_ab_weight_validation_and_single_candidate(self, rng):
        with make_router() as router:
            router.add_model("m", make_artifact(), SENSORS)
            warm_router(router, "m", rng)
            with pytest.raises(ValueError, match="weight must be in"):
                router.set_ab("m", make_artifact(), weight=1.0)
            router.set_ab("m", make_artifact(), weight=0.5)
            with pytest.raises(ValueError, match="already has an A/B candidate"):
                router.set_ab("m", make_artifact(), weight=0.5)

    def test_remove_model_and_close_idempotent(self, rng):
        router = make_router()
        router.add_model("m", make_artifact(), SENSORS)
        warm_router(router, "m", rng)
        router.remove_model("m")
        assert router.models() == []
        with pytest.raises(UnknownModelError):
            router.remove_model("m")
        router.close()
        router.close()  # second close is a no-op
        with pytest.raises(RuntimeError, match="closed"):
            router.add_model("m", make_artifact(), SENSORS)

    def test_torn_ingest_stamps_the_version_the_window_was_built_from(
        self, rng, tear_after_build
    ):
        with FleetRouter() as router:
            router.add_model("city", make_artifact(), SENSORS)
            warm_router(router, "city", rng)
            tenant = router._tenant("city")
            built = tear_after_build(tenant.store, 100.0 + 20.0 * rng.standard_normal(SENSORS))
            result = router.forecast("city")
            assert result.source == "model"
            assert tenant.store.version == built[0] + 1  # the ingest landed mid-request
            assert tenant.pending[0] == built[0]
            engine = tenant.primary.engine
            engine.close()  # joins the batcher: the cache fill has landed
            assert engine.cache.invalidate_before(built[0]) == 0
            assert engine.cache.invalidate_before(built[0] + 1) == 1
            # the forecast was of the tick that has already arrived, so the
            # next tick's observations are no residual for it
            router.ingest("city", 100.0 + 20.0 * rng.standard_normal(SENSORS))
            assert tenant.drift.samples == 0

    def test_events_are_stamped_with_tenant_identity(self, rng):
        sink = ListSink()
        with make_router(sink=sink) as router:
            router.add_model("m", make_artifact(), SENSORS, version=3)
            warm_router(router, "m", rng)
            router.forecast("m")
            stamped = [e for e in sink.events if e.get("tenant") == "m"]
            assert stamped
            engine_events = [e for e in stamped if e["event"] == "request"]
            assert engine_events and engine_events[0]["artifact_version"] == 3


# --------------------------------------------------------------------------- #
# manager
# --------------------------------------------------------------------------- #
class TestFleetManager:
    def _deploy(self, tmp_path, tiny_dataset):
        registry = ModelRegistry(tmp_path / "registry")
        artifact = make_gru_artifact(seed=0, history=HISTORY, horizon=HORIZON)
        registry.publish(
            "city", artifact, metrics={"mae": 1.0}, promote=True
        )
        router = make_router()
        manager = FleetManager(registry, router)
        manager.deploy(
            "city",
            num_sensors=tiny_dataset.num_sensors,
            model=GRUForecaster(HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=9),
        )
        for t in range(HISTORY):
            router.ingest("city", tiny_dataset.test_raw[:, t, 0])
        return registry, router, manager

    def test_deploy_stamps_registry_version(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            assert router.live_version("city") == 1
            assert router.live_artifact("city").registry_version == 1
        finally:
            router.close()

    def test_retrain_skipped_without_drift(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            report = manager.retrain("city", tiny_dataset)
            assert report["action"] == "skipped"
            assert registry.live_version("city") == 1
        finally:
            router.close()

    def test_forced_retrain_validates_publishes_and_swaps(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            policy = RetrainPolicy(
                epochs=1,
                max_batches=2,
                eval_batches=1,
                holdout_windows=2,
                accept_margin=10.0,  # a 1-epoch fine-tune must still win
            )
            report = manager.retrain("city", tiny_dataset, policy=policy, force=True)
            assert report["action"] == "swapped"
            assert report["candidate_version"] == 2
            assert np.isfinite(report["candidate_mae"]) and np.isfinite(report["live_mae"])
            assert registry.live_version("city") == 2
            assert router.live_version("city") == 2
            assert report["swap"]["drained"]
            # the audit trail: metrics landed in the registry entry
            entry = registry.versions("city")[-1]
            assert entry["metrics"]["holdout_mae"] == report["candidate_mae"]
            assert entry["labels"]["trigger"] == "forced"
        finally:
            router.close()

    def test_losing_candidate_is_published_but_never_serves(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            policy = RetrainPolicy(
                epochs=1, max_batches=1, eval_batches=1, holdout_windows=2,
                accept_margin=1e-9,  # impossible bar: candidate must lose
            )
            report = manager.retrain("city", tiny_dataset, policy=policy, force=True)
            assert report["action"] == "rejected"
            assert len(registry.versions("city")) == 2  # audit trail kept
            assert registry.live_version("city") == 1  # never promoted
            assert router.live_version("city") == 1  # never swapped
        finally:
            router.close()

    def test_rollback_redeploys_previous_version(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            second = make_gru_artifact(seed=1)
            registry.publish("city", second, promote=True)
            manager.deploy("city", model=GRUForecaster(
                HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=9
            ))
            assert router.live_version("city") == 2
            rolled = manager.rollback("city", model=GRUForecaster(
                HISTORY, HORIZON, hidden_size=4, predictor_hidden=8, seed=9
            ))
            assert rolled == 1
            assert router.live_version("city") == 1
        finally:
            router.close()

    def test_status_joins_router_and_registry(self, tmp_path, tiny_dataset):
        registry, router, manager = self._deploy(tmp_path, tiny_dataset)
        try:
            status = manager.status()
            assert status["city"]["registry_live"] == 1
            assert status["city"]["registry_versions"] == 1
            assert status["city"]["live_version"] == 1
        finally:
            router.close()


class TestHoldoutMae:
    def test_masks_nan_targets(self, tiny_dataset):
        artifact = make_artifact(history=HISTORY, horizon=HORIZON)
        policy = RetrainPolicy(holdout_windows=3)
        value = holdout_mae(artifact, tiny_dataset, policy)
        assert np.isfinite(value) and value >= 0

    def test_too_short_split_diagnoses(self, tiny_dataset):
        artifact = make_artifact(history=10_000, horizon=HORIZON)
        with pytest.raises(ValueError, match="too short"):
            holdout_mae(artifact, tiny_dataset, RetrainPolicy())
