"""Observability layer: op profiler, module spans, metric sinks, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import WindowSpec
from repro.baselines import GRUForecaster
from repro.nn import Linear, Module, ReLU, Sequential
from repro.tensor import Tensor, hooks, ops
from repro.training import Trainer, TrainerConfig, TrainingHistory


def small_graph():
    a = Tensor(np.random.default_rng(0).normal(size=(16, 8)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).normal(size=(8, 4)), requires_grad=True)
    return a, w


class TestProfiler:
    def test_records_forward_and_backward(self):
        a, w = small_graph()
        with obs.profile() as prof:
            loss = (a @ w).relu().mean()
            loss.backward()
        recorded = set(prof.ops)
        assert ("matmul", "forward") in recorded
        assert ("matmul", "backward") in recorded
        assert ("relu", "forward") in recorded
        assert ("mean", "backward") in recorded
        for stat in prof.ops.values():
            assert stat.calls >= 1
            assert stat.seconds >= 0.0

    def test_matmul_flops_analytic(self):
        a, w = small_graph()
        with obs.profile() as prof:
            _ = a @ w  # (16, 8) @ (8, 4): 2 * 16 * 4 * 8 flops
        assert prof.ops[("matmul", "forward")].flops == pytest.approx(2 * 16 * 4 * 8)

    def test_bytes_tracked(self):
        a, w = small_graph()
        with obs.profile() as prof:
            out = a @ w
        stat = prof.ops[("matmul", "forward")]
        assert stat.bytes == out.data.nbytes
        assert prof.peak_bytes == out.data.nbytes

    def test_timings_monotone_as_ops_accumulate(self):
        a, w = small_graph()
        with obs.profile() as prof:
            totals = []
            for _ in range(4):
                _ = (a @ w).sum()
                totals.append(prof.total_op_seconds)
        assert totals == sorted(totals)  # cumulative time never decreases
        assert prof.wall_seconds >= prof.total_op_seconds * 0.0  # wall recorded
        assert prof.wall_seconds > 0.0

    def test_grad_allocs_counted_while_active(self):
        a, w = small_graph()
        with obs.profile() as prof:
            loss = (a @ w).relu().mean()
            loss.backward()
        assert prof.grad_allocs > 0
        assert prof.grad_alloc_bytes > 0
        summary = prof.summary()
        assert summary["grad_allocs"] == prof.grad_allocs
        assert summary["grad_alloc_bytes"] == prof.grad_alloc_bytes
        assert "grad allocs" in prof.to_table()

    def test_grad_alloc_hook_restored_after_context(self):
        with obs.profile():
            pass
        # outside the context the hook must be back to None
        assert hooks().grad_alloc is None

    def test_disabled_mode_records_nothing(self):
        a, w = small_graph()
        with obs.profile() as prof:
            _ = a @ w
        calls_inside = prof.total_calls
        loss = (a @ w).mean()
        loss.backward()  # outside the context: tracing is off
        assert prof.total_calls == calls_inside
        assert not obs.is_profiling()
        assert hooks().trace is None  # no hook left installed

    def test_nested_contexts_restore_outer(self):
        a, w = small_graph()
        with obs.profile() as outer:
            with obs.profile() as inner:
                _ = a @ w
            assert obs.current_profiler() is outer
            _ = a @ w
        assert inner.ops[("matmul", "forward")].calls == 1
        assert outer.ops[("matmul", "forward")].calls == 1

    def test_summary_and_table(self):
        a, w = small_graph()
        with obs.profile() as prof:
            (a @ w).mean().backward()
        summary = prof.summary()
        assert summary["ops"] and summary["total_op_calls"] == prof.total_calls
        table = prof.to_table(top_k=5)
        assert "matmul" in table and "backward" in table


class TestModuleSpans:
    def make_model(self):
        return Sequential(Linear(8, 16), ReLU(), Linear(16, 4))

    def test_spans_use_qualified_names(self):
        model = self.make_model()
        x = Tensor(np.zeros((4, 8)))
        with obs.profile(model=model) as prof:
            model(x)
        assert {"layers.0", "layers.1", "layers.2"} <= set(prof.spans)
        root = [name for name in prof.spans if "." not in name]
        assert root  # the model itself gets a span too

    def test_parent_span_contains_children(self):
        model = self.make_model()
        x = Tensor(np.zeros((64, 8)))
        with obs.profile(model=model) as prof:
            model(x)
        parent = prof.spans["Sequential"].seconds
        child_total = sum(prof.spans[f"layers.{i}"].seconds for i in range(3))
        assert parent >= child_total * 0.5  # inclusive timing, allow timer noise

    def test_hooks_removed_after_context(self):
        model = self.make_model()
        with obs.profile(model=model):
            pass
        for _, module in model.named_modules():
            assert not module._forward_hooks
            assert not module._forward_pre_hooks

    def test_named_modules_qualified(self):
        model = self.make_model()
        names = dict(model.named_modules())
        assert "" in names and "layers.1" in names
        assert isinstance(names["layers.1"], ReLU)


class TestForwardHooks:
    def test_pre_and_post_hooks_fire_in_order(self):
        calls = []
        layer = Linear(4, 4)
        layer.register_forward_pre_hook(lambda mod, args: calls.append("pre"))
        layer.register_forward_hook(lambda mod, args, out: calls.append("post"))
        layer(Tensor(np.zeros((2, 4))))
        assert calls == ["pre", "post"]

    def test_post_hook_can_replace_output(self):
        layer = Linear(4, 4)
        layer.register_forward_hook(lambda mod, args, out: out * 0.0)
        out = layer(Tensor(np.ones((2, 4))))
        np.testing.assert_array_equal(out.numpy(), 0.0)

    def test_remove_handle(self):
        calls = []
        layer = Linear(4, 4)
        handle = layer.register_forward_hook(lambda mod, args, out: calls.append(1))
        handle.remove()
        layer(Tensor(np.zeros((2, 4))))
        assert calls == []


class TestSinks:
    def test_list_sink_accumulates_and_filters(self):
        sink = obs.ListSink()
        sink.emit({"event": "epoch", "epoch": 0})
        sink.emit({"event": "batch", "batch": 1})
        assert len(sink) == 2
        assert sink.of_type("epoch") == [{"event": "epoch", "epoch": 0}]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        events = [
            {"event": "train_begin", "lr": 1e-3},
            {"event": "epoch", "epoch": 0, "val_mae": 3.25},
        ]
        with obs.JsonlSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert list(obs.read_jsonl(path)) == events

    def test_jsonl_lazy_open(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = obs.JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_tee_and_null(self):
        a, b = obs.ListSink(), obs.ListSink()
        tee = obs.TeeSink(a, b, obs.NullSink())
        tee.emit({"event": "x"})
        assert len(a) == 1 and len(b) == 1


class TestTrainerEvents:
    def make_trainer(self, tiny_dataset, sink):
        model = GRUForecaster(12, 12, hidden_size=8, predictor_hidden=32, seed=0)
        config = TrainerConfig(
            epochs=2, batch_size=16, max_batches_per_epoch=3, eval_batches=2, lr=6e-3, seed=0, sink=sink
        )
        return Trainer(model, tiny_dataset, WindowSpec(12, 12), config)

    def test_event_stream_schema(self, tiny_dataset):
        sink = obs.ListSink()
        self.make_trainer(tiny_dataset, sink).fit()
        kinds = [event["event"] for event in sink.events]
        assert kinds[0] == "train_begin" and kinds[-1] == "train_end"
        epochs = sink.of_type("epoch")
        assert len(epochs) == 2
        for event in epochs:
            assert {"epoch", "train_loss", "val_mae", "grad_norm", "lr", "seconds"} <= set(event)
            assert event["seconds"] > 0 and event["grad_norm"] >= 0
        batches = sink.of_type("batch")
        assert len(batches) == 6  # 2 epochs x 3 batches
        end = sink.of_type("train_end")[0]
        assert {"seconds_per_epoch", "seconds_per_epoch_warm", "best_epoch"} <= set(end)

    def test_events_jsonl_round_trip(self, tiny_dataset, tmp_path):
        path = tmp_path / "train.jsonl"
        with obs.JsonlSink(path) as sink:
            self.make_trainer(tiny_dataset, sink).fit()
        events = list(obs.read_jsonl(path))
        assert [e["event"] for e in events][0] == "train_begin"
        assert any(e["event"] == "epoch" for e in events)

    def test_no_sink_emits_nothing(self, tiny_dataset):
        trainer = self.make_trainer(tiny_dataset, None)
        assert isinstance(trainer.sink, obs.NullSink)
        history = trainer.fit()  # must run exactly as before
        assert history.epochs_run == 2


class TestWarmSeconds:
    def test_warm_skips_cold_first_epoch(self):
        history = TrainingHistory(epoch_seconds=[10.0, 1.0, 1.0])
        assert history.seconds_per_epoch == pytest.approx(4.0)
        assert history.seconds_per_epoch_warm == pytest.approx(1.0)

    def test_warm_falls_back_with_single_epoch(self):
        history = TrainingHistory(epoch_seconds=[2.0])
        assert history.seconds_per_epoch_warm == pytest.approx(2.0)

    def test_empty_history(self):
        history = TrainingHistory()
        assert history.seconds_per_epoch == 0.0
        assert history.seconds_per_epoch_warm == 0.0


class TestProfileOverheadAndIntegration:
    def test_profile_records_training_step(self, tiny_dataset):
        model = GRUForecaster(12, 12, hidden_size=8, predictor_hidden=32, seed=0)
        config = TrainerConfig(epochs=1, batch_size=8, max_batches_per_epoch=1, eval_batches=1, seed=0)
        trainer = Trainer(model, tiny_dataset, WindowSpec(12, 12), config)
        with obs.profile(model=model) as prof:
            trainer.fit()
        assert prof.total_calls > 0
        assert any(phase == "backward" for (_, phase) in prof.ops)
        assert prof.spans  # module time attributed
