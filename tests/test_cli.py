"""Command-line entry points (python -m repro, python -m repro.harness)."""

from __future__ import annotations

import pytest

import repro.__main__ as train_cli
from repro.harness.__main__ import main as harness_main
from repro.harness.summary import main as summary_main


class TestTrainCLI:
    def test_trains_and_reports(self, capsys):
        code = train_cli.main(
            [
                "--model", "gru", "--dataset", "PEMS08", "--epochs", "1",
                "--max-batches", "2", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test: MAE=" in out

    def test_checkpoint_written(self, tmp_path, capsys):
        target = tmp_path / "model.npz"
        code = train_cli.main(
            [
                "--model", "gru", "--dataset", "PEMS08", "--epochs", "1",
                "--max-batches", "2", "--quiet", "--checkpoint", str(target),
            ]
        )
        assert code == 0
        assert target.exists()

    def test_non_trained_model(self, capsys):
        code = train_cli.main(["--model", "persistence", "--dataset", "PEMS08", "--quiet"])
        assert code == 0
        assert "MAE=" in capsys.readouterr().out

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            train_cli.main(["--model", "nope", "--dataset", "PEMS08", "--quiet"])


class TestHarnessCLI:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            harness_main(["tableX"])

    def test_runs_one_experiment(self, tmp_path, capsys):
        code = harness_main(["table11", "--scope", "smoke", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table11.txt").exists()
        assert "table11" in capsys.readouterr().out

    def test_profile_subcommand(self, tmp_path, capsys):
        code = harness_main(["profile", "gru", "--scope", "smoke", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "profile_gru.json").exists()
        assert (tmp_path / "profile_gru.txt").exists()
        out = capsys.readouterr().out
        assert "linear" in out  # top-op table printed (GRU gates use the fused linear)

    def test_profile_requires_model(self):
        with pytest.raises(SystemExit):
            harness_main(["profile"])


class TestSummaryCLI:
    def test_usage_error(self, capsys):
        assert summary_main([]) == 2

    def test_splices(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table8.txt").write_text("content\n")
        md = tmp_path / "EXPERIMENTS.md"
        md.write_text("<!-- TABLE8_MEASURED -->\n")
        assert summary_main([str(results), str(md)]) == 0
        assert "content" in md.read_text()
