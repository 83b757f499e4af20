"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "PEMS-BAY" in out
        assert "source" in out and "target" in out

    def test_sample_command(self, capsys):
        assert main(["sample", "--count", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("Arch(") == 2

    def test_sample_deterministic(self, capsys):
        main(["sample", "--count", "1", "--seed", "3"])
        first = capsys.readouterr().out
        main(["sample", "--count", "1", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_train_command(self, capsys, tmp_path):
        code = main(
            [
                "train", "SZ-TAXI", "--p", "6", "--q", "3", "--epochs", "1",
                "--max-windows", "64", "--save", str(tmp_path / "model"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test MAE=" in out
        assert (tmp_path / "model" / "model.json").exists()

    def test_train_rejects_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["train", "NOPE", "--epochs", "1"])

    def test_search_command_smoke_scale(self, capsys):
        code = main(["search", "SZ-TAXI", "--scale", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "searched:" in out
        assert "test MAE=" in out

    def test_autocts_parser_defaults(self):
        args = build_parser().parse_args(["autocts", "SZ-TAXI"])
        assert args.ahc_embed_dim == 32
        assert args.ahc_gin_layers == 3
        assert args.ahc_hidden_dim == 32

    def test_autocts_parser_custom_capacity(self):
        args = build_parser().parse_args(
            [
                "autocts", "SZ-TAXI", "--ahc-embed-dim", "16",
                "--ahc-gin-layers", "2", "--ahc-hidden-dim", "24",
            ]
        )
        assert args.ahc_embed_dim == 16
        assert args.ahc_gin_layers == 2
        assert args.ahc_hidden_dim == 24

    def test_autocts_command_smoke_scale(self, capsys):
        code = main(
            [
                "autocts", "SZ-TAXI", "--scale", "smoke", "--samples", "6",
                "--ahc-epochs", "5", "--ahc-embed-dim", "16",
                "--ahc-gin-layers", "2", "--ahc-hidden-dim", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AHC: embed 16, 2 GIN layers, hidden 16" in out
        assert "searched:" in out
        assert "test MAE=" in out


class TestServiceParsers:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8737
        assert args.scale == "smoke"
        assert args.variant == "full"
        assert args.daemons == 1
        assert args.db is None

    def test_serve_parser_custom(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--scale", "tiny", "--daemons", "3",
                "--db", "/tmp/reg.sqlite", "--no-eval-cache",
            ]
        )
        assert args.port == 0
        assert args.scale == "tiny"
        assert args.daemons == 3
        assert args.db == "/tmp/reg.sqlite"
        assert args.no_eval_cache

    def test_serve_parser_metrics_interval(self):
        assert build_parser().parse_args(["serve"]).metrics_interval is None
        args = build_parser().parse_args(["serve", "--metrics-interval", "7.5"])
        assert args.metrics_interval == 7.5

    def test_serve_rejects_malformed_metrics_interval_env(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_METRICS_INTERVAL", "soon")
        # Validated before artifacts pretrain, so this fails fast as the
        # usual typed-ConfigError exit 2.
        assert main(["serve", "--port", "0"]) == 2
        assert "REPRO_METRICS_INTERVAL" in capsys.readouterr().err

    def test_search_rejects_malformed_workers_env(self, monkeypatch, capsys):
        import repro.experiments

        def pretrain(*args, **kwargs):
            raise AssertionError("pre-training started")

        monkeypatch.setattr(repro.experiments, "pretrain_variant", pretrain)
        monkeypatch.setenv("REPRO_WORKERS", "two")
        assert main(["search", "SZ-TAXI", "--scale", "smoke"]) == 2
        assert "REPRO_WORKERS" in capsys.readouterr().err

    def test_trace_report_parser_job_filter(self):
        assert build_parser().parse_args(["trace", "report", "t.jsonl"]).job is None
        args = build_parser().parse_args(
            ["trace", "report", "t.jsonl", "--job", "job-1"]
        )
        assert args.job == "job-1"

    def test_submit_parser_defaults(self):
        args = build_parser().parse_args(["submit", "SZ-TAXI"])
        assert args.kind == "rank"
        assert args.p == 6 and args.q == 6
        assert not args.sync and not args.wait
        assert args.url is None

    def test_submit_parser_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "SZ-TAXI", "--kind", "explode"])

    def test_submit_sync_rejects_non_rank(self, capsys):
        code = main(
            ["submit", "SZ-TAXI", "--kind", "collect", "--sync",
             "--url", "http://127.0.0.1:1"]
        )
        assert code == 2
        assert "--sync" in capsys.readouterr().err
