"""Tests for the command-line interface."""


import pytest

from repro.cli import main


class TestBuildCorpus:
    def test_prints_table3_stats(self, capsys):
        assert main(["build-corpus", "--records", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total_code_snippets" in out
        assert "60" in out

    def test_writes_records(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["build-corpus", "--records", "25", "--out", str(out_dir)]) == 0
        assert len(list(out_dir.glob("record_*"))) == 25


class TestComparCommand:
    def test_inserts_on_parallel_loop(self, tmp_path, capsys):
        f = tmp_path / "loop.c"
        f.write_text("for (i = 0; i < n; i++) s += a[i];\n")
        assert main(["compar", str(f)]) == 0
        out = capsys.readouterr().out
        assert "reduction(+:s)" in out

    def test_reports_reasons_on_serial_loop(self, tmp_path, capsys):
        f = tmp_path / "loop.c"
        f.write_text("for (i = 1; i < n; i++) a[i] = a[i-1];\n")
        assert main(["compar", str(f)]) == 0
        out = capsys.readouterr().out
        assert "no directive" in out
        assert "dependence" in out

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "loop.c"
        f.write_text("register int r;\nfor (i = 0; i < n; i++) a[i] = r;\n")
        assert main(["compar", str(f)]) == 1
        assert "parse failure" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "table99"])


class TestServeParser:
    """Flag plumbing for the serving subcommand (no models trained here)."""

    def _parse(self, argv):
        from unittest import mock

        from repro import cli

        captured = {}

        def fake_fn(args):
            captured.update(vars(args))
            return 0

        # patch the handler; main() resolves it from module globals when it
        # builds the parser, so flags flow exactly as shipped
        with mock.patch.object(cli, "_cmd_serve", fake_fn):
            assert cli.main(argv) == 0
        return captured

    def test_http_and_shard_flags(self):
        args = self._parse(["serve", "--http", "8080", "--shards", "4",
                            "--host", "0.0.0.0"])
        assert args["http"] == 8080
        assert args["shards"] == 4
        assert args["host"] == "0.0.0.0"

    def test_defaults_are_stdin_mode(self):
        args = self._parse(["serve"])
        assert args["http"] is None
        assert args["shards"] == 1
        assert args["batch_size"] == 128
        assert args["cache_size"] == 4096
        # operability knobs default off: no watch, no gating
        assert args["watch"] is None
        assert args["gate_margin"] is None

    def test_operability_flags(self):
        args = self._parse(["serve", "--http", "8080",
                            "--watch", "ckpt_dir", "--watch-interval", "0.5",
                            "--gate-margin", "0.05"])
        assert args["watch"] == "ckpt_dir"
        assert args["watch_interval"] == 0.5
        assert args["gate_margin"] == 0.05

    def test_watch_requires_http(self, capsys):
        assert main(["serve", "--watch", "ckpt_dir"]) == 2
        assert "--watch requires --http" in capsys.readouterr().err

    def test_gate_margin_requires_http(self, capsys):
        """Stdin mode serves the directive head only — a gating flag there
        must error loudly, not no-op silently."""
        assert main(["serve", "--gate-margin", "0.1"]) == 2
        assert "--gate-margin requires --http" in capsys.readouterr().err

    def test_canary_flags(self):
        args = self._parse(["serve", "--http", "8080",
                            "--canary", "ckpt_v2", "--canary-fraction", "0.25"])
        assert args["canary"] == "ckpt_v2"
        assert args["canary_fraction"] == 0.25
        # canary defaults off, at a 10% slice when enabled bare
        args = self._parse(["serve", "--http", "8080"])
        assert args["canary"] is None
        assert args["canary_fraction"] == 0.1

    def test_canary_requires_http(self, capsys):
        """Stdin mode has no multi-model advisor to split traffic over."""
        assert main(["serve", "--canary", "ckpt_v2"]) == 2
        assert "--canary requires --http" in capsys.readouterr().err
