"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.vehicles == 25

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--vehicles", "10", "--trips", "20", "--matcher", "dual_side"]
        )
        assert args.matcher == "dual_side"
        assert args.trips == 20

    def test_compare_arguments(self):
        args = build_parser().parse_args(["compare", "--requests", "5"])
        assert args.requests == 5

    def test_invalid_matcher_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--matcher", "bogus"])

    def test_routing_argument(self):
        for command in ("demo", "simulate", "compare"):
            args = build_parser().parse_args([command, "--routing", "csr"])
            assert args.routing == "csr"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--routing", "bogus"])

    def test_routing_defaults_to_csr(self):
        for command in ("demo", "simulate", "compare"):
            args = build_parser().parse_args([command])
            assert args.routing == "csr"
            assert not hasattr(args, "routing_cache")

    def test_retired_backends_are_rejected(self):
        for command in ("demo", "simulate", "compare"):
            for backend in ("dict", "table", "ch"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--routing", backend])

    def test_csr_alt_backend_argument(self):
        args = build_parser().parse_args(["simulate", "--routing", "csr+alt"])
        assert args.routing == "csr+alt"

    @pytest.mark.parametrize(
        "flag", [("--workers", "2"), ("--worker-timeout", "5"),
                 ("--max-dispatch-retries", "2"), ("--tree-provider", "phast"),
                 ("--routing-cache", "/tmp/artifacts"), ("--shards", "2"),
                 ("--batch",), ("--no-batch",)],
    )
    def test_retired_flags_are_rejected(self, flag):
        for command in ("demo", "simulate", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, *flag])


class TestCommands:
    def test_demo_runs(self, capsys):
        exit_code = main(["demo", "--vehicles", "8", "--rows", "6", "--columns", "6", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "non-dominated option" in captured
        assert "Chose option 0" in captured

    def test_simulate_runs(self, capsys):
        exit_code = main([
            "simulate", "--vehicles", "6", "--rows", "6", "--columns", "6",
            "--trips", "10", "--duration", "60", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "average_response_time" in captured
        assert "sharing_rate" in captured

    def test_compare_runs(self, capsys):
        exit_code = main([
            "compare", "--vehicles", "10", "--rows", "6", "--columns", "6",
            "--requests", "5", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "single_side" in captured
        assert "naive" in captured
        assert "dual_side" in captured

    def test_simulate_runs_with_csr_routing(self, capsys):
        exit_code = main([
            "simulate", "--vehicles", "6", "--rows", "6", "--columns", "6",
            "--trips", "10", "--duration", "60", "--seed", "3", "--routing", "csr",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "routing=csr" in captured
        assert "average_response_time" in captured

    def test_demo_runs_with_csr_alt_routing(self, capsys):
        exit_code = main([
            "demo", "--vehicles", "8", "--rows", "6", "--columns", "6",
            "--seed", "3", "--routing", "csr+alt",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "non-dominated option" in captured

    def test_compare_is_backend_oblivious(self, capsys):
        """The same burst answered on the csr and csr+alt backends must print
        identical matcher work tables -- identical up to the wall-clock
        column, which is the only thing a backend is allowed to change."""
        import re

        outputs = []
        for backend in ("csr", "csr+alt"):
            exit_code = main([
                "compare", "--vehicles", "10", "--rows", "6", "--columns", "6",
                "--requests", "5", "--seed", "3", "--routing", backend,
            ])
            assert exit_code == 0
            # the seconds column is the only float printed with 3 decimals
            outputs.append(re.sub(r"\d+\.\d{3}", "T", capsys.readouterr().out))
        assert outputs[0] == outputs[1]
