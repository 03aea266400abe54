"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, knob_arguments, main
from repro.core.config import KNOBS, SystemConfig
from repro.service.api import MATCHER_REGISTRY

#: (subcommand, knob) for every flag the knob table declares
FLAGGED = [
    (command, name) for name, spec in KNOBS.items() for command in spec.metadata["commands"]
]


def _config(argv):
    args = build_parser().parse_args(argv)
    return SystemConfig().with_knobs(knob_arguments(args), running=False)


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


class TestKnobFlags:
    @pytest.mark.parametrize("command, name", FLAGGED)
    def test_a_flag_sets_its_config_field(self, tmp_path, command, name):
        spec = KNOBS[name]
        choices = spec.metadata["check"].choices
        if choices:
            value = next(choice for choice in choices if choice != spec.default)
        elif name == "journal_path":
            value = str(tmp_path)
        else:
            value = 3 if name in ("max_batch_size", "queue_capacity", "snapshot_interval") else 2.5
        argv = [command, spec.metadata["flag"], str(value)]
        if name == "durability":
            argv += ["--journal", str(tmp_path)]
        assert getattr(_config(argv), name) == value

    @pytest.mark.parametrize(
        "command, name", [(c, n) for c, n in FLAGGED if KNOBS[n].metadata["zero_none"]]
    )
    def test_zero_clears_a_zero_rule_knob(self, command, name):
        args = build_parser().parse_args([command, KNOBS[name].metadata["flag"], "0"])
        assert getattr(args, KNOBS[name].metadata["flag"][2:].replace("-", "_")) == 0
        set_before = SystemConfig(**{name: 2})
        assert getattr(set_before.with_knobs(knob_arguments(args), running=False), name) is None

    @pytest.mark.parametrize("command", ["demo", "simulate", "compare"])
    def test_no_flags_leave_the_config_at_its_defaults(self, command):
        assert _config([command]) == SystemConfig()

    def test_matcher_choices_come_from_the_registry(self):
        for name in MATCHER_REGISTRY:
            assert _config(["simulate", "--matcher", name]).matcher_name == name

    def test_a_zero_snapshot_interval_is_refused(self, capsys):
        assert build_parser().parse_args(["demo"]).snapshot_interval == 1000
        with pytest.raises(SystemExit) as exit_info:
            main(["demo", "--snapshot-interval", "0"])
        assert exit_info.value.code == 2
        assert "snapshot_interval" in capsys.readouterr().err

    def test_the_snapshot_mode_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--snapshot-mode", "full"])


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

    def test_simulate_runs_a_baseline_matcher(self, capsys):
        exit_code = main([
            "simulate", "--vehicles", "6", "--rows", "6", "--columns", "6",
            "--trips", "10", "--duration", "60", "--seed", "3", "--matcher", "nearest",
        ])
        assert exit_code == 0
        assert "Matcher: nearest" in capsys.readouterr().out

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


class TestDemoResume:
    ARGS = ["demo", "--vehicles", "8", "--rows", "6", "--columns", "6", "--seed", "3"]

    def test_resume_needs_a_journal_directory(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_resume_on_a_fresh_directory_builds_a_durable_service(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        assert main(self.ARGS + ["--resume", "--journal", str(journal)]) == 0
        captured = capsys.readouterr().out
        assert "Resumed from journal" not in captured
        assert "Snapshots:" in captured
        assert any(journal.glob("snapshot-*.json"))

    def test_a_second_resume_restarts_from_the_first_runs_state(self, tmp_path, capsys):
        journal = str(tmp_path / "journal")
        assert main(self.ARGS + ["--resume", "--journal", journal]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--resume", "--journal", journal]) == 0
        second = capsys.readouterr().out
        assert f"Resumed from journal {journal} (t=0.0, 8 vehicles)" in second
        # the first run's booking is still on board, so the vehicle now
        # carries two requests' stops
        assert first.count("pickup:") == 1
        assert second.count("pickup:") > 2

    def test_a_request_no_vehicle_can_serve_exits_one(self, capsys):
        assert main(self.ARGS + ["--riders", "9"]) == 1
        assert "No vehicle can serve this request right now." in capsys.readouterr().out
