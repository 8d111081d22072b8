"""Unit tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, builtin_workload, load_workload, main
from repro.events.log import EventLogReader
from repro.executor import SharonExecutor, parse_churn_script
from repro.executor.results import encode_result_lines
from repro.replay import load_checkpoint
from repro.utils import RateCatalog


WORKLOAD_FILE = """
# route popularity
name: r1
RETURN COUNT(*)
PATTERN SEQ(OakSt, MainSt)
WHERE [vehicle]
WITHIN 60 SLIDE 20

name: r2
RETURN COUNT(*)
PATTERN SEQ(OakSt, MainSt, WestSt)
WHERE [vehicle]
WITHIN 60 SLIDE 20

PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 60 SLIDE 20
"""


class TestWorkloadLoading:
    def test_load_workload_file(self, tmp_path):
        path = tmp_path / "workload.sase"
        path.write_text(WORKLOAD_FILE, encoding="utf-8")
        workload = load_workload(path)
        assert len(workload) == 3
        assert workload["r1"].pattern.event_types == ("OakSt", "MainSt")
        assert workload["r2"].predicates.equivalence_attributes == ("vehicle",)
        # The unnamed query gets a positional name.
        assert workload[2].pattern.event_types == ("ElmSt", "ParkAve")

    def test_load_empty_file_fails(self, tmp_path):
        path = tmp_path / "empty.sase"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            load_workload(path)

    def test_builtin_workloads(self):
        assert len(builtin_workload("traffic")) == 7
        assert len(builtin_workload("purchase")) == 4
        with pytest.raises(SystemExit):
            builtin_workload("unknown")


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize"])
        assert args.workload == "traffic"
        assert args.optimizer == "sharon"

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--workload", "purchase", "--dataset", "ecommerce", "--executor", "aseq"]
        )
        assert args.executor == "aseq"
        assert args.dataset == "ecommerce"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param("run --backend python", id="run"),
            pytest.param(
                "replay --log events.jsonl --backend python", id="replay --log events.jsonl"
            ),
            pytest.param("run --shards 2", id="run-shards"),
            pytest.param("bench", id="bench"),
            *(
                pytest.param(f"replay --log events.jsonl --no-{switch}", id=f"replay-no-{switch}")
                for switch in ("columnar", "compaction")
            ),
        ],
    )
    def test_backend_flag_is_gone(self, argv, capsys):
        """Deleted flags and commands are argparse errors, not silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv.split())
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_cold_start_imports_stay_lean():
    """Importing the CLI and the replay runner loads no heavy module."""
    code = (
        "import sys\n"
        "from repro.cli import load_workload\n"
        "from repro.replay import ReplayRunner\n"
        "loaded = [m for m in ('numpy', 'multiprocessing', 'repro.experiments', 'repro.datasets')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def run_cli(tmp_path, *argv: str, code: "str | None" = None) -> subprocess.CompletedProcess:
    """``python -m repro argv`` (or ``python -c code``) in ``tmp_path``, output captured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    command = [sys.executable, "-c", code] if code else [sys.executable, "-m", "repro", *argv]
    return subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)


class TestExitCodes:
    """0 ok, 1 user error (one line, no traceback), 2 internal error (traceback)."""

    def test_a_torn_log_is_a_user_error(self, tmp_path):
        log_path = tmp_path / "torn.jsonl"
        assert main(["record", "--duration", "20", "--rate", "2", "--output", str(log_path)]) == 0
        data = log_path.read_bytes()
        log_path.write_bytes(data[: len(data) - 7])  # cut inside the last line
        done = run_cli(tmp_path, "replay", "--log", "torn.jsonl")
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("repro: error: ") and "EventLogError" not in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
        assert "torn.jsonl" in done.stderr

    def test_a_missing_file_is_a_user_error(self, tmp_path):
        done = run_cli(tmp_path, "replay", "--log", "nope.jsonl")
        assert done.returncode == 1
        assert done.stderr.startswith("repro: error: ") and "Traceback" not in done.stderr

    def test_a_workload_of_mixed_windows_is_a_user_error(self, tmp_path):
        mixed = WORKLOAD_FILE.replace("WITHIN 60 SLIDE 20", "WITHIN 30 SLIDE 10", 1)
        (tmp_path / "mixed.sase").write_text(mixed, encoding="utf-8")
        done = run_cli(
            tmp_path, "run", "--workload-file", "mixed.sase", "--dataset", "taxi", "--duration", "30"
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("repro: error: ") and "uniform workload" in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_a_usage_error_exits_1(self, tmp_path):
        done = run_cli(tmp_path, "replay", "--no-such-flag")
        assert done.returncode == 1
        assert "error:" in done.stderr and "Traceback" not in done.stderr

    def test_an_internal_error_prints_its_traceback_and_exits_2(self, tmp_path):
        code = (
            "import sys\n"
            "import repro.cli as cli\n"
            "def broken(*args):\n"
            "    raise RuntimeError('a bug')\n"
            "cli.build_stream = broken\n"
            "sys.exit(cli.main(['record', '--output', 'events.jsonl']))\n"
        )
        done = run_cli(tmp_path, code=code)
        assert done.returncode == 2
        assert "Traceback" in done.stderr and "RuntimeError: a bug" in done.stderr

    @pytest.mark.parametrize(
        ("script", "message"),
        [
            ('[{"op": "detach", "at": 5, "name": "nope"}]', "cannot detach unknown query 'nope'"),
            (
                '[{"op": "attach", "at": 5, "name": "q1", "query": "RETURN COUNT(*) '
                'PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 600 SLIDE 60"}]',
                "cannot attach 'q1': duplicate query name",
            ),
            (
                '[{"op": "plan", "at": 5, "share": '
                '[{"pattern": ["OakSt", "MainSt"], "queries": ["q1", "nope"]}]}]',
                "not in the workload: ['nope']",
            ),
        ],
        ids=["detach-unknown", "attach-duplicate", "plan-inactive"],
    )
    def test_a_churn_op_that_does_not_apply_is_a_user_error(self, tmp_path, script, message):
        log = str(tmp_path / "e.jsonl")
        assert main(["record", "--duration", "60", "--rate", "4", "--output", log]) == 0
        (tmp_path / "churn.json").write_text(script, encoding="utf-8")
        replay = ["replay", "--log", "e.jsonl", "--workload", "traffic"]
        done = run_cli(tmp_path, *replay, "--churn-script", "churn.json")
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("repro: error: ") and message in done.stderr
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

    def test_success_exits_0(self, tmp_path):
        done = run_cli(tmp_path, "record", "--duration", "10", "--rate", "2", "--output", "e.jsonl")
        assert done.returncode == 0 and done.stderr == ""

    @pytest.mark.parametrize(
        "command",
        [
            ("replay", "--log", "e.jsonl", "--workload", "traffic"),
            ("run", "--workload", "traffic", "--duration", "20", "--rate", "2"),
            ("optimize", "--workload", "traffic", "--duration", "20", "--rate", "2"),
        ],
        ids=["replay", "run", "optimize"],
    )
    def test_a_type_missing_from_the_rate_sample_is_rate_0(self, tmp_path, command):
        # A 20-unit stream at rate 2 has no WestSt event; traffic queries name it.
        log = tmp_path / "e.jsonl"
        assert main(["record", "--duration", "20", "--rate", "2", "--output", str(log)]) == 0
        assert "WestSt" not in log.read_text(encoding="utf-8")
        done = run_cli(tmp_path, *command)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


class TestCommands:
    def test_optimize_command_prints_plan(self, capsys):
        exit_code = main(
            ["optimize", "--workload", "traffic", "--duration", "60", "--rate", "5", "--seed", "3"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Sharing plan" in captured.out
        assert "Candidates:" in captured.out

    def test_run_command_prints_metrics_and_results(self, capsys):
        exit_code = main(
            [
                "run",
                "--workload", "purchase",
                "--dataset", "ecommerce",
                "--duration", "90",
                "--rate", "5",
                "--executor", "sharon",
                "--limit", "3",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Sharon:" in captured.out

    def test_run_command_with_workload_file(self, tmp_path, capsys):
        path = tmp_path / "workload.sase"
        path.write_text(WORKLOAD_FILE, encoding="utf-8")
        exit_code = main(
            [
                "run",
                "--workload-file", str(path),
                "--dataset", "taxi",
                "--duration", "90",
                "--rate", "6",
                "--executor", "aseq",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "A-Seq:" in captured.out

    def test_datasets_command_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "events.csv"
        exit_code = main(
            [
                "datasets",
                "--dataset", "linear-road",
                "--duration", "30",
                "--rate", "5",
                "--output", str(output),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert output.exists()
        header = output.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("event_type,timestamp")
        assert "linear-road:" in captured.out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["datasets", "--dataset", "nasdaq"])


class TestReplayCommands:
    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        exit_code = main(
            [
                "record",
                "--dataset", "taxi",
                "--duration", "40",
                "--rate", "4",
                "--output", str(log_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Recorded 160 events" in captured.out
        assert log_path.is_file()

        exit_code = main(
            ["replay", "--log", str(log_path), "--workload", "traffic", "--repeat", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "state hash:" in captured.out
        assert "2 replays produced byte-identical final state" in captured.out

    def test_replay_without_checkpoints_leaves_no_directory_behind(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--checkpoint-dir`` has a default; it must not be created unless used."""
        monkeypatch.chdir(tmp_path)
        main(["record", "--duration", "40", "--rate", "4", "--output", "events.jsonl"])
        assert main(["replay", "--log", "events.jsonl", "--workload", "traffic"]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["events.jsonl"]

    def test_replay_checkpoint_resume_and_trace(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "40", "--rate", "4", "--output", str(log_path)])
        capsys.readouterr()

        checkpoint_dir = tmp_path / "cks"
        trace_path = tmp_path / "trace.jsonl"
        exit_code = main(
            [
                "replay",
                "--log", str(log_path),
                "--workload", "traffic",
                "--checkpoint-every", "10",
                "--checkpoint-dir", str(checkpoint_dir),
                "--trace", str(trace_path),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "checkpoints" in captured.out
        full_hash = [
            line for line in captured.out.splitlines() if line.startswith("state hash:")
        ][0]
        checkpoints = sorted(checkpoint_dir.glob("checkpoint-*.json"))
        assert checkpoints and trace_path.is_file()
        assert (checkpoint_dir / "results.jsonl").is_file()

        exit_code = main(
            [
                "replay",
                "--log", str(log_path),
                "--workload", "traffic",
                "--resume", str(checkpoints[0]),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "resumed from" in captured.out
        assert full_hash in captured.out  # resume reaches the full-replay state

    @pytest.mark.parametrize(
        "flag,strategy_line",
        [
            (
                [],
                "strategy: panes — WITHIN 600 SLIDE 60, 10 overlapping windows, pane width 60, "
                "24 pane cells for 46 matrix cells",
            ),
            (
                ["--panes"],
                "strategy: panes — WITHIN 600 SLIDE 60, 10 overlapping windows, pane width 60, "
                "24 pane cells for 46 matrix cells (--panes)",
            ),
            (
                ["--no-panes"],
                "strategy: instances — WITHIN 600 SLIDE 60, 10 overlapping windows, "
                "pane width 60 (--no-panes)",
            ),
        ],
        ids=["engine-decides", "panes", "no-panes"],
    )
    def test_replay_strategy_spellings_and_summary_line(
        self, flag, strategy_line, tmp_path, capsys
    ):
        """``--panes`` is one tri-state option; the summary says what ran and why."""
        expected = {"--panes": True, "--no-panes": False}.get("".join(flag))
        assert build_parser().parse_args(["replay", "--log", "x", *flag]).panes is expected
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "40", "--rate", "4", "--output", str(log_path)])
        capsys.readouterr()
        checkpoint_dir = tmp_path / "cks"
        arguments = ["replay", "--log", str(log_path), "--workload", "traffic", *flag]
        assert main(
            arguments + ["--checkpoint-every", "10", "--checkpoint-dir", str(checkpoint_dir)]
        ) == 0
        assert strategy_line in capsys.readouterr().out.splitlines()
        # A resume without the flag continues in the checkpoint's strategy and says so.
        checkpoint = sorted(checkpoint_dir.glob("checkpoint-*.json"))[0]
        resume = ["replay", "--log", str(log_path), "--workload", "traffic"]
        assert main(resume + ["--resume", str(checkpoint)]) == 0
        recorded = strategy_line.split(" (")[0] + " (as checkpointed)"
        assert recorded in capsys.readouterr().out.splitlines()

    def test_run_prints_the_strategy_line_for_engine_backed_executors(self, capsys):
        arguments = ["run", "--workload", "traffic", "--duration", "60", "--rate", "4"]
        assert main(arguments) == 0
        # Traffic's seven routes overlap: 24 distinct sub-routes where unshared matrices hold 46.
        assert (
            "strategy: panes — WITHIN 600 SLIDE 60, 10 overlapping windows, pane width 60, "
            "24 pane cells for 46 matrix cells\n"
        ) in capsys.readouterr().out
        assert main(arguments + ["--executor", "flink"]) == 0
        assert "strategy:" not in capsys.readouterr().out

    def test_replay_rejects_bad_arguments(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "10", "--rate", "2", "--output", str(log_path)])
        with pytest.raises(SystemExit):
            main(["replay", "--log", str(log_path), "--repeat", "0"])
        with pytest.raises(SystemExit):
            main(
                [
                    "replay",
                    "--log", str(log_path),
                    "--repeat", "2",
                    "--resume", str(tmp_path / "nope.json"),
                ]
            )

    def test_replay_applies_a_churn_script(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "60", "--rate", "4", "--output", str(log_path)])
        capsys.readouterr()

        script = tmp_path / "churn.json"
        script.write_text(
            '[{"op": "attach", "at": 10, "name": "joiner",'
            ' "query": "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt)'
            ' WHERE [vehicle] WITHIN 600 SLIDE 60"},'
            ' {"op": "detach", "at": 30, "name": "q1"}]',
            encoding="utf-8",
        )
        exit_code = main(
            [
                "replay",
                "--log", str(log_path),
                "--workload", "traffic",
                "--churn-script", str(script),
                "--repeat", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"applied churn script {script} (2 ops)" in captured.out
        assert "state hash:" in captured.out
        # One runner, run twice; the strategy line reads the compilation the run
        # ended with (joiner attached, q1 detached), not the starting 24 for 46.
        assert "replay 2/2: state hash identical" in captured.out
        assert "pane width 60, 23 pane cells for 43 matrix cells\n" in captured.out

    def test_a_churn_script_of_plan_ops_replays_like_in_memory(self, tmp_path, capsys):
        """Plan ops in a script: the in-memory run's results, a state hash that
        repeats, and a resume from a middle checkpoint that ends at it."""
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "60", "--rate", "4", "--output", str(log_path)])
        text = (
            '[{"op": "plan", "at": 20, "share": [{"pattern": ["OakSt", "MainSt"],'
            ' "queries": ["q1", "q2", "q3", "q4"]}]},'
            ' {"op": "plan", "at": 40, "share": []}]'
        )
        script = tmp_path / "churn.json"
        script.write_text(text, encoding="utf-8")
        directory = tmp_path / "cks"
        replay = ["replay", "--log", str(log_path), "--workload", "traffic", "--no-panes"]
        replay += ["--churn-script", str(script)]
        capsys.readouterr()
        checkpointed = ["--checkpoint-every", "10", "--checkpoint-dir", str(directory)]
        assert main(replay + checkpointed + ["--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert f"applied churn script {script} (2 ops)" in out
        assert "replay 2/2: state hash identical" in out
        (hash_line,) = [line for line in out.splitlines() if line.startswith("state hash:")]

        stream = EventLogReader(log_path).read_stream()
        rates = RateCatalog.from_stream(stream, per="time-unit")
        executor = SharonExecutor(
            builtin_workload("traffic"), rates=rates, panes=False, churn=parse_churn_script(text)
        )
        expected = encode_result_lines(executor.run(stream).results)
        assert (directory / "results.jsonl").read_bytes().partition(b"\n")[2] == expected

        checkpoints = sorted(directory.glob("checkpoint-*.json"))
        middle = checkpoints[len(checkpoints) // 2]
        history = load_checkpoint(middle).engine_state["churn"]["history"]
        assert [entry["op"] for entry in history][:1] == ["plan"]
        assert main(replay + ["--resume", str(middle)]) == 0
        assert hash_line in capsys.readouterr().out.splitlines()

    def test_replay_rejects_a_malformed_churn_script(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        main(["record", "--duration", "60", "--rate", "4", "--output", str(log_path)])
        script = tmp_path / "churn.json"
        script.write_text('[{"op": "migrate", "at": 3, "name": "q1"}]', encoding="utf-8")
        with pytest.raises(SystemExit, match=r"churn script .*churn\.json: .*unknown 'op'"):
            main(
                [
                    "replay",
                    "--log", str(log_path),
                    "--workload", "traffic",
                    "--churn-script", str(script),
                ]
            )

    def test_run_record_and_checkpoint_every(self, tmp_path, capsys):
        log_path = tmp_path / "run.jsonl"
        checkpoint_dir = tmp_path / "cks"
        exit_code = main(
            [
                "run",
                "--workload", "traffic",
                "--duration", "40",
                "--rate", "4",
                "--record", str(log_path),
                "--checkpoint-every", "15",
                "--checkpoint-dir", str(checkpoint_dir),
                "--limit", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"Recorded 160 events to {log_path}" in captured.out
        assert "state hash:" in captured.out
        assert list(checkpoint_dir.glob("checkpoint-*.json"))

    def test_run_checkpoint_every_requires_sharon(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint-every"):
            main(
                [
                    "run",
                    "--workload", "traffic",
                    "--executor", "aseq",
                    "--checkpoint-every", "5",
                ]
            )
