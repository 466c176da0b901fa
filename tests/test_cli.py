"""The ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.spec import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


class TestParser:
    def test_all_workloads_registered(self):
        assert set(WORKLOADS) == {
            "lulesh", "amg", "blackscholes", "umt", "sweep", "hotspot"
        }

    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.machine is None
        assert not args.optimize

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_both_commands_share_the_run_options(self):
        import argparse

        from repro.optim.autotune import build_parser as autotune_parser
        from repro.spec import add_run_arguments

        def dests(parser):
            return {a.dest for a in parser._actions} - {"help"}

        shared = argparse.ArgumentParser()
        add_run_arguments(shared)
        assert dests(shared) <= dests(build_parser())
        assert dests(shared) <= dests(autotune_parser())
        # The flag budget: 25 options before the run spec, 21 since.
        assert len(dests(build_parser())) <= 22

    def test_mechanism_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--mechanism", "XYZ"])


class TestMain:
    def test_sweep_end_to_end(self, capsys):
        rc = main(["sweep", "--threads", "8", "--machine", "generic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lpi_NUMA" in out
        assert "address-centric view" in out
        assert "advisor:" in out

    def test_optimize_flag(self, capsys):
        rc = main(["sweep", "--threads", "8", "--optimize"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimized run" in out

    def test_scatter_binding_and_mrk(self, capsys):
        rc = main([
            "sweep", "--threads", "8", "--mechanism", "MRK",
            "--binding", "scatter",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # MRK path: no latency metric.
        assert "lpi_NUMA unavailable" in out

    def test_var_override(self, capsys):
        rc = main(["sweep", "--threads", "4", "--var", "data"])
        assert rc == 0
        assert "address-centric view — data" in capsys.readouterr().out

    def test_scale_flag(self, capsys):
        rc = main(["sweep", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        assert "scale 0.05" in capsys.readouterr().out

    def test_extrapolate_flag_prints_phase_summary(self, capsys):
        rc = main(["sweep", "--threads", "8", "--scale", "0.1",
                   "--extrapolate"])
        assert rc == 0
        assert "phase extrapolation:" in capsys.readouterr().out

    def test_exact_run_prints_no_phase_summary(self, capsys):
        rc = main(["sweep", "--threads", "8", "--scale", "0.1"])
        assert rc == 0
        assert "phase extrapolation:" not in capsys.readouterr().out


#: ``python -m repro`` and ``python -m repro autotune``: both build their
#: run from the same options.
COMMANDS = [[], ["autotune"]]


class TestErrors:
    def test_unknown_machine_is_one_clean_line(self, capsys):
        rc = main(["sweep", "--machine", "nope"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown machine preset")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command, bad", [
        pytest.param(command, bad, id="-".join([*command, bad]))
        for command in COMMANDS
        for bad in ["0", "-1", "nan", "-inf", "inf", "1e18"]
    ])
    def test_bad_scale_is_one_clean_line(self, capsys, command, bad):
        """Non-positive, NaN, and absurd --scale values die with a
        one-line usage error (exit 2) instead of a deep traceback from
        workload setup."""
        rc = main([*command, "sweep", f"--scale={bad}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --scale")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS, ids=["repro", "autotune"])
    @pytest.mark.parametrize("flag, bad, error", [
        pytest.param(flag, bad, f"{flag} must be at least 1, got {bad}",
                     id=f"{flag}-{bad}")
        for flag, bad in [
            ("--threads", "0"), ("--threads", "-4"), ("--period", "0"),
            ("--workers", "0"), ("--workers", "-2"),
        ]
    ] + [
        # sweep runs on the 16-thread generic preset.
        pytest.param("--threads", "1000",
                     "1000 threads exceed 16 hardware threads",
                     id="--threads-1000"),
    ])
    def test_bad_count_is_rejected_before_the_run(
        self, tmp_path, capsys, command, flag, bad, error
    ):
        """A zero or negative count is an error, not the default, and
        so is more threads than the machine has; the run writes nothing
        before it is rejected."""
        rc = main([*command, "sweep", flag, bad, "--runs-dir",
                   str(tmp_path / "runs")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"
        assert not (tmp_path / "runs").exists()


    @pytest.mark.parametrize("report", [[], ["--report"]],
                             ids=["views", "report"])
    def test_unknown_var_is_one_clean_line(self, tmp_path, capsys, report):
        """An unknown --var is checked against the merged profile before
        the run prints or records anything, with or without --report."""
        rc = main(["sweep", "--threads", "4", "--scale", "0.05",
                   "--var", "nosuch", *report,
                   "--runs-dir", str(tmp_path / "runs")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no profile data for variable 'nosuch'\n"
        )
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_top_below_one_is_rejected_before_the_run(
        self, tmp_path, capsys, bad
    ):
        """--top 0 would print an empty table and a negative --top a
        slice of all but the last variables; both are usage errors."""
        rc = main(["sweep", "--top", bad, "--runs-dir",
                   str(tmp_path / "runs")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --top must be at least 1, got {bad}\n"
        assert not (tmp_path / "runs").exists()


def test_truncated_pipe_ends_quietly():
    """A reader that closes the pipe early (``| head -1``) ends the run
    with exit 1 and no traceback, whether stdout is buffered or not."""
    for unbuffered in ("", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)  # so the run's first write already fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lulesh", "--scale", "0.05",
                 "--no-save", "--quiet"],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                text=True, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "BrokenPipeError" not in proc.stderr, proc.stderr


class TestTelemetryFlags:
    def test_trace_stats_jsonl(self, tmp_path, capsys):
        from repro import obs
        from repro.obs import validate_chrome_trace

        trace = tmp_path / "out.trace.json"
        jsonl = tmp_path / "out.jsonl"
        rc = main([
            "sweep", "--threads", "8", "--scale", "0.1",
            "--trace", str(trace), "--trace-jsonl", str(jsonl), "--stats",
        ])
        assert rc == 0
        assert validate_chrome_trace(trace) == []
        assert jsonl.stat().st_size > 0
        out = capsys.readouterr().out
        assert "telemetry summary — spans" in out
        assert "engine.run" in out
        assert "sampling.samples.selected" in out
        # The CLI must leave the global tracer off for the next caller.
        assert not obs.TRACER.enabled

    @pytest.mark.parametrize("argv, runs", [
        (["umt", "--extrapolate", "--scale", "0.05"], 1),
        # At this scale the advisor's fixes apply and the tuned
        # program is re-run.
        (["lulesh", "--optimize", "--scale", "0.5"], 2),
    ], ids=["umt-extrapolate", "lulesh-optimize"])
    def test_profiled_program_is_simulated_once(self, argv, runs, capsys):
        """The baseline comes from the monitored run: only the re-run of
        a tuned program adds an ``engine.run``."""
        from repro import obs

        assert main([*argv, "--no-save", "--stats"]) == 0
        spans = [e for e in obs.TRACER.events if e[:2] == ("B", "engine.run")]
        assert len(spans) == runs
        out = capsys.readouterr().out
        assert ("optimized run:" in out) == ("--optimize" in argv)

    def test_stats_without_trace_file(self, tmp_path, capsys):
        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry summary — counters" in out

    def test_run_without_telemetry_collects_nothing(self, capsys):
        from repro import obs

        obs.TRACER.clear()  # drop data a prior --stats run left readable
        rc = main(["sweep", "--threads", "4", "--scale", "0.05"])
        assert rc == 0
        assert obs.TRACER.events == []
        assert "telemetry summary" not in capsys.readouterr().out

    def test_verbose_and_quiet_set_log_levels(self):
        import logging

        from repro import obs

        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "-vv"])
        assert rc == 0
        assert obs.logger.level == logging.DEBUG
        rc = main(["sweep", "--threads", "4", "--scale", "0.05", "-q"])
        assert rc == 0
        assert obs.logger.level == logging.ERROR
