"""Tests for the CLI (fast commands only; table commands are exercised by
the benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_table_commands_registered(self):
        parser = build_parser()
        for name in ("table1", "table2", "table3", "table4", "exp5",
                     "figure4", "table5", "table6", "table7", "table8",
                     "all", "campaign"):
            args = parser.parse_args(
                [name, "gmp"] if name == "campaign" else [name])
            assert args.command == name

    def test_table2_delay_flag(self):
        args = build_parser().parse_args(["table2", "--delay", "8"])
        assert args.delay == 8.0

    def test_campaign_requires_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_campaign_tcp(self, capsys):
        assert main(["campaign", "tcp"]) == 0
        out = capsys.readouterr().out
        assert "drop_syn_send" in out
        assert "scripts generated for tcp" in out

    def test_campaign_gmp_with_tclish(self, capsys):
        assert main(["campaign", "gmp", "--tclish"]) == 0
        out = capsys.readouterr().out
        assert "xDrop cur_msg" in out
        assert "HEARTBEAT" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "SunOS 4.1.3" in out
        assert "Solaris 2.3" in out

    def test_exp5_runs(self, capsys):
        assert main(["exp5"]) == 0
        out = capsys.readouterr().out
        assert "Reordering" in out
        assert "queued" in out


class TestRunScript:
    def test_tcp_run_script(self, tmp_path, capsys):
        script = tmp_path / "drop.tcl"
        script.write_text(
            'incr seen\nif {$seen > 5} { xDrop cur_msg }\n')
        assert main(["run-script", str(script), "--init", "set seen 0",
                     "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "pfi stats" in out
        assert "'dropped'" in out

    def test_gmp_run_script(self, tmp_path, capsys):
        script = tmp_path / "drophb.tcl"
        script.write_text(
            'if {[msg_type cur_msg] eq "HEARTBEAT"} { xDrop cur_msg }\n')
        assert main(["run-script", str(script), "--protocol", "gmp",
                     "--direction", "send", "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "gmd1" in out

    def test_script_fault_is_one_line_and_exit_1(self, tmp_path, capsys):
        script = tmp_path / "runaway.tcl"
        for source in ("proc f {} {f}\nf\n", "set s {eval $s}\neval $s\n"):
            script.write_text(source)
            assert main(["run-script", str(script), "--duration", "5"]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"repro run-script: {script}: too many nested evaluations "
                f"(infinite loop?)\n")
            assert "pfi stats" not in captured.out

    def test_runtime_fault_in_a_lint_clean_script_is_one_line(
            self, tmp_path, capsys):
        script = tmp_path / "index.tcl"
        script.write_text("puts [string index abc]\n")
        assert main(["lint", str(script)]) == 0
        assert main(["run-script", str(script), "--duration", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f'repro run-script: {script}: error in command "string": ')
        assert captured.err.count("\n") == 1

    def test_missing_field_is_one_line_and_exit_1(self, tmp_path, capsys):
        script = tmp_path / "subject.tcl"
        script.write_text("msg_set_field subject 0\n")
        assert main(["run-script", str(script), "--protocol", "gmp",
                     "--duration", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f'repro run-script: {script}: error in command "msg_set_field": '
            f"message has no header field 'subject'\n")
        assert "Traceback" not in captured.err


#: outside files a command refuses with exit 2 and one stderr line
MISSING = "/nonexistent/x.jsonl"
OUTSIDE_FILES = {
    "run-script missing": (["run-script", MISSING],
                           f"repro run-script: no such file: {MISSING}"),
    "report missing": (["report", MISSING],
                       f"repro report: no such trace file: {MISSING}"),
    "trace missing": (["trace", MISSING],
                      f"repro trace: no such trace file: {MISSING}"),
    "trace --journal missing": (["trace", "--journal", MISSING],
                                f"repro trace: no such journal: {MISSING}"),
    "history --record missing": (
        ["history", "HISTORY", "--record", MISSING],
        f"repro history: no such journal: {MISSING}"),
    "report not JSON lines": (["report", "NOTJSON"],
                              "repro report: NOTJSON: not a JSON-lines "
                              "trace"),
    "trace not JSON lines": (["trace", "NOTJSON"],
                             "repro trace: NOTJSON: not a JSON-lines trace"),
}


@pytest.mark.parametrize("case", OUTSIDE_FILES)
def test_outside_file_is_one_line_and_exit_2(case, tmp_path, capsys):
    not_json = tmp_path / "not-json.txt"
    not_json.write_text("this is not a trace\n")
    history = tmp_path / "history"

    def place(text):
        return (text.replace("NOTJSON", str(not_json))
                .replace("HISTORY", str(history)))

    argv, line = OUTSIDE_FILES[case]
    assert main([place(arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == place(line) + "\n"
    assert not history.exists()


class TestSequenceCommand:
    def test_gmp_sequence(self, capsys):
        assert main(["sequence", "--protocol", "gmp",
                     "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "gmd1" in out
        assert "PROCLAIM" in out

    def test_tcp_sequence(self, capsys):
        assert main(["sequence", "--protocol", "tcp",
                     "--duration", "3"]) == 0
        out = capsys.readouterr().out
        assert "vendor" in out
        assert "SYN" in out


class TestLintCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        script = tmp_path / "ok.tcl"
        script.write_text(
            'if {[msg_type cur_msg] eq "ACK"} { xDelay 3.0 }\n')
        assert main(["lint", str(script)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "0 error(s)" in out

    def test_broken_file_exits_one(self, tmp_path, capsys):
        script = tmp_path / "bad.tcl"
        script.write_text("xDropp cur_msg\nchance 1.5\n")
        assert main(["lint", str(script)]) == 1
        out = capsys.readouterr().out
        assert "SL001" in out and "SL006" in out
        assert f"{script}:1:1" in out       # file:line:col shape

    def test_directory_walk(self, tmp_path, capsys):
        (tmp_path / "a.tcl").write_text("set x 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.tcl").write_text("chance 2.0\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "a.tcl" in out and "b.tcl" in out

    def test_init_flag(self, tmp_path):
        script = tmp_path / "counted.tcl"
        script.write_text("if {$n > 3} { xDrop cur_msg }\n")
        assert main(["lint", str(script)]) == 1       # $n undefined
        assert main(["lint", str(script), "--init", "set n 0"]) == 0

    def test_json_output(self, tmp_path, capsys):
        import json
        script = tmp_path / "bad.tcl"
        script.write_text("chance 1.5\n")
        assert main(["lint", str(script), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is False
        assert payload[0]["diagnostics"][0]["code"] == "SL006"

    def test_gen_batteries(self, capsys):
        assert main(["lint", "--gen", "tcp,gmp"]) == 0
        out = capsys.readouterr().out
        assert "generated:tcp" in out and "generated:gmp" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/x.tcl"]) == 2

    def test_bare_eval_is_sl002_not_a_crash(self, tmp_path, capsys):
        script = tmp_path / "eval.tcl"
        script.write_text("set v 1\neval\n")
        assert main(["lint", str(script)]) == 1
        out = capsys.readouterr().out
        assert f'{script}:2:1: error SL002: wrong # args for "eval"' in out

    def test_repo_example_corpus_clean(self, capsys):
        import pathlib
        corpus = pathlib.Path(__file__).resolve().parents[2] / (
            "examples/filters")
        assert main(["lint", str(corpus)]) == 0


class TestFuzzCheckpointFlags:
    def test_checkpoint_depth_parses(self):
        args = build_parser().parse_args(
            ["fuzz", "--checkpoint-depth", "8"])
        assert args.checkpoint_depth == 8.0
        assert args.progress is False

    def test_default_session_forks_at_the_stock_install_depth(
            self, tmp_path):
        from repro.obs.journal import replay_journal
        from repro.oracle.fuzz import DEFAULT_DEPTHS
        assert build_parser().parse_args(["fuzz"]).checkpoint_depth is None
        for protocol, depth in DEFAULT_DEPTHS.items():
            journal = tmp_path / f"{protocol}.jsonl"
            assert main(["fuzz", "--protocol", protocol, "--budget", "8",
                         "--journal", str(journal)]) == 0
            replay = replay_journal(journal)
            assert replay.of("campaign.start")[0].get(
                "checkpoint_depth") == depth
            assert all(e.get("depth") == depth and e.get("target")
                       for e in replay.of("campaign.checkpoint_capture"))
            end = replay.last("campaign.end")
            assert end.get("prefix_forks") == 8
            assert end.get("checkpoint_hit_rate") == \
                1 - end.get("prefix_captures") / 8
            # every trial forked its target's prefix at the stock depth
            assert all(e.get("forked") and str(depth) in e.get("prefix")
                       for e in replay.of("campaign.run_end"))

    def test_fuzz_checkpointed_run(self, capsys):
        assert main(["fuzz", "--protocol", "gmp", "--seed", "3",
                     "--budget", "8", "--checkpoint-depth", "8",
                     "--progress"]) == 0
        out = capsys.readouterr().out
        assert "checkpointed @ depth 8" in out
        assert "hit-rate" in out
        assert "[fuzz gmp]" in out  # the --progress lines

    def test_workers_is_a_usage_error(self, capsys):
        # fuzz batches run in this process, over the session's pool
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--workers", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err
        assert "Traceback" not in err

    def test_save_repro_journals_every_shrink_probe(self, tmp_path,
                                                    capsys):
        import re

        from repro.obs.campaign_report import summarize_journal
        journal = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--protocol", "gmp", "--seed", "0",
                     "--budget", "8", "--journal", str(journal),
                     "--save-repro", str(tmp_path / "repro")]) == 0
        runs = [int(n) for n in
                re.findall(r"\((\d+) runs\)", capsys.readouterr().out)]
        summary = summarize_journal(journal)
        assert runs and summary.shrink_steps == sum(runs)
        # one flight record; the shrinkers fork the sweep's pooled
        # prefixes, so every capture is one the sweep journaled
        assert summary.engine == "fuzz" and summary.executed == 8
        assert len(summary.checkpoints) == summary.end["prefix_captures"]


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_early_is_not_a_traceback(self, unbuffered):
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fuzz", "--budget", "12",
             "--progress"],
            env=dict(os.environ, PYTHONPATH=str(src),
                     PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if unbuffered:
            # `| head -1`: one progress line per batch, two batches to go
            assert proc.stdout.readline().startswith(b"[fuzz gmp] 4/12")
        # else `| head -0`: a block-buffered stdout writes only on exit
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == b""


class TestExploreCommand:
    def test_explore_finds_the_planted_bug(self, capsys):
        assert main(["explore", "--target", "self_death",
                     "--max-schedules", "24"]) == 1
        out = capsys.readouterr().out
        assert "GMP-SELF-DEATH" in out
        assert "explore gmp/self_death" in out

    def test_explore_fixed_build_exits_zero(self, capsys):
        assert main(["explore", "--target", "fixed",
                     "--max-schedules", "8"]) == 0
        assert "findings 0" in capsys.readouterr().out

    def test_explore_unstarted_world_exits_two_with_one_line(self, capsys):
        # tcp's default depth is 0.0: rig built, no traffic yet
        assert main(["explore", "--protocol", "tcp",
                     "--target", "SunOS 4.1.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro explore: explore tcp/SunOS 4.1.3")
        assert "--depth" in line

    def test_explore_refuses_three_perturbations_with_one_line(self, capsys):
        assert main(["explore", "--max-schedules", "4",
                     "--max-perturbations", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "repro explore: max_perturbations > 2 is not implemented")

    def test_explore_prints_the_plan_census(self, capsys):
        main(["explore", "--target", "fixed", "--max-schedules", "8",
              "--max-perturbations", "2"])
        assert ("  plans: 7 of 54 singles, 0 of 1,404 pairs"
                in capsys.readouterr().out.splitlines())

    def test_explore_flags_parse(self):
        args = build_parser().parse_args(
            ["explore", "--protocol", "tcp", "--target", "SunOS 4.1.3",
             "--depth", "5", "--window", "0.5", "--horizon", "12",
             "--max-schedules", "9", "--max-perturbations", "2",
             "--defer-delta", "1.5"])
        assert args.protocol == "tcp"
        assert (args.depth, args.window, args.horizon) == (5.0, 0.5, 12.0)
        assert (args.max_schedules, args.max_perturbations) == (9, 2)
        assert args.defer_delta == 1.5


class TestPlacementRefusal:
    """A placement no run can honour exits 2 with one line, before a
    journal or campaign directory is created."""

    @pytest.mark.parametrize("argv, message", [
        (["fuzz", "--checkpoint-depth", "-5"],
         "repro fuzz: depth -5 is not in [0, horizon 30)"),
        (["fuzz", "--protocol", "tcp", "--checkpoint-depth", "40"],
         "repro fuzz: depth 40 is not in [0, horizon 30)"),
        (["sweep", "--depth", "40"],
         "repro sweep: depth 40 is not in [0, horizon 30)"),
        (["sweep", "--depth", "-1"],
         "repro sweep: depth -1 is not in [0, horizon 30)"),
        (["sweep", "--targets", "nosuch"],
         "repro sweep: unknown gmp target 'nosuch'"),
        (["sweep", "--protocol", "tcp", "--targets", "Linux"],
         "repro sweep: unknown tcp target 'Linux'"),
        (["explore", "--depth", "40"],
         "repro explore: depth 40 is not in [0, horizon 30)"),
        (["explore", "--depth", "-2"],
         "repro explore: depth -2 is not in [0, horizon 30)"),
        (["explore", "--window", "-1"],
         "repro explore: window -1 must be positive"),
    ], ids=["fuzz-negative-depth", "fuzz-depth-past-horizon",
            "sweep-depth-past-horizon", "sweep-negative-depth",
            "sweep-unknown-gmp-target", "sweep-unknown-tcp-target",
            "explore-depth-past-horizon", "explore-negative-depth",
            "explore-negative-window"])
    def test_exits_two_with_one_line(self, argv, message, tmp_path, capsys):
        where = str(tmp_path / "campaign")
        flag = "--journal-dir" if argv[0] == "sweep" else "--journal"
        assert main([*argv, flag, where]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(message)
        assert list(tmp_path.iterdir()) == []

    def test_window_must_close_by_the_horizon(self, capsys):
        assert main(["explore", "--depth", "29", "--window", "2"]) == 2
        assert capsys.readouterr().err == (
            "repro explore: window [29, 31] runs past the horizon 30\n")
