"""The exit status a real ``python -m repro`` process ends with.

``tests/core/test_cli.py`` drives ``main()`` in-process; these run the
module as a separate interpreter, so the status the shell sees -- and
the absence of a traceback on stderr -- is what is checked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _repro(*args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, source, message", [
    ("string-index.tcl", "puts [string index abc]\n",
     'error in command "string": '),
    ("overflow.tcl", "puts [expr {1e308 * 10}]\n",
     "floating-point value too large to represent"),
    ("arity.tcl", "puts [expr {abs(1, 2)}]\n",
     'too many arguments for math function "abs"'),
])
def test_a_runtime_fault_exits_1_with_one_line(tmp_path, name, source,
                                               message):
    (tmp_path / name).write_text(source)
    assert _repro("lint", name, cwd=tmp_path).returncode == 0
    done = _repro("run-script", name, "--duration", "5", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith(f"repro run-script: {name}: {message}")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_a_bare_eval_lints_to_exit_1_not_a_crash(tmp_path):
    (tmp_path / "bare-eval.tcl").write_text("set v 1\neval\n")
    done = _repro("lint", "bare-eval.tcl", cwd=tmp_path)
    assert done.returncode == 1
    assert "SL002" in done.stdout
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("args, message, status", [
    (["sweep", "--workers", "abc", "--journal-dir", "sweep-bad"],
     "repro sweep: error: argument --workers: ", 2),
    (["sweep", "--targets", "nosuch", "--journal-dir", "sweep-nosuch"],
     "repro sweep: unknown gmp target 'nosuch'", 2),
    (["fuzz", "--protocol", "tcp", "--checkpoint-depth", "40",
      "--journal", "fuzz.jsonl"],
     "repro fuzz: depth 40 is not in [0, horizon 30)", 2),
    (["sweep", "--count", "0", "--journal-dir", "sweep-empty"],
     "repro sweep: error: argument --count: expected an int >= 1", 2),
    # a lint error refuses the script before anything runs: exit 1
    (["run-script", "bad.tcl"], "bad.tcl: 1 error(s), 0 warning(s)", 1),
])
def test_a_refused_sweep_or_fuzz_exits_2_and_creates_nothing(tmp_path, args,
                                                             message, status):
    (tmp_path / "bad.tcl").write_text("xDropp cur_msg\n")
    done = _repro(*args, cwd=tmp_path)
    assert done.returncode == status
    assert done.stderr.splitlines()[-1].startswith(message)
    assert "Traceback" not in done.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.tcl"]


@pytest.mark.parametrize("args", [["campaign", "abp", "--tclish"],
                                  ["lint", "--gen", "tcp,gmp,abp"]])
def test_every_declared_schema_generates(tmp_path, args):
    done = _repro(*args, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "abp" in done.stdout
    assert done.stderr == ""


@pytest.mark.parametrize("args, cmd", [(["campaign", "nosuch"], "campaign"),
                                       (["lint", "--gen", "tcp,nosuch"],
                                        "lint")])
def test_an_unknown_protocol_exits_2_with_one_line(tmp_path, args, cmd):
    done = _repro(*args, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr == (f"repro {cmd}: unknown protocol 'nosuch'; "
                           f"expected one of tcp, gmp, abp\n")
    assert done.stdout == ""


@pytest.mark.parametrize("where, args", [
    ("magic", ["--resume", "sweep"]),
    ("version", ["--resume", "sweep"]),
    ("payload", ["--resume", "sweep"]),
    ("trailer", ["--resume", "sweep"]),
    ("payload", ["--journal-dir", "sweep", "--count", "1"]),
])
def test_a_damaged_spec_refuses_the_sweep_with_one_line(tmp_path, where,
                                                        args):
    from repro.core.envelope import _MAGIC
    from repro.core.fabric import SweepSpec
    from repro.oracle.fuzz import pack_for, prefixed_fuzz_body, sweep_battery

    fabric_dir = tmp_path / "sweep"
    path = SweepSpec(body=prefixed_fuzz_body, seed=5,
                     configs=sweep_battery("gmp", ["fixed"], 3),
                     oracle=pack_for("gmp")).save(fabric_dir / "spec.pkl")
    blob = bytearray(path.read_bytes())
    offset = {"magic": 0, "version": len(_MAGIC) + 1,
              "payload": len(blob) // 2, "trailer": len(blob) - 1}[where]
    blob[offset] ^= 0x01
    path.write_bytes(blob)

    done = _repro("sweep", *args, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("repro sweep: undecodable sweep spec at ")
    assert done.stderr.count("\n") == 1
    assert done.stdout == ""
    # refused before anything ran: no store, no journal
    assert [p.name for p in fabric_dir.iterdir()] == ["spec.pkl"]


@pytest.mark.parametrize("command, status, error", [
    ("return", 0, ""),
    ("break", 1, 'invoked "break" outside of a loop'),
    ("continue", 1, 'invoked "continue" outside of a loop'),
])
def test_top_level_control_flow_ends_the_filter_run(tmp_path, command,
                                                    status, error):
    # a top-level return ends one filter run, as it ends a sourced Tcl
    # file; break / continue outside a loop is Tcl's own error
    (tmp_path / "top.tcl").write_text(
        f'if {{[msg_type] eq "DATA"}} {{ {command} }}\nxDrop cur_msg\n')
    assert _repro("lint", "top.tcl", cwd=tmp_path).returncode == 0
    done = _repro("run-script", "top.tcl", "--duration", "5", cwd=tmp_path)
    assert done.returncode == status
    assert "Traceback" not in done.stderr
    if status:
        assert done.stderr == f"repro run-script: top.tcl: {error}\n"
    else:
        assert done.stderr == ""
        # every run ended at the return, before its xDrop
        assert "'dropped': 0," in done.stdout
