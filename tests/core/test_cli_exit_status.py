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
