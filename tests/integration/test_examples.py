"""The shipped examples run end to end and print what they always printed.

Each example is executed as a script (``runpy``, ``__main__``) and its
stdout is compared with literals recorded when the examples still built
their faults from Python factories: the tclish filter scripts they use now
draw from the same seeded streams, so every figure is unchanged.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out.splitlines()


FAILURE_MODEL_TABLE = """\
GMP under the failure-model lattice (victim = highest address)
+==================+====================+================+============+
| Failure model    | Victim             | Survivor views | After heal |
+==================+====================+================+============+
| process crash    | excluded           | consistent     | rejoined   |
+------------------+--------------------+----------------+------------+
| link crash       | excluded           | consistent     | rejoined   |
+------------------+--------------------+----------------+------------+
| send omission    | tolerated in-group | consistent     | rejoined   |
+------------------+--------------------+----------------+------------+
| receive omission | tolerated in-group | consistent     | rejoined   |
+------------------+--------------------+----------------+------------+
| general omission | tolerated in-group | DIVERGED       | rejoined   |
+------------------+--------------------+----------------+------------+
| timing           | tolerated in-group | consistent     | rejoined   |
+------------------+--------------------+----------------+------------+
| byzantine        | tolerated in-group | DIVERGED       | rejoined   |
+------------------+--------------------+----------------+------------+
"""

SEVERITY_LINES = """\
severity ordering (paper section 2.2):
  process_crash      covers: -
  link_crash         covers: -
  send_omission      covers: process_crash
  receive_omission   covers: process_crash
  general_omission   covers: send_omission, receive_omission, link_crash, \
process_crash
  timing             covers: general_omission, send_omission, \
receive_omission, link_crash, process_crash
  byzantine          covers: timing, general_omission, send_omission, \
receive_omission, link_crash, process_crash
"""


def test_failure_model_sweep_table(capsys):
    lines = run_example("failure_model_sweep", capsys)
    table = FAILURE_MODEL_TABLE.splitlines()
    start = lines.index(table[0])
    assert lines[start:start + len(table)] == table
    severity = SEVERITY_LINES.splitlines()
    assert lines[-len(severity):] == severity


_ALL = "{1: (1, 2, 3, 4, 5), 2: (1, 2, 3, 4, 5), 3: (1, 2, 3, 4, 5), " \
       "4: (1, 2, 3, 4, 5), 5: (1, 2, 3, 4, 5)}"
_SPLIT = "{1: (1, 2), 2: (1, 2), 3: (3, 4, 5), 4: (3, 4, 5), 5: (3, 4, 5)}"

NEMESIS_VIEWS = (
    [f"  t=  15.0  {_ALL}"]
    + [f"  t=  {t}.0  {_SPLIT}" for t in (25, 35, 45)]
    + [f"  t=  {t}.0  {_ALL}" for t in (55, 65, 75, 85, 95)]
    + [f"  t= {t}.0  {_ALL}" for t in (105, 115, 125)])

NEMESIS_FINAL = [f"  gmd{n}: STABLE view=[1, 2, 3, 4, 5]"
                 for n in range(1, 6)]


def test_scheduled_nemesis_views_and_final_state(capsys):
    lines = run_example("scheduled_nemesis", capsys)
    views = lines.index("views through the run:") + 1
    assert lines[views:views + len(NEMESIS_VIEWS) + 1] == NEMESIS_VIEWS + [""]
    final = lines.index("final state:") + 1
    assert lines[final:final + len(NEMESIS_FINAL) + 1] == NEMESIS_FINAL + [""]


ABP_FINDERS = ["delay_abp_ack_send", "reorder_abp_ack_send",
               "omission_30pct_send", "delay_abp_data_receive",
               "duplicate_abp_data_receive", "reorder_abp_data_receive"]


def test_abp_bug_demo_finders(capsys):
    lines = run_example("abp_bug_demo", capsys)
    assert [line[4:] for line in lines if line.startswith("  - ")] == \
        ABP_FINDERS
