"""Pinned explorations, the prefix-shared outcome digest, the plan census.

Three things the explorer's internals must keep true, next to the
black-box suite in ``test_explore.py``:

- the outcome hashes, verdict codes and applied perturbations of four
  pinned explorations are what commit e2cd17e (capture-on-every-mark,
  whole-trace ``dump_trace`` hash) produced -- the literals below were
  computed there;
- every schedule's outcome hash is the hash of its whole trace, while
  the digest renders the root's prefix once per exploration and a row
  past it only when no earlier schedule rendered an equal row: the
  schedules share one line memo, which lives as long as the
  exploration, and rows that compare equal but render apart never
  share a line;
- the plan census is arithmetic that agrees with ``_plans``, and an
  exploration with nothing to explore, or a perturbation bound outside
  ``[1, 2]``, says so before the first schedule.
"""

import gc
import hashlib
import json
import weakref

import pytest

from repro.analysis import export
from repro.analysis.export import (VOLATILE_ATTRS, dump_trace, line_key,
                                   render_rows)
from repro.cli import main
from repro.core.orchestrator import make_env
from repro.netsim.trace import TraceEntry, TraceRecorder
from repro.obs.campaign_report import render_text, summarize_journal
from repro.oracle import explore as explore_module
from repro.oracle.explore import (ExploreError, _plan_census, _plans,
                                  explore)
from repro.oracle.fuzz import DEFAULT_DEPTHS

# outcome hashes of explore("gmp", "self_death", max_schedules=120,
# max_perturbations=2) at e2cd17e, in schedule order; the plan order is
# fixed, so every smaller pinned exploration is a prefix of this one
PINNED_HASHES = [
    "89d3f4e77e8c1560", "89d3f4e77e8c1560", "89d3f4e77e8c1560", "f3492ee4b4fd29be",
    "d306987775974e68", "89d3f4e77e8c1560", "89d3f4e77e8c1560", "89d3f4e77e8c1560",
    "89d3f4e77e8c1560", "9b973c515962fb22", "bce30875bf42ad5f", "702d8e70f9d41b1f",
    "5d427fcbd393428c", "fe0998bc66d5782a", "9640cdefabe41bd6", "3c2e70cdacead5b0",
    "b284c84a75cd8b56", "dbc6862966f7002b", "5b0df93d1482a746", "45899489bb6b776e",
    "dbc480edbec9b0f7", "8aa16083271a2a35", "b05153e34a116ced", "0e0e4303cdedb8c4",
    "73e2aee6e3c30f54", "9ad301b04b94a0b7", "3ecd79a28813dd66", "787199c15a6e613b",
    "cc3e5092559b3d76", "e044ab0bbeb25329", "27c469621cc65228", "9bc45bd013f711e8",
    "35d34755bc2b6547", "a8227b9d0f5ca0a3", "cd04eccb58e497de", "ea4a835b91784ed3",
    "794ba4f86926c531", "e248087bf707aba6", "7eff45797a4e868c", "4b15ba5b2bb44872",
    "b560be70c18ffb79", "551f23aba864e3b2", "b19187dca06d6def", "87affb85bc499d9b",
    "f18a6a8cf174434f", "8c84d0bf2d5bad90", "b19b4f7ea987985f", "a4a032586208c915",
    "a69eb1cce76629b6", "70c51f871159d933", "d30bade7dfe8e25c", "8acc7392da4aff63",
    "5e202a28220ff661", "0780978be54ec9d1", "304f9a030d8e48a9", "f3492ee4b4fd29be",
    "d306987775974e68", "89d3f4e77e8c1560", "89d3f4e77e8c1560", "89d3f4e77e8c1560",
    "89d3f4e77e8c1560", "9b973c515962fb22", "bce30875bf42ad5f", "702d8e70f9d41b1f",
    "5d427fcbd393428c", "fe0998bc66d5782a", "9640cdefabe41bd6", "3c2e70cdacead5b0",
    "b284c84a75cd8b56", "dbc6862966f7002b", "5b0df93d1482a746", "45899489bb6b776e",
    "dbc480edbec9b0f7", "8aa16083271a2a35", "b05153e34a116ced", "0e0e4303cdedb8c4",
    "73e2aee6e3c30f54", "9ad301b04b94a0b7", "3ecd79a28813dd66", "787199c15a6e613b",
    "cc3e5092559b3d76", "e044ab0bbeb25329", "27c469621cc65228", "9bc45bd013f711e8",
    "35d34755bc2b6547", "a8227b9d0f5ca0a3", "cd04eccb58e497de", "ea4a835b91784ed3",
    "794ba4f86926c531", "e248087bf707aba6", "7eff45797a4e868c", "4b15ba5b2bb44872",
    "b560be70c18ffb79", "551f23aba864e3b2", "b19187dca06d6def", "87affb85bc499d9b",
    "f18a6a8cf174434f", "8c84d0bf2d5bad90", "b19b4f7ea987985f", "a4a032586208c915",
    "a69eb1cce76629b6", "70c51f871159d933", "d30bade7dfe8e25c", "8acc7392da4aff63",
    "5e202a28220ff661", "0780978be54ec9d1", "304f9a030d8e48a9", "f3492ee4b4fd29be",
    "d306987775974e68", "89d3f4e77e8c1560", "89d3f4e77e8c1560", "89d3f4e77e8c1560",
    "89d3f4e77e8c1560", "381472a119814825", "6cf49f7935dfb13a", "13a113c4cf968828",
    "f223194d05e17577", "fe0998bc66d5782a", "9640cdefabe41bd6", "3c2e70cdacead5b0",
]

# (kwargs, schedules run, sha256[:16] over every schedule's
# [codes, [(step, action, description), ...]]) as computed at e2cd17e.
# 48 schedules are the baseline + 47 of 54 singles; 90 and 120 reach
# into the pairs.
PINNED = [
    (dict(max_schedules=48, max_perturbations=2), 48, "f76d58d492234590"),
    (dict(max_schedules=120, max_perturbations=2), 120,
     "aedc766a3bf261a0"),
    (dict(max_schedules=64, max_perturbations=1), 55, "63ac979b238a5eef"),
    (dict(max_schedules=90, max_perturbations=2), 90, "d0d7f423d052bb20"),
]


def _verdicts(report) -> str:
    rows = [[o.codes, [[p.step, p.action, p.description]
                       for p in o.perturbations]]
            for o in report.outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs, schedules, verdicts", PINNED)
def test_outcomes_equal_the_parent_commits(kwargs, schedules, verdicts):
    report = explore("gmp", "self_death", **kwargs)
    assert report.schedules == schedules
    assert ([o.outcome_hash for o in report.outcomes]
            == PINNED_HASHES[:schedules])
    assert _verdicts(report) == verdicts
    assert report.ancestor_forks == 0


#: trace rows the outcome digests of the 48-schedule, 2-perturbation
#: exploration encode: the root's 293-row prefix, then every row past it
#: the schedules' shared line memo misses (28,837 before the memo; 3,274
#: while rows with tuple values were never keyed)
ROWS_ENCODED = 3130


def test_digest_census_reads_rows_not_entry_views(monkeypatch):
    # the incremental digest renders raw rows: no TraceEntry is built
    # inside _TraceDigest.absorb, the root's prefix is encoded once and
    # a row past it only on a memo miss, and each outcome hash is still
    # the hash of a whole-trace dump_trace
    import repro.oracle

    inside, views, rows = [False], [0], [0]
    entry_init = TraceEntry.__init__
    absorb = explore_module._TraceDigest.absorb
    encode = export._encode
    evaluate = repro.oracle.evaluate
    full, lengths = [], []

    def counting_init(self, *args):
        views[0] += inside[0]
        entry_init(self, *args)

    def marked_absorb(self, trace):
        inside[0] = True
        try:
            absorb(self, trace)
        finally:
            inside[0] = False

    def counting_encode(piece):
        if inside[0]:
            rows[0] += len(piece) if type(piece) is list else 1
        return encode(piece)

    def dumping_evaluate(trace, pack):
        # once per schedule, over its final trace
        lengths.append(len(trace))
        text = dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)
        full.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        return evaluate(trace, pack)

    monkeypatch.setattr(TraceEntry, "__init__", counting_init)
    monkeypatch.setattr(explore_module._TraceDigest, "absorb", marked_absorb)
    monkeypatch.setattr(export, "_encode", counting_encode)
    monkeypatch.setattr(repro.oracle, "evaluate", dumping_evaluate)
    report = explore("gmp", "self_death", max_schedules=48,
                     max_perturbations=2)
    assert views[0] == 0
    # the prefix every schedule forks, run cold
    env = make_env(seed=0)
    explore_module.schedule_body.prefix(
        env, {"protocol": "gmp", "target": "self_death",
              "install_at": DEFAULT_DEPTHS["gmp"]})
    prefix = len(env.trace)
    assert prefix == 293
    assert prefix < rows[0] < sum(n - prefix for n in lengths)
    assert rows[0] == ROWS_ENCODED
    assert [o.outcome_hash for o in report.outcomes] == full


# ----------------------------------------------------------------------
# the outcome digest's line memo
# ----------------------------------------------------------------------

NAN = float("nan")

#: rows that compare equal in Python but render apart, NaN, containers
#: (tuple and list alike, flat and nested, holding values that compare
#: equal but render apart; a dict is unhashable), and rows that differ
#: only in a volatile attr, which render alike
MIXED = [
    (1.0, "k", {"v": True}), (1.0, "k", {"v": 1}), (1.0, "k", {"v": 1.0}),
    (2.0, "k", {"v": 0.0}), (2.0, "k", {"v": -0.0}),
    (0.0, "k", {"v": 2}), (-0.0, "k", {"v": 2}),
    (3.0, "k", {"v": (1, 2)}), (3.0, "k", {"v": [1, 2]}),
    (3.0, "k", {"v": (True, 2)}), (3.0, "k", {"v": [1.0, 2]}),
    (3.0, "k", {"v": (1,)}), (3.0, "k", {"v": (True,)}),
    (3.0, "k", {"v": (1.0,)}), (3.0, "k", {"v": ((1, 2),)}),
    (3.0, "k", {"v": ([1, 2],)}), (3.0, "k", {"v": ("a", None)}),
    (3.0, "k", {"v": ["a", None]}), (3.0, "k", {"v": 1, "w": (1, "a")}),
    (4.0, "k", {"v": NAN}), (4.0, "k", {"v": NAN}), (NAN, "k", {"v": 4}),
    (5.0, "k", {"v": {"a": 1}}), (5.0, "k", {"v": {"a": True}}),
    (6.0, "k", {"v": None}), (6.0, "k", {"v": "None"}),
    (7.0, "k", {"v": 7, "uid": 1}), (7.0, "k", {"v": 7, "uid": 2}),
    (7.0, "k", {"v": 7, "parent": 3}), (7.0, "k", {"v": 7}),
]


def _trace(rows):
    trace = TraceRecorder()
    for t, kind, attrs in rows:
        trace.record(kind, t=t, **attrs)
    return trace


def _sha(trace):
    text = dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)
    return hashlib.sha256(text.encode()).hexdigest()


def test_line_key_is_shared_only_by_rows_rendered_alike():
    excluded = frozenset(VOLATILE_ATTRS)
    for row in MIXED:
        for other in MIXED:
            key = line_key(*row, excluded)
            if key is not None and key == line_key(*other, excluded):
                assert (render_rows([row], excluded)
                        == render_rows([other], excluded)), (row, other)
    # a volatile attr leaves the key as it leaves the line
    keys = {line_key(*row, excluded) for row in MIXED[-4:]}
    assert len(keys) == 1 and None not in keys


def _check_forked_digests():
    # the root absorbs the mixed rows; a fork of it absorbs them again,
    # in reverse, so every row is looked up after each of its partners
    # was stored -- and the root then goes on in forward order
    trace = _trace(MIXED)
    digest = explore_module._TraceDigest()
    digest.absorb(trace)
    assert digest.hexdigest() == _sha(trace)
    forked_trace = trace.fork()
    for t, kind, attrs in reversed(MIXED):
        forked_trace.record(kind, t=t, **attrs)
    forked = digest.copy()
    forked.absorb(forked_trace)
    assert forked.hexdigest() == _sha(forked_trace)
    for t, kind, attrs in MIXED:
        trace.record(kind, t=t, **attrs)
    digest.absorb(trace)
    assert digest.hexdigest() == _sha(trace)


def test_forked_digest_of_mixed_rows_is_the_whole_trace_hash():
    _check_forked_digests()


def test_key_without_value_types_is_killed(monkeypatch):
    # the mutation: bools and floats keyed like ints, so True, 1 and
    # 1.0 (and 0.0 and -0.0) share one line
    monkeypatch.setattr(export, "_EXACT", export._EXACT | {bool, float})
    with pytest.raises(AssertionError):
        _check_forked_digests()


def test_key_of_any_tuple_is_killed(monkeypatch):
    # the mutation: a flat tuple keyed whatever scalars it holds, so
    # (1,), (True,) and (1.0,) share one line
    line_key = export.line_key

    def loose_key(time, kind, attrs, excluded):
        tuples = [v for v in attrs.values() if type(v) is tuple]
        rest = {k: v for k, v in attrs.items() if type(v) is not tuple}
        if (line_key(time, kind, rest, excluded) is None or not all(
                export._SCALARS.issuperset(map(type, v)) for v in tuples)):
            return None
        return (time, kind, *attrs, *attrs.values())

    monkeypatch.setattr(explore_module, "line_key", loose_key)
    with pytest.raises(AssertionError):
        _check_forked_digests()


def test_one_memo_per_exploration_dies_with_it(monkeypatch):
    class Memo(dict):
        """A dict a weak reference can watch."""

    memos = []
    init = explore_module._TraceDigest.__init__

    def watched_init(self, sha=None, position=0, lines=None):
        if lines is None:
            lines = Memo()
            memos.append(weakref.ref(lines))
        init(self, sha, position, lines)

    monkeypatch.setattr(explore_module._TraceDigest, "__init__",
                        watched_init)
    report = explore("gmp", "self_death", max_schedules=8)
    assert report.schedules == 8
    gc.collect()
    # every schedule's digest shared the root's memo, and nothing holds
    # it once explore() has returned
    assert len(memos) == 1 and memos[0]() is None


# ----------------------------------------------------------------------
# plan census
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kinds", [
    ["delivery", "other", "timer"], ["other"], [],
    ["timer"] * 5 + ["other"] * 2 + ["delivery"] * 4])
@pytest.mark.parametrize("max_perturbations", [1, 2, 3])
def test_plan_census_is_the_size_histogram_of_plans(kinds,
                                                    max_perturbations):
    steps = [(kind, f"e{n}") for n, kind in enumerate(kinds)]
    every_plan = _plans(steps, max_perturbations=max_perturbations,
                        max_schedules=10 ** 6)
    sizes = [sum(1 for plan in every_plan if len(plan) == size)
             for size in (1, 2)][:min(max_perturbations, 2)]
    for executed in (0, 1, 2, len(every_plan) // 2, len(every_plan)):
        census = _plan_census(steps, max_perturbations=max_perturbations,
                              executed=executed)
        ran = [len(plan) for plan in every_plan[:executed]]
        assert census == [(ran.count(size + 1), total)
                          for size, total in enumerate(sizes)]


def test_report_and_journal_say_what_the_budget_cut_off(tmp_path):
    journal = tmp_path / "j.jsonl"
    report = explore("gmp", "self_death", max_schedules=48,
                     max_perturbations=2, journal=journal)
    assert report.plans == [(47, 54), (0, 1404)]
    line = "  plans: 47 of 54 singles, 0 of 1,404 pairs"
    assert line in report.render().splitlines()
    summary = summarize_journal(journal)
    assert summary.end["plans"] == [[47, 54], [0, 1404]]
    assert line in render_text(summary).splitlines()
    # at the CLI default of one perturbation no pair plan exists
    report = explore("gmp", "self_death", max_schedules=8)
    assert report.plans == [(7, 54)]


def test_more_than_two_perturbations_is_refused_not_ignored(tmp_path):
    # _plans stops at pairs: k=3 used to run exactly k=2's schedules
    journal = tmp_path / "j.jsonl"
    with pytest.raises(ValueError, match="max_perturbations > 2 is not "
                                         "implemented"):
        explore("gmp", "self_death", max_schedules=4, max_perturbations=3,
                journal=journal)
    assert not journal.exists()  # refused before the flight opens


@pytest.mark.parametrize("bound", [0, -1])
def test_fewer_than_one_perturbation_is_refused(bound, tmp_path, capsys):
    # every plan past the baseline is a single: 0 used to run them all
    journal = tmp_path / "j.jsonl"
    with pytest.raises(ExploreError, match=f"max_perturbations < 1 is "
                                           f"refused \\(got {bound}\\)"):
        explore("gmp", "self_death", max_schedules=4,
                max_perturbations=bound, journal=journal)
    assert not journal.exists()
    assert main(["explore", "--max-schedules", "4",
                 "--max-perturbations", str(bound)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro explore: max_perturbations < 1")


# ----------------------------------------------------------------------
# nothing to explore
# ----------------------------------------------------------------------

def test_unstarted_world_fails_before_the_first_schedule(tmp_path):
    # DEFAULT_DEPTHS["tcp"] is 0.0: the rig is built, nothing recorded,
    # nothing pending
    journal = tmp_path / "j.jsonl"
    with pytest.raises(ExploreError) as raised:
        explore("tcp", "SunOS 4.1.3", journal=journal)
    message = str(raised.value)
    assert "tcp/SunOS 4.1.3" in message and "depth 0" in message
    assert "[0, 1.5]" in message and "--depth" in message
    assert isinstance(raised.value, ValueError)
    summary = summarize_journal(journal)
    assert summary.end == {"status": "preflight_failed", "executed": 0}
    assert summary.runs == []


def test_tcp_window_with_traffic_is_explored():
    report = explore("tcp", "SunOS 4.1.3", depth=2.0, window=0.5)
    assert report.plans == [(4, 4)]
    assert report.schedules == 5 and report.simulated_events > 0
