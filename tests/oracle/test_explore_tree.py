"""The plan-aware checkpoint tree and the prefix-shared outcome digest.

Four things the explorer's internals must keep true, next to the
black-box suite in ``test_explore.py``:

- the outcome hashes, verdict codes and applied perturbations of five
  pinned explorations are what commit e2cd17e (capture-on-every-mark,
  whole-trace ``dump_trace`` hash) produced -- the literals below were
  computed there;
- with the snapshot cap forced down to 2 the outcomes do not move, no
  more than 2 snapshots are ever live, and keeping the soonest-needed
  nodes simulates no more events than e2cd17e's LRU did at that cap;
- a plan whose perturbation lands on an ``other`` event (applied !=
  planned) never snapshots under, or forks from, a key it did not earn;
- the plan census is arithmetic that agrees with ``_plans``, and an
  exploration with nothing to explore says so before the first
  schedule.
"""

import hashlib
import json

import pytest

from repro.core.checkpoint import CheckpointPool
from repro.obs.campaign_report import render_text, summarize_journal
from repro.oracle import explore as explore_module
from repro.oracle.explore import (ExploreError, _Tree, _plan_census,
                                  _plans, _prefix_checkpoint,
                                  _run_schedule, _survey, explore)
from repro.oracle.fuzz import HORIZONS, pack_for

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
# [codes, [(step, action, description), ...]]) as computed at e2cd17e,
# then what the plan-aware tree captures and how many schedules fork a
# nested node (e2cd17e: 94/30, 99/74, 3/38, 178/73, 0/0).  48 schedules
# are the baseline + 47 of 54 singles: the baseline's marks 8 and 16
# serve the singles past them, while mark 24 and every mark on a singly
# perturbed branch would only serve plans the budget cut off.  120 add
# the baseline's mark 24 and three marks on the (0, drop) branch, the
# only one whose pairs reach past step 7.
PINNED = [
    (dict(max_schedules=48, max_perturbations=2), 48, "f76d58d492234590",
     2, 31),
    (dict(max_schedules=120, max_perturbations=2), 120,
     "aedc766a3bf261a0", 6, 76),
    (dict(max_schedules=64, max_perturbations=1), 55, "63ac979b238a5eef",
     3, 38),
    (dict(max_schedules=90, max_perturbations=2, recheckpoint_every=4),
     90, "d0d7f423d052bb20", 10, 75),
    (dict(max_schedules=48, max_perturbations=2, recheckpoint_every=0),
     48, "f76d58d492234590", 0, 0),
]


def _verdicts(report) -> str:
    rows = [[o.codes, [[p.step, p.action, p.description]
                       for p in o.perturbations]]
            for o in report.outcomes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs, schedules, verdicts, captures, forks",
                         PINNED)
def test_outcomes_equal_the_parent_commits(kwargs, schedules, verdicts,
                                           captures, forks):
    report = explore("gmp", "self_death", **kwargs)
    assert report.schedules == schedules
    assert ([o.outcome_hash for o in report.outcomes]
            == PINNED_HASHES[:schedules])
    assert _verdicts(report) == verdicts
    assert (report.nested_captures, report.ancestor_forks) == (captures,
                                                               forks)


def test_digest_census_reads_rows_not_entry_views(monkeypatch):
    # the incremental digest renders raw rows: no TraceEntry is built
    # inside _TraceDigest.absorb, every row of the 48 schedules is
    # encoded exactly once, and each outcome hash is still the hash of a
    # whole-trace dump_trace
    import repro.oracle
    from repro.analysis import export
    from repro.analysis.export import VOLATILE_ATTRS, dump_trace
    from repro.netsim.trace import TraceEntry

    inside, views, rows = [False], [0], [0]
    entry_init = TraceEntry.__init__
    absorb = explore_module._TraceDigest.absorb
    encode = export._encode
    evaluate = repro.oracle.evaluate
    full = []

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
        if len(full) < 5:
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
    assert rows[0] == 28022
    assert [o.outcome_hash for o in report.outcomes[:5]] == full


# ----------------------------------------------------------------------
# the cap
# ----------------------------------------------------------------------

#: simulated events of the two explorations below at e2cd17e with
#: ``_TREE_ITEMS = 2`` (LRU eviction)
LRU_EVENTS_AT_CAP_2 = {120: 34461, 90: 26060}


@pytest.mark.parametrize("kwargs", [
    dict(max_schedules=120, max_perturbations=2),
    dict(max_schedules=90, max_perturbations=2, recheckpoint_every=4)])
def test_cap_keeps_the_soonest_needed_nodes(kwargs, monkeypatch):
    monkeypatch.setattr(explore_module, "_TREE_ITEMS", 2)
    live = []
    put = CheckpointPool.put

    def counting_put(self, key, node):
        put(self, key, node)
        live.append(len(self))

    monkeypatch.setattr(CheckpointPool, "put", counting_put)
    report = explore("gmp", "self_death", **kwargs)
    assert ([o.outcome_hash for o in report.outcomes]
            == PINNED_HASHES[:report.schedules])
    assert live and max(live) <= 2
    assert (report.simulated_events
            <= LRU_EVENTS_AT_CAP_2[kwargs["max_schedules"]])


# ----------------------------------------------------------------------
# applied != planned
# ----------------------------------------------------------------------

def _record_starts(tree):
    """The nodes ``tree.start_for`` hands out from now on, in order."""
    starts = []
    start_for = tree.start_for

    def recording_start_for(plan):
        starts.append(start_for(plan))
        return starts[-1]

    tree.start_for = recording_start_for
    return starts


def test_unapplied_perturbation_earns_no_node():
    # TCP at depth 1.0: step 1 is the reply to step 0's segment, so on
    # the branch that dropped step 0 the event at step 1 is the next
    # `_stream_write` -- an `other` event, left alone
    checkpoint = _prefix_checkpoint("tcp", "SunOS 4.1.3", 1.0, 0)
    steps, digest = _survey(checkpoint, window=1.5)
    assert [kind for kind, _ in steps[:3]] == ["delivery", "delivery",
                                               "other"]
    unapplied = {0: "drop", 1: "drop"}
    # the triple (no `_plans` output, hand-made) is counted against the
    # key a branch applying *both* would leave at mark 4
    triple = {0: "drop", 1: "drop", 4: "drop"}
    plans = [{}, {0: "drop"}, unapplied, triple, {0: "drop", 4: "drop"}]
    run = dict(window=1.5, horizon=HORIZONS["tcp"], defer_delta=4.0,
               oracle=pack_for("tcp"))

    tree = _Tree(checkpoint, digest, plans, every=2)
    starts = _record_starts(tree)
    outcomes = [_run_schedule(tree, plan, **run) for plan in plans[:3]]
    # the single's run left the one node a later plan is counted
    # against; the unapplied pair ran through marks 2 and 4 with
    # ((0, drop),) applied and captured nothing -- least of all under
    # the key of the two perturbations it was *asked* for
    earned = (((0, "drop"),), 4)
    assert tree.pool.keys() == [earned] and tree.captures == 1
    applied, _violations, _hash = outcomes[2]
    assert [(p.step, p.action) for p in applied] == [(0, "drop")]

    # the triple's own key never exists; the live node of the branch
    # that applied only (0, drop) is not a match for it
    assert earned in tree.pool
    outcomes.append(_run_schedule(tree, triple, **run))
    assert starts[3] is tree.root
    # ... while the plan that was counted against that node forks it,
    # and is its last consumer
    outcomes.append(_run_schedule(tree, plans[4], **run))
    assert starts[4].step == 4 and starts[4].applied == applied
    assert len(tree.pool) == 0

    flat = _Tree(checkpoint, digest, plans, every=0)
    assert outcomes == [_run_schedule(flat, plan, **run) for plan in plans]
    assert flat.captures == 0


def test_plans_stranded_past_a_short_window_fork_the_last_snapshot():
    # gmp/self_death, 0.5 s window: 15 baseline steps, but the branch
    # that dropped step 1 runs out of window before its mark 14
    checkpoint = _prefix_checkpoint("gmp", "self_death", 8.0, 0)
    steps, digest = _survey(checkpoint, window=0.5)
    assert len(steps) == 15
    plans = [{}, {1: "drop"}, {1: "drop", 12: "drop"},
             {1: "drop", 14: "drop"}]
    run = dict(window=0.5, horizon=HORIZONS["gmp"], defer_delta=4.0,
               oracle=pack_for("gmp"))
    tree = _Tree(checkpoint, digest, plans, every=2)
    starts = _record_starts(tree)
    outcomes = [_run_schedule(tree, plan, **run) for plan in plans[:2]]
    mark_12, mark_14 = (((1, "drop"),), 12), (((1, "drop"),), 14)
    assert tree.pool.keys() == [mark_12]    # mark 14 was never reached
    outcomes.append(_run_schedule(tree, plans[2], **run))
    assert starts[2].step == 12
    assert mark_12 in tree.pool             # one adopted consumer left
    outcomes.append(_run_schedule(tree, plans[3], **run))
    assert starts[3] is starts[2] and mark_14 not in tree.pool
    assert len(tree.pool) == 0 and tree.ancestor_forks == 2

    flat = _Tree(checkpoint, digest, plans, every=0)
    assert outcomes == [_run_schedule(flat, plan, **run) for plan in plans]


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
