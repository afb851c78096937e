"""One flight lifecycle: every engine's record has the same skeleton.

Sweep, fuzz, explore and shrink open, gate and end their flight record
through :class:`repro.obs.journal.Flight`, so whichever engine wrote a
journal, and however the run went, it reads::

    campaign.start
    campaign.phase_start {preflight}
    campaign.preflight {ok, failing}
    campaign.phase_end {preflight}
    ...
    campaign.end {status, executed, ...}      -- exactly one, last

with ``status`` ``ok``, ``preflight_failed`` when the gate refused and
``failed`` when the body or a probe raised.  The matrix below drives
each engine into each ending; the rest pins who owns the descriptor.
"""

import random

import pytest

from repro.core.checkpoint import CheckpointPool
from repro.core.orchestrator import (Campaign, CampaignScriptError,
                                     PrefixedBody)
from repro.netsim import kinds as K
from repro.obs.journal import Flight, Journal, replay_journal
from repro.oracle import explore as explore_module
from repro.oracle import fuzz as fuzz_module
from repro.oracle.explore import ExploreError, explore
from repro.oracle.fuzz import FuzzCase, run_fuzz
from repro.oracle.grammar import Clause, FuzzScript
from repro.oracle.shrink import shrink_case

ENGINES = ("sweep", "fuzz", "explore", "shrink")
ENDINGS = {"finishes": "ok", "gate refuses": "preflight_failed",
           "raises": "failed"}

#: a script the campaign's lint refuses (unknown command)
BAD_SCRIPT = "xDropp cur_msg"


def sweep_body(env, config):
    if config.get("boom"):
        raise RuntimeError("planted")
    return {"item": config["item"]}


def hazardous_prefix(env, config):
    """A prefix builder the SC1xx precheck refuses (unseeded RNG)."""
    return {"jitter": random.random()}


def _bad_case(name="bad"):
    script = FuzzScript(name=name, protocol="gmp", direction="receive",
                        clauses=(Clause(BAD_SCRIPT),))
    return FuzzCase(script=script, target="self_death", case_seed=0)


def _planted(*args, **kwargs):
    raise RuntimeError("planted")


@pytest.fixture(scope="module")
def finding():
    """One violating gmp case, and the code it violates."""
    report = run_fuzz("gmp", seed=0, budget=8)
    found = report.findings[0]
    return found.case, found.codes[0]


@pytest.fixture
def fly(monkeypatch, finding):
    """``fly(engine, ending, journal)``: drive one engine into one
    ending, handing it ``journal`` as its ``journal=`` argument."""
    case, code = finding

    def run(engine, ending, journal):
        with monkeypatch.context() as patch:
            if engine == "sweep":
                configs = [{"item": 0}, {"item": 1}]
                if ending == "gate refuses":
                    configs[1]["script"] = BAD_SCRIPT
                elif ending == "raises":
                    configs[1]["boom"] = True
                return Campaign(sweep_body).run(configs, journal=journal)
            if engine == "fuzz":
                if ending == "gate refuses":
                    patch.setattr(fuzz_module, "_draw_case",
                                  lambda rng, report, index: _bad_case())
                elif ending == "raises":
                    patch.setattr(fuzz_module, "execute_configs", _planted)
                return run_fuzz("gmp", seed=0, budget=4, journal=journal)
            if engine == "explore":
                if ending == "gate refuses":
                    body = explore_module.schedule_body
                    patch.setattr(explore_module, "schedule_body",
                                  PrefixedBody(hazardous_prefix,
                                               body.continuation,
                                               key=body.key))
                elif ending == "raises":
                    patch.setattr(explore_module, "journaled_shard",
                                  _planted)
                return explore("gmp", "self_death", max_schedules=3,
                               journal=journal)
            if ending == "gate refuses":
                return shrink_case(_bad_case(), code, journal=journal)
            # a probe raises: the case does not reproduce this code
            return shrink_case(case, "NO-SUCH-CODE" if ending == "raises"
                               else code, journal=journal)

    return run


def _raised_by(engine, ending):
    if ending == "gate refuses":
        return CampaignScriptError
    return ValueError if engine == "shrink" else RuntimeError


def _fly_to(fly, engine, ending, journal):
    if ending == "finishes":
        fly(engine, ending, journal)
    else:
        with pytest.raises(_raised_by(engine, ending)):
            fly(engine, ending, journal)


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_journals_the_same_skeleton(fly, tmp_path, engine,
                                                 ending):
    path = tmp_path / "flight.jsonl"
    _fly_to(fly, engine, ending, path)
    events = replay_journal(path).events
    opening = [(event.kind, event.get("name")) for event in events[:4]]
    assert opening == [(K.CAMPAIGN_START, None),
                       (K.CAMPAIGN_PHASE_START, "preflight"),
                       (K.CAMPAIGN_PREFLIGHT, None),
                       (K.CAMPAIGN_PHASE_END, "preflight")]
    start, verdict = events[0], events[2]
    assert start.get("engine") == ("campaign" if engine == "sweep"
                                   else engine)
    refused = ending == "gate refuses"
    assert verdict.get("ok") is (not refused)
    # every source the gate refused is counted (a fuzz batch is four)
    assert (verdict.get("failing") > 0) is refused
    # exactly one campaign.end, and nothing after it
    assert [event.kind for event in events].count(K.CAMPAIGN_END) == 1
    end = events[-1]
    assert end.kind == K.CAMPAIGN_END
    assert end.get("status") == ENDINGS[ending]
    assert isinstance(end.get("executed"), int)
    if refused:
        assert end.get("executed") == 0 and len(events) == 5


# ----------------------------------------------------------------------
# who owns the descriptor
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_no_journal_opens_nothing_and_writes_nothing(
        fly, tmp_path, monkeypatch, engine):
    def no_journal(self, path):
        raise AssertionError(f"journal opened at {path}")

    def no_record(self, kind, **payload):
        raise AssertionError(f"{kind} reached Journal.record")

    monkeypatch.setattr(Journal, "__init__", no_journal)
    monkeypatch.setattr(Journal, "record", no_record)
    monkeypatch.chdir(tmp_path)
    for ending in ENDINGS:
        _fly_to(fly, engine, ending, None)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ENGINES)
def test_a_path_is_closed_on_every_exit(fly, tmp_path, monkeypatch, engine):
    opened = []
    init = Journal.__init__

    def tracking(self, path):
        init(self, path)
        opened.append(self)

    monkeypatch.setattr(Journal, "__init__", tracking)
    for number, ending in enumerate(ENDINGS):
        _fly_to(fly, engine, ending, tmp_path / f"{number}.jsonl")
    assert len(opened) == len(ENDINGS)
    assert all(journal._fd is None for journal in opened)


@pytest.mark.parametrize("engine", ("sweep", "fuzz", "explore"))
def test_a_borrowed_journal_is_left_open_and_usable(fly, tmp_path, engine):
    path = tmp_path / "shared.jsonl"
    with Journal(path) as journal:
        for ending in ENDINGS:
            _fly_to(fly, engine, ending, journal)
        # still the caller's: the next flight appends to the same file
        journal.start("campaign", configs=0)
    replay = replay_journal(path)
    assert len(replay.of(K.CAMPAIGN_START)) == len(ENDINGS) + 1
    assert [event.get("status") for event in replay.of(K.CAMPAIGN_END)] \
        == list(ENDINGS.values())


def test_a_shrink_handed_an_open_journal_only_appends_its_trail(
        fly, tmp_path, finding):
    """``repro fuzz --journal F --save-repro D`` (and CI's flight-
    recorder smoke): the shrinkers ride in the sweep's flight record."""
    case, code = finding
    path = tmp_path / "fuzz.jsonl"
    pool = CheckpointPool()
    with Journal(path) as journal:
        run_fuzz("gmp", seed=0, budget=8, pool=pool, journal=journal)
        flown = len(replay_journal(path).events)
        _shrunk, stats = shrink_case(case, code, pool=pool, journal=journal)
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink_case(case, "NO-SUCH-CODE", pool=pool, journal=journal)
        with pytest.raises(CampaignScriptError):
            shrink_case(_bad_case(), code, pool=pool, journal=journal)
        journal.record(K.CAMPAIGN_SHRINK_STEP, probe=0)  # left open
    events = replay_journal(path).events
    assert events[flown - 1].kind == K.CAMPAIGN_END
    trail = events[flown:]
    assert {event.kind for event in trail} == {K.CAMPAIGN_SHRINK_STEP}
    assert len(trail) == stats.runs + 1 + 1


# ----------------------------------------------------------------------
# engine specifics the skeleton must not lose
# ----------------------------------------------------------------------

def test_a_later_fuzz_batch_refusal_is_journaled_before_the_end(
        tmp_path, monkeypatch):
    draw = fuzz_module._draw_case

    def bad_at_five(rng, report, index):
        return _bad_case() if index == 5 else draw(rng, report, index)

    monkeypatch.setattr(fuzz_module, "_draw_case", bad_at_five)
    path = tmp_path / "fuzz.jsonl"
    with pytest.raises(CampaignScriptError):
        run_fuzz("gmp", seed=0, budget=12, journal=path)
    replay = replay_journal(path)
    refusal, end = replay.events[-2:]
    assert refusal.kind == K.CAMPAIGN_PREFLIGHT
    assert refusal.data == {"ok": False, "failing": 1}
    assert end.kind == K.CAMPAIGN_END
    assert end.get("status") == "preflight_failed"
    assert end.get("executed") == 4 == len(replay.of(K.CAMPAIGN_RUN_END))
    # the batches that passed left no verdict, and there is one phase
    assert [event.get("ok") for event in replay.of(K.CAMPAIGN_PREFLIGHT)] \
        == [True, False]
    assert len(replay.of(K.CAMPAIGN_PHASE_START)) == 1


def test_nothing_to_perturb_still_ends_preflight_failed(tmp_path):
    path = tmp_path / "explore.jsonl"
    with pytest.raises(ExploreError):
        explore("tcp", "SunOS 4.1.3", journal=path)
    replay = replay_journal(path)
    assert replay.last(K.CAMPAIGN_END).data == {"status": "preflight_failed",
                                                "executed": 0}
    # refused after the gate passed: the verdict on record says so
    [verdict] = replay.of(K.CAMPAIGN_PREFLIGHT)
    assert verdict.data == {"ok": True, "failing": 0}


def test_a_fabric_error_names_its_own_status(tmp_path):
    from repro.core.fabric import FabricError
    path = tmp_path / "flight.jsonl"
    with pytest.raises(FabricError):
        with Flight(path, "campaign", {"configs": 0}):
            raise FabricError("all workers lost", status="workers_lost")
    end = replay_journal(path).last(K.CAMPAIGN_END)
    assert end.data == {"status": "workers_lost", "executed": 0}
