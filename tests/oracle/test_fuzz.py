"""The fuzzing loop: determinism, the campaign oracle hook, coverage."""

from repro.core.orchestrator import Campaign, RunResult
from repro.oracle.fuzz import (GMP_VARIANTS, FuzzCase, coverage_keys,
                               fuzz_body, pack_for, run_case, run_fuzz)

#: enough budget to reach the first violating cases under seed 0
SMOKE_BUDGET = 8


def _snapshot(report):
    return {
        "executed": report.executed,
        "coverage": sorted(map(repr, report.coverage)),
        "corpus": [case.to_dict() for case in report.corpus],
        "findings": [(f.case.to_dict(), f.codes, f.violation_count)
                     for f in report.findings],
    }


def test_fuzz_is_deterministic_in_the_seed():
    first = run_fuzz("gmp", seed=0, budget=SMOKE_BUDGET)
    second = run_fuzz("gmp", seed=0, budget=SMOKE_BUDGET)
    assert _snapshot(first) == _snapshot(second)
    assert first.executed == SMOKE_BUDGET


def test_different_seeds_draw_different_cases():
    a = run_fuzz("gmp", seed=0, budget=4)
    b = run_fuzz("gmp", seed=1, budget=4)
    assert [c.to_dict() for c in a.corpus] != \
        [c.to_dict() for c in b.corpus]


def test_fuzz_finds_the_latent_gmp_bugs():
    report = run_fuzz("gmp", seed=0, budget=24)
    assert report.findings, "seed 0 is known to reach violating cases"
    for finding in report.findings:
        assert finding.case.target in GMP_VARIANTS
        assert finding.codes
        assert finding.violation_count > 0
        assert finding.example is not None


def test_coverage_grows_monotonically_with_the_corpus():
    report = run_fuzz("gmp", seed=0, budget=SMOKE_BUDGET)
    assert report.corpus, "the first case always adds coverage"
    assert len(report.coverage) >= 1
    assert all(case.protocol == "gmp" for case in report.corpus)


def test_tcp_fuzz_runs_clean_on_conformant_vendors():
    # the four vendor profiles are conformant: the fuzzer exercises them
    # (coverage accrues) but the oracle stays silent -- which is itself
    # the conformance statement for the TCP rig under injected faults
    report = run_fuzz("tcp", seed=0, budget=6)
    assert report.executed == 6
    assert report.coverage
    assert report.findings == []


def test_run_case_reproduces_a_fuzz_finding():
    report = run_fuzz("gmp", seed=0, budget=24)
    finding = report.findings[0]
    result = run_case(finding.case, campaign_seed=report.seed)
    codes = sorted({v.code for v in result.violations})
    assert codes == finding.codes
    assert len(result.violations) == finding.violation_count


def test_campaign_oracle_hook_attaches_verdicts():
    case = run_fuzz("gmp", seed=0, budget=1).corpus[0]
    campaign = Campaign(fuzz_body, seed=0, lint="error")
    with_oracle = campaign.run([case.config()], telemetry=False,
                               oracle=pack_for("gmp"))
    without = campaign.run([case.config()], telemetry=False)
    assert with_oracle[0].violations is not None
    assert without[0].violations is None
    assert without[0].ok()  # no oracle -> vacuously ok


def test_parallel_workers_do_not_perturb_the_verdict():
    serial = run_fuzz("gmp", seed=0, budget=4, workers=1)
    parallel = run_fuzz("gmp", seed=0, budget=4, workers=2)
    assert _snapshot(serial) == _snapshot(parallel)
    # several batches, and more workers than a batch of max(4, 2 *
    # workers) -- what the batch once was -- would have left alone
    serial = run_fuzz("tcp", seed=1, budget=16, workers=1)
    wide = run_fuzz("tcp", seed=1, budget=16, workers=4)
    assert _snapshot(serial) == _snapshot(wide)
    assert len(serial.coverage) == 17
    assert [case.script.name[-4:] for case in serial.corpus] == [
        "0000", "0001", "0002", "0006", "0012"]


def test_pool_rows_leave_the_hit_rate_unknown(tmp_path):
    # the process pool returns results without prefix provenance, so
    # its hit rate is unknown -- never a false 0 %
    from repro.obs.journal import replay_journal
    assert run_fuzz("gmp", seed=0, budget=8).checkpoint_hit_rate == 0.625
    journal = tmp_path / "pooled.jsonl"
    pooled = run_fuzz("gmp", seed=0, budget=8, workers=2, journal=journal)
    assert pooled.checkpoint_hit_rate is None
    assert "hit-rate n/a" in pooled.render()
    end = replay_journal(journal).last("campaign.end")
    assert "checkpoint_hit_rate" in end.data
    assert end.get("checkpoint_hit_rate") is None


def test_fuzz_case_config_excludes_the_display_name():
    case = FuzzCase(
        script=run_fuzz("gmp", seed=0, budget=1).corpus[0].script,
        target="self_death", case_seed=5)
    renamed = FuzzCase(
        script=case.script.with_clauses(case.script.clauses,
                                        name="other_name"),
        target="self_death", case_seed=5)
    # the campaign derives per-run seeds from the config repr, so a
    # rename (the shrinker appends _min) must leave the config identical
    assert case.config() == renamed.config()


def test_coverage_keys_reflect_trace_content():
    case = run_fuzz("gmp", seed=0, budget=1).corpus[0]
    result = run_case(case)
    keys = coverage_keys(result.trace)
    assert any(key[0] == "kind" for key in keys)
    assert any(key[0] == "gmp.send" for key in keys)


def test_run_result_ok_reflects_violations():
    assert RunResult(config={}, result=None, trace=None).ok()
    assert RunResult(config={}, result=None, trace=None, violations=[]).ok()
    assert not RunResult(config={}, result=None, trace=None,
                         violations=["v"]).ok()


# ----------------------------------------------------------------------
# lint-rejected draws are redrawn, not fatal
# ----------------------------------------------------------------------

def test_lint_rejected_draw_is_redrawn_from_the_same_stream(monkeypatch):
    import random

    from repro.oracle import fuzz, grammar

    def draws(rng, budget, rejected=()):
        report = fuzz.FuzzReport(protocol="gmp", seed=3, budget=budget)
        calls = {"n": 0}
        real = grammar.generate_script

        def picky(rng, protocol, **kwargs):
            script = real(rng, protocol, **kwargs)
            calls["n"] += 1
            if calls["n"] in rejected:
                raise grammar.GrammarLintError("planted")
            return script

        monkeypatch.setattr(fuzz, "generate_script", picky)
        cases = [fuzz._draw_case(rng, report, index)
                 for index in range(budget)]
        return report, cases

    clean_report, clean = draws(random.Random(9), 3)
    assert clean_report.discarded_draws == 0
    report, cases = draws(random.Random(9), 3, rejected={2})
    assert report.discarded_draws == 1
    # the draw before the rejected one is untouched, the rejected one is
    # replaced by the next thing the same stream yields, under its index
    assert cases[0] == clean[0]
    assert cases[1].script.source != clean[1].script.source
    assert [c.script.name for c in cases] == [c.script.name for c in clean]
    assert draws(random.Random(9), 3, rejected={2})[1] == cases


def test_a_grammar_that_only_fails_lint_is_reported_not_spun_on(monkeypatch):
    import random

    import pytest

    from repro.oracle import fuzz, grammar

    def broken(rng, protocol, **kwargs):
        raise grammar.GrammarLintError("always")

    monkeypatch.setattr(fuzz, "generate_script", broken)
    report = fuzz.FuzzReport(protocol="tcp", seed=0, budget=1)
    with pytest.raises(grammar.GrammarLintError, match="consecutive"):
        fuzz._draw_case(random.Random(0), report, 0)
    assert report.discarded_draws == fuzz.MAX_REDRAWS


def test_budget_48_survives_the_draw_the_grammar_rejects(tmp_path):
    # gmp seed 0 draws `...; xDrop cur_msg; xDrop cur_msg` (SL005) at
    # case 43: a traceback before the fuzz loop redrew it
    journal = tmp_path / "fuzz.jsonl"
    report = run_fuzz("gmp", seed=0, budget=48, journal=journal)
    assert report.executed == 48 and report.discarded_draws == 1
    assert "1 draws discarded" in report.render()
    import json
    events = [json.loads(line) for line in journal.read_text().splitlines()]
    [end] = [e["data"] for e in events if e["kind"] == "campaign.end"]
    assert end["status"] == "ok" and end["discarded_draws"] == 1


# ----------------------------------------------------------------------
# the `repro sweep` battery
# ----------------------------------------------------------------------

def test_sweep_battery_redraws_the_scripts_the_grammar_rejects():
    import random

    import pytest

    from repro.oracle.fuzz import sweep_battery
    from repro.oracle.grammar import GrammarLintError, generate_script
    for protocol, target in (("gmp", "fixed"), ("tcp", "SunOS 4.1.3")):
        # random.Random(24) draws a script the grammar's own lint
        # refuses; `repro sweep --count 25` died on it before running
        with pytest.raises(GrammarLintError):
            generate_script(random.Random(24), protocol, index=24)
        battery = sweep_battery(protocol, [target], 25)
        assert len(battery) == 25
        assert not Campaign(fuzz_body).validate_scripts(battery)
        # every index that draws clean yields the config it always did
        for index in range(24):
            script = generate_script(random.Random(index), protocol,
                                     index=index)
            assert battery[index] == {
                "protocol": protocol, "target": target,
                "script": script.source, "init_script": script.init,
                "direction": script.direction}


def test_sweep_battery_keeps_existing_campaign_directories_addressable():
    import hashlib

    from repro.oracle.fuzz import sweep_battery

    # `repro sweep --count 3`, default targets, as drawn at bd80511:
    # store keys and the spec digest derive from these configs
    for protocol, digest in (("gmp", "869c94819f4de9bf"),
                             ("tcp", "e6936c484920a2c5")):
        battery = sweep_battery(protocol, [], 3)
        assert len(battery) == 12
        assert hashlib.sha256(
            repr(battery).encode()).hexdigest()[:16] == digest
    assert [c["install_at"]
            for c in sweep_battery("gmp", ["fixed"], 2, depth=4.0)] \
        == [4.0, 4.0]


def test_every_engine_refuses_a_placement_before_it_runs():
    import pytest

    from repro.oracle.explore import explore
    from repro.oracle.fuzz import sweep_battery
    refused = [
        lambda: run_fuzz("tcp", checkpoint_depth=40),
        lambda: run_fuzz("gmp", checkpoint_depth=-5),
        lambda: sweep_battery("tcp", ["fixed"], 1),
        lambda: sweep_battery("gmp", ["fixed"], 1, depth=30.0),
        lambda: explore("gmp", "reply_to_sender"),
        lambda: explore("gmp", "fixed", window=-1),
        lambda: explore("gmp", "fixed", depth=8.0, window=1.5, horizon=9.0),
    ]
    for call in refused:
        with pytest.raises(ValueError):
            call()
