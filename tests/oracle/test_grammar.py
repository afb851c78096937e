"""The fault-script grammar: lint-cleanliness, determinism, round-trips."""

import random

import pytest

from repro.core.script import PFI_COMMANDS
from repro.core.tclish.lint import lint_source
from repro.oracle.grammar import (GRAMMAR_COMMANDS, MAX_CLAUSES, Clause,
                                  FuzzScript, generate_script,
                                  mutate_script, trial_seed)


def test_grammar_commands_are_all_registered():
    assert set(GRAMMAR_COMMANDS) <= set(PFI_COMMANDS)


@pytest.mark.parametrize("protocol", ["tcp", "gmp"])
def test_generated_scripts_lint_clean(protocol):
    rng = random.Random(42)
    for index in range(30):
        script = generate_script(rng, protocol, index=index)
        assert 1 <= len(script.clauses) <= MAX_CLAUSES
        assert script.direction in ("send", "receive")
        report = lint_source(script.source, init_script=script.init,
                             source_name=script.name)
        assert report.ok(), report


def test_generation_is_deterministic_in_the_rng():
    a = generate_script(random.Random(7), "gmp", index=3)
    b = generate_script(random.Random(7), "gmp", index=3)
    assert a == b


def test_mutation_yields_lint_clean_neighbours():
    rng = random.Random(1)
    script = generate_script(rng, "gmp", index=0)
    for index in range(20):
        script = mutate_script(rng, script, index=index)
        assert 1 <= len(script.clauses) <= MAX_CLAUSES
        report = lint_source(script.source, init_script=script.init)
        assert report.ok(), report


def test_script_round_trips_through_dicts():
    script = generate_script(random.Random(11), "tcp", index=5)
    assert FuzzScript.from_dict(script.to_dict()) == script
    clause = Clause(text="xDrop cur_msg", init="set n 0")
    assert Clause.from_dict(clause.to_dict()) == clause


def test_init_lines_are_deduplicated():
    clause = Clause(text="incr n", init="set n 0")
    script = FuzzScript(name="s", protocol="gmp", direction="send",
                        clauses=(clause, clause, Clause(text="xDelay 1.0")))
    assert script.init == "set n 0"


def test_unknown_protocol_is_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        generate_script(random.Random(0), "udp")


def test_trial_seed_is_order_insensitive_and_name_keyed():
    assert trial_seed(0, "a") == trial_seed(0, "a")
    assert trial_seed(0, "a") != trial_seed(0, "b")
    assert trial_seed(0, "a", 0) != trial_seed(0, "a", 1)


#: sha256 over ``repr`` of ``generate_script(random.Random(i), protocol)
#: .to_dict()`` for i < 200 (``None`` where the grammar's lint refuses
#: the draw), as drawn when ``MESSAGE_TYPES`` was a literal table
DRAW_DIGESTS = {
    "tcp": (2, "5bd2cb407cc4c87ab9e4050be6a789fd"
               "df2cbe5a6ffaacca44131b2a43882957"),
    "gmp": (2, "4512ee0b73de2e8c9027fa5ba1187d7a"
               "55a12e4923eb0572a6eb1c3e6e3017d6"),
}


@pytest.mark.parametrize("protocol", ["tcp", "gmp"])
def test_draws_are_pinned(protocol):
    import hashlib

    from repro.oracle.grammar import GrammarLintError
    drawn = []
    for seed in range(200):
        try:
            drawn.append(generate_script(random.Random(seed),
                                         protocol).to_dict())
        except GrammarLintError:
            drawn.append(None)
    digest = hashlib.sha256(repr(drawn).encode()).hexdigest()
    assert (drawn.count(None), digest) == DRAW_DIGESTS[protocol]
