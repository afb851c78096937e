"""The lint verdict memo is invisible: ``lint_source`` == a fresh analysis.

``lint_source`` against the default registry remembers its verdict per
``(source, init_script, predefined)``.  The property drives it through
random programs -- scripts the fuzz grammar draws for both protocols
(rejected draws included), clause-level mutants of them, hand-written
``proc`` / ``switch`` nests and arbitrary text, each linted with and
without its init script and harness-predefined names, in any order,
repeated, and interleaved with ``clear_cache()`` -- and after every
call compares the report, field for field, with what a fresh
``Analyzer(...).analyze(...)`` says about the same input.

One seeded mutant -- a memo keyed on the source alone, forgetting the
init script -- runs against the same property and must be killed.
"""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.tclish import clear_cache, compiler
from repro.core.tclish.lint import Analyzer, lint_source
from repro.oracle.grammar import MAX_CLAUSES, FuzzScript, _clause

#: (source, init) pairs the grammar never draws: nests that exercise the
#: shared parse, and bodies whose verdict hangs on the init script
HAND_WRITTEN = (
    ("if {$n > 3} { xDrop cur_msg }\nincr n", "set n 0"),
    ("set x 1\nswitch $x {\n 1 { xDrop cur_msg }\n default { xBogus }\n}",
     ""),
    ("switch -exact -- [msg_type] {\n ACK { set y 1 }\n"
     " default { proc late {} { xDrop } }\n}\nlate\nputs $y", "set y 0"),
    ("if {1} { proc g {a {b 2}} { return $a } }\ng 1\ng 1 2 3", ""),
    ("while {$n < 3} { incr n; if {$n == 2} { xHold cur_msg q } }",
     "set n 0"),
    ("if {$x} { pr\\oc hidden {} { xDrop } }\nhidden", "set x 1"),
    ("catch { puts $ghost } err\nif {1} {unbalanced {", ""),
)

#: what the harness may have set on the interpreter
PREDEFINED = ((), ("n",), ("fz_holding", "x"))

TCLISH_ALPHABET = st.sampled_from(
    ["xDrop", "cur_msg", "set", "incr", "if", "proc", "switch", "puts",
     "$n", "$x", "n", "x", "1", "{", "}", "[", "]", '"', "\\", ";",
     "\n", " "])


def _grammar_script(protocol, seed, mutation):
    """What ``generate_script`` would draw, minus its lint self-check,
    then optionally one clause dropped or doubled."""
    rng = random.Random(seed)
    clauses = [_clause(rng, protocol)
               for _ in range(rng.randint(1, MAX_CLAUSES))]
    spot = rng.randrange(len(clauses))
    if mutation == "double":
        clauses.insert(spot, clauses[spot])
    elif mutation == "drop" and len(clauses) > 1:
        del clauses[spot]
    script = FuzzScript(name="prop", protocol=protocol, direction="send",
                        clauses=tuple(clauses))
    return script.source, script.init


scripts = st.one_of(
    st.builds(_grammar_script, st.sampled_from(("tcp", "gmp")),
              st.integers(0, 10_000),
              st.sampled_from(("none", "double", "drop"))),
    st.sampled_from(HAND_WRITTEN),
    st.tuples(st.lists(TCLISH_ALPHABET, max_size=12).map(" ".join),
              st.sampled_from(("", "set n 0"))),
    st.tuples(st.text(max_size=40), st.just("")),
)

operations = st.one_of(
    st.tuples(st.just("lint"), st.integers(0, 4), st.booleans(),
              st.sampled_from(PREDEFINED)),
    st.tuples(st.just("clear")),
)
programs = (st.lists(scripts, min_size=1, max_size=5),
            st.lists(operations, min_size=1, max_size=20))


def _fields(diagnostics):
    return [(d.code, d.severity, d.line, d.col, d.message, d.hint, d.script)
            for d in diagnostics]


def _run_program(pool, ops):
    clear_cache()
    for op in ops:
        if op[0] == "clear":
            clear_cache()
            continue
        _name, index, with_init, predefined = op
        source, init = pool[index % len(pool)]
        if not with_init:
            init = ""
        report = lint_source(source, init_script=init,
                             predefined=predefined, source_name="prop")
        fresh = Analyzer(predefined=predefined).analyze(source, init)
        assert _fields(report.diagnostics) == _fields(fresh.diagnostics)
        assert report.source_name == "prop"
        assert compiler.cache_stats()["lint_cache"] <= compiler.CACHE_MAX


@given(*programs)
@settings(max_examples=150, deadline=None)
def test_memoized_lint_matches_a_fresh_analysis(pool, ops):
    _run_program(pool, ops)


def test_mutant_keyed_on_source_alone_is_killed(monkeypatch):
    real_lookup = compiler.lookup_verdict
    monkeypatch.setattr(                                # the mutation
        compiler, "lookup_verdict",
        lambda key, analyze: real_lookup(key[:1], analyze))

    # the smallest killer, spelled out: one body, with and without the
    # init script that sets what it reads
    body = "if {$n > 3} { xDrop cur_msg }\nincr n"
    clear_cache()
    assert "SL003" in [d.code for d in lint_source(body)]
    assert "SL003" in [d.code for d in lint_source(body,
                                                   init_script="set n 0")]

    @given(*programs)
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    def mutated(pool, ops):
        _run_program(pool, ops)

    with pytest.raises(AssertionError):
        mutated()
    clear_cache()
