"""One command table, one substitution scanner: lint and runtime agree.

Every command is declared once (``stdlib_loader.STDLIB`` for the tclish
stdlib, ``script.PFI_COMMANDS`` for the PFI bridge); ``Interp.call``
enforces that declaration and scriptlint's SL002 reads it.  Every
``$name`` / ``[script]`` substitution is found by one scanner
(``compiler.scan_substitution``); the interpreter replays its segments
and scriptlint reads its reads and nested scripts.  These tests drive
both sides and compare what they say.
"""

import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.script import PFI_COMMANDS
from repro.core.tclish import Interp, TclBreak, TclContinue, TclError, TclReturn
from repro.core.tclish.compiler import (CompiledCommand, CompiledScript,
                                       analyze_word)
from repro.core.tclish.lint import builtin_registry, default_registry, lint_source
from repro.core.tclish.lint.walker import WordNode
from repro.core.tclish.stdlib_loader import STDLIB

DOCS = Path(__file__).resolve().parents[2] / "docs" / "tclish.md"


# ----------------------------------------------------------------------
# one command table
# ----------------------------------------------------------------------

def _runtime_says_wrong_args(interp, source):
    try:
        interp.eval(source)
    except TclError as err:
        return str(err).startswith("wrong # args")
    except (TclBreak, TclContinue, TclReturn):
        pass
    return False


def _lint_says_wrong_args(source, registry):
    return any(d.code == "SL002"
               for d in lint_source(source, registry=registry))


def _disagreements(name, interp, registry):
    """Argument counts 0-5 where SL002 and ``wrong # args`` disagree."""
    disagree = []
    for count in range(6):
        source = " ".join([name] + ["0"] * count)
        if (_lint_says_wrong_args(source, registry)
                != _runtime_says_wrong_args(interp, source)):
            disagree.append(count)
    return disagree


@pytest.mark.parametrize("name", sorted(STDLIB))
def test_stdlib_arity_is_one_rule(name):
    assert _disagreements(name, Interp(), builtin_registry()) == []


@pytest.mark.parametrize("name", sorted(PFI_COMMANDS))
def test_pfi_arity_is_one_rule(name):
    # outside a filter run an in-bounds call fails on the missing
    # message, an out-of-bounds one on its argument count
    interp = Interp()
    interp.commands.update(PFI_COMMANDS)
    assert _disagreements(name, interp, default_registry()) == []


def test_every_declared_command_is_what_an_interp_registers():
    assert {name: sig.fn for name, sig in Interp().commands.items()} == {
        name: sig.fn for name, sig in STDLIB.items()}
    assert set(builtin_registry().names()) == set(STDLIB)
    assert set(default_registry().names()) == set(STDLIB) | set(PFI_COMMANDS)


def test_arity_error_names_the_declared_usage():
    with pytest.raises(TclError) as err:
        Interp().eval("puts a b c")
    assert str(err.value) == (
        f'wrong # args: should be "{STDLIB["puts"].usage}"')


def test_switch_pairs_are_structure_not_arity():
    # four arguments are within switch's declared bounds: the odd
    # pattern is a body error, which lint does not claim to see
    assert lint_source("switch v a b c",
                       registry=builtin_registry()).ok()
    with pytest.raises(TclError, match="even length"):
        Interp().eval("switch v a b c")


def test_every_declared_command_is_in_the_docs_table():
    text = DOCS.read_text()
    table = text.split("## Core commands", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([a-z]+)", table))
    assert sorted(set(STDLIB) - documented) == []
    omissions = text.split("## Deliberate omissions", 1)[1]
    assert [name for name in STDLIB
            if re.search(rf"`{name}`", omissions)] == []


# ----------------------------------------------------------------------
# a fault escaping a command is a TclError
# ----------------------------------------------------------------------

@pytest.mark.parametrize("source", [
    "string index abc",
    "info exists",
    "string range abc 1",
    "incr v abc",
    "lindex {a b} x",
    "lrepeat x a",
])
def test_python_fault_in_a_command_is_catchable(source):
    interp = Interp()
    assert interp.eval(f"catch {{{source}}} msg") == "1"
    name = source.split()[0]
    assert interp.eval("set msg").startswith(f'error in command "{name}": ')


# ----------------------------------------------------------------------
# one substitution scanner
# ----------------------------------------------------------------------

@pytest.mark.parametrize("source,name", [
    ('puts "\\\\$a"', "a"),     # an escaped backslash, then a read
    ('puts "x$éy"', "éy"),      # a non-ASCII variable name
])
def test_reads_the_runtime_makes_are_sl003(source, name):
    with pytest.raises(TclError, match=f'can\'t read "{name}"'):
        Interp().eval(source)
    (finding,) = lint_source(source)
    assert finding.code == "SL003"
    assert f'"${name}"' in finding.message


class _Recorder(Interp):
    """Runs a compiled word like the runtime, recording what it reads
    and which nested scripts it compiles to run."""

    def __init__(self):
        super().__init__()
        self.reads, self.nested = [], []

    def get_var(self, name):
        self.reads.append(name)
        return ""

    def compile(self, source):
        self.nested.append(source)
        return CompiledScript("", [])

    def call(self, name, args):
        return ""


def _runtime_word(raw):
    """Reads and nested scripts of one word, as its compiled command
    closure resolves it."""
    script = CompiledScript(raw, [CompiledCommand([analyze_word(raw)])])
    recorder = _Recorder()
    script.run(recorder)
    return recorder


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet='${}[]\\"éab', max_size=12))
def test_lint_reads_what_the_runtime_reads(raw):
    try:
        runtime = _runtime_word(raw)
    except TclError:
        return  # the lexer refuses the word before either side sees it
    node = WordNode(raw=raw, offset=0, compiled=analyze_word(raw))
    assert (Counter(name for name, _ in node.variable_reads())
            == Counter(runtime.reads))
    assert ([script for script, _ in node.nested_scripts()]
            == runtime.nested)
