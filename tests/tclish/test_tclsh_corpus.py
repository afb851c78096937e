"""tclish against a corpus generated from a real ``tclsh8.6``.

``golden/tclsh_corpus.json`` pairs each script with the code and result
``tclsh8.6`` gave (``golden/tclsh_corpus.py`` regenerates it, or checks
it against a live ``tclsh``); no ``tclsh`` is needed here.  A script
must complete the same way; a successful one must give the same
result.  Error messages are tclish's own, so only their code is held.
One deviation is declared (``docs/tclish.md``): an infinite result,
which ``tclsh8.6`` prints as ``Inf``, is tclish's ``TOO_LARGE`` error.
"""

import json
import re
from pathlib import Path

import pytest

from repro.core.tclish import Interp, TclError
from repro.core.tclish.expr import _FUNCTIONS, TOO_LARGE
from repro.core.tclish.stdlib_loader import STDLIB

CORPUS = json.loads((Path(__file__).parent / "golden"
                     / "tclsh_corpus.json").read_text())

#: forms Tcl accepts that tclish refuses with a clean error, each shown
#: failing here until it is mended
KNOWN_DIVERGENCES = {
    "lsearch -exact {a* b} a*": "lsearch takes no options",
    "lindex {{a b} c} 0 1": "lindex takes one index",
    "string last a banana": "string has no last",
}

#: errors whose message tclish gives word for word as Tcl does
MESSAGES_HELD = {"eval", "unset nosuch", "info exists"}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        strict=True, reason=KNOWN_DIVERGENCES[case["script"]]))
    if case["script"] in KNOWN_DIVERGENCES else case
    for case in CORPUS], ids=[c["script"] for c in CORPUS])
def test_tclish_agrees_with_tclsh(case):
    try:
        code, result = 0, Interp().eval(case["script"])
    except TclError as err:
        code, result = 1, str(err)
    if case["code"] == 0 and case["result"] in ("Inf", "-Inf"):
        assert (code, result) == (1, TOO_LARGE)
        return
    assert code == case["code"], result
    if code == 0 or case["script"] in MESSAGES_HELD:
        assert result == case["result"]


def test_every_command_and_math_function_has_a_row():
    scripts = [case["script"] for case in CORPUS
               if case["script"] not in KNOWN_DIVERGENCES]
    assert KNOWN_DIVERGENCES.keys() | MESSAGES_HELD <= {
        case["script"] for case in CORPUS}

    def called(name):  # a word of its own, not a variable or an option
        word = re.compile(rf"(?<![\w$-]){re.escape(name)}(?![\w-])")
        return any(word.search(script) for script in scripts)

    assert [name for name in sorted(STDLIB) if not called(name)] == []
    assert [name for name in sorted(_FUNCTIONS)
            if not any(f"{name}(" in script for script in scripts)] == []
