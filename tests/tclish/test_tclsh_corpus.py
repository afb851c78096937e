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
from pathlib import Path

import pytest

from repro.core.tclish import Interp, TclError
from repro.core.tclish.expr import TOO_LARGE

CORPUS = json.loads((Path(__file__).parent / "golden"
                     / "tclsh_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS, ids=[c["script"] for c in CORPUS])
def test_tclish_agrees_with_tclsh(case):
    try:
        code, result = 0, Interp().eval(case["script"])
    except TclError as err:
        code, result = 1, str(err)
    if case["code"] == 0 and case["result"] in ("Inf", "-Inf"):
        assert (code, result) == (1, TOO_LARGE)
        return
    assert code == case["code"], result
    if code == 0:
        assert result == case["result"]
