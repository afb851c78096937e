"""Regenerate, or check, the tclsh golden corpus.

``tclsh_corpus.json`` holds, for each script below, the completion code
(0 ok, 1 error) and the result that a real ``tclsh8.6`` gives;
``tests/tclish/test_tclsh_corpus.py`` holds tclish to it without needing
``tclsh``.  Run::

    python tests/tclish/golden/tclsh_corpus.py [--tclsh PATH] [--check]

to rewrite the corpus from the live interpreter, or with ``--check`` to
exit 1, naming each script, when the live interpreter disagrees with
the committed corpus.  ``PATH`` defaults to ``tclsh8.6`` on ``PATH``.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("tclsh_corpus.json")

#: every script runs alone, at global level, in a fresh interpreter
SCRIPTS = [
    # integers are truncated to a 64-bit word by int() and format %d
    "expr {int(1e20)}",
    "expr {int(-1e20)}",
    "expr {int(2**63)}",
    "expr {int(12.7)}",
    "expr {int(-12.7)}",
    "format %d 99999999999999999999",
    "format %d -99999999999999999999",
    "format %x 99999999999999999999",
    "format %x -1",
    "format %o -1",
    "format %X 255",
    # a leading zero is octal
    "expr {010 + 1}",
    "expr {-010}",
    "expr {007}",
    "expr {0010.5}",
    'expr {"010" + 1}',
    "set a 010; expr {$a + 1}",
    "expr {08}",
    'expr {"08" + 1}',
    "format %d 010",
    "format %d -010",
    "format %d 08",
    "format %d 0x10",
    "format %d 0b11",
    "format %d 0o17",
    # integer conversions refuse what is not an integer
    "format %d 3.9",
    "format %d 1e3",
    "format %d abc",
    "format %d 1_000",
    "format %c 65",
    "format %5.2f 3.14159",
    "format %s-%s a b",
    # arithmetic and comparison
    "expr {7 / 2}",
    "expr {-7 / 2}",
    "expr {7 % 3}",
    "expr {-7 % 3}",
    "expr {2 ** 10}",
    # ** binds tighter than * and looser than a sign, groups to the
    # right, and keeps integers integers
    "expr {2**3**2}",
    "expr {-2**2}",
    "expr {2*3**2}",
    "expr {2**-1}",
    "expr {-1**-3}",
    "expr {0**-1}",
    "expr {0**0}",
    "expr {2**64}",
    "expr {2.0**-1}",
    "expr {2**0.5}",
    "expr {(-8)**0.5}",
    "expr {2**268435456}",
    "expr {1**268435456}",
    "expr {int(1e400)}",
    "expr {round(-1e400)}",
    "expr {1 / 0}",
    "expr {1.5 + 2}",
    "expr {10 / 4.0}",
    "expr {0x1F + 1}",
    "expr {1 << 4}",
    "expr {5 & 3}",
    "expr {5 | 3}",
    "expr {5 ^ 3}",
    "expr {~5}",
    "expr {!0}",
    "expr {3 > 2 && 2 > 1}",
    "expr {1 ? 2 : 3}",
    'expr {"abc" eq "abc"}',
    'expr {"abc" ne "abd"}',
    "expr {abs(-3)}",
    "expr {round(2.5)}",
    "expr {round(-2.5)}",
    "expr {double(3)}",
    "expr {max(1, 5, 3)}",
    "expr {min(4, 2)}",
    "expr {floor(2.7)}",
    "expr {ceil(2.1)}",
    "expr {sqrt(16)}",
    # pow() is C's pow on doubles; a domain fault is Tcl's error, and an
    # infinite value prints as Inf (tclish refuses an infinite result)
    "expr {pow(2,3)}",
    "expr {pow(-2,3)}",
    "expr {pow(2,-1)}",
    "expr {pow(2,0.5)}",
    "expr {pow(0,0)}",
    "expr {pow(-8,1.0/3)}",
    "expr {pow(-1,0.5)}",
    "expr {pow(0,-1)}",
    "expr {pow(10,400) > 1}",
    "expr {sqrt(-1)}",
    "expr {log(-1)}",
    "expr {log(0) < 0}",
    "expr {fmod(7,3)}",
    "expr {fmod(-7,3)}",
    "expr {fmod(1,0)}",
    "expr {exp(1000) > 1}",
    # an integer past 4,300 digits prints, and reads back, whole
    "string length [expr {1 << 20000}]",
    "string length [expr {-(1 << 20000)}]",
    "string range [expr {2**20000}] end-20 end",
    "expr {[expr {1 << 20000}] - (1 << 20000)}",
    # strings, lists and variables
    "string length hello",
    "string toupper abc",
    "string index abc 1",
    "string range abcdef 1 3",
    "llength {a b {c d}}",
    "lindex {a b c} 1",
    "set x 5; incr x 2",
    # incr reads its variable and its step as integers the way expr does
    "set x 010; incr x",
    "set x 0x10; incr x",
    "set x 08; incr x",
    "set x 1; incr x 010",
    "set x 1; incr x 08",
    "set x 1; incr x 1.5",
    "set x 1; incr x -0b11",
    "set x 1_000; incr x",
    "set x [expr {1 << 20000}]; string length [incr x]",
    "set s 0; foreach i {1 2 3} {incr s $i}; set s",
    # foreach over variable lists and several lists: a short final
    # group, a short or empty list reads as empty strings
    "set r {}; foreach {a b} {1 2 3 4} {append r $a-$b,}; set r",
    "set r {}; foreach a {1 2} b {x y} {append r $a$b}; set r",
    "set r {}; foreach {a b} {1 2 3} {append r <$a|$b>}; set r",
    "set r {}; foreach a {1 2 3} b {x} {append r <$a|$b>}; set r",
    ("set r {}; foreach {a b c} {1 2 3 4} d {x y z} "
     "{append r <$a$b$c|$d>}; set r"),
    "set r {}; foreach a {} b {1 2} {append r <$a|$b>}; set r",
    "set n 0; foreach {a b} {} {incr n}; set n",
    "foreach {a b} {1 2 3 4 5} {}; list $a $b",
    "foreach {} {1 2} {}",
    "foreach a {1 2} b {}",
    "set n 0; while {$n < 5} {incr n}; set n",
    "proc sq {x} {expr {$x * $x}}; sq 7",
    "catch {error boom} msg; set msg",
    "nosuch",
    # control flow
    "set n 0; while 1 {incr n; if {$n > 3} break}; set n",
    "set r {}; foreach i {1 2 3 4 5} {if {$i == 4} break; lappend r $i}; set r",
    "set r {}; foreach i {1 2 3 4} {if {$i % 2} continue; lappend r $i}; set r",
    ("set r {}; for {set i 0} {$i < 6} {incr i} "
     "{if {$i == 2} continue; lappend r $i}; set r"),
    "set s 0; for {set i 0} {$i < 5} {incr i} {incr s $i}; set s",
    "if {1 > 2} {set r a} elseif {2 > 1} {set r b} else {set r c}",
    "if {0} then {set r a} else {set r y}",
    "if 0 {set r a}",
    "switch b {a {set r 1} b {set r 2} default {set r 3}}",
    "switch -glob foo {f* {set r g} default {set r d}}",
    "switch a a - b {set r ab}",
    "switch z a {set r 1}",
    "proc f {} {return 5; set x 1}; f",
    "proc f {} {return}; f",
    "eval set x 5",
    "eval [list set z {a b}]; llength $z",
    "eval",
    # variables and introspection (never a bare pattern-less listing,
    # which would name tclsh's own commands, procs and globals)
    "set g 1; proc f {} {global g; incr g}; f; set g",
    "set x 1; unset x; info exists x",
    "unset nosuch",
    "info exists nosuch",
    "set v 1; info exists v",
    "info exists",
    "info commands se?",
    "info commands nosuch*",
    "proc f {a} {set b 1; lsort [info vars]}; f 0",
    "set zz1 1; info globals zz*",
    # lists and strings
    "concat a {b c} { d }",
    "concat {a b} {} {c}",
    "join {a b c} ,",
    "join {a {b c} d}",
    "lappend l a b; lappend l {c d}",
    "lrange {a b c d e} 1 3",
    "lrange {a b c} end-1 end",
    "lrange {a b c} 5 9",
    "lrepeat 3 a b",
    "lrepeat 0 a",
    "lrepeat -1 a",
    "lreplace {a b c d} 1 2 x y z",
    "lreplace {a b c} 0 0",
    "lsearch {a b c} b",
    "lsearch {a b c} z",
    "lsearch {apple banana} b*",
    "lsort {c a b}",
    "lsort -integer {10 9 100}",
    "lsort -decreasing {a c b}",
    "split {a,b,c} ,",
    "split {} ,",
    "llength [split {} ,]",
    "split abc {}",
    "split {a  b}",
    "puts hello",
    # puts reads an optional -nonewline and channel the way Tcl does
    "puts",
    "puts -nonewline",
    "puts stdout x",
    "puts -nonewline stdout x",
    "puts stdout x nonewline",
    "puts nosuch x",
    "puts a b c",
    # forms Tcl accepts and tclish refuses
    "lsearch -exact {a* b} a*",
    "lindex {{a b} c} 0 1",
    "string last a banana",
]

#: the code and result go to stderr, so what a script ``puts`` on stdout
#: is not read as its result
DRIVER = """set script $env(TCLSH_CORPUS_SCRIPT)
set code [catch {uplevel #0 $script} result]
puts -nonewline stderr "$code\\n$result"
"""


def run_tclsh(tclsh: str, script: str) -> dict:
    """What ``tclsh`` gives for ``script``: its code and result."""
    with tempfile.NamedTemporaryFile("w", suffix=".tcl",
                                     delete=False) as driver:
        driver.write(DRIVER)
    try:
        done = subprocess.run(
            [tclsh, driver.name], capture_output=True, text=True,
            check=True, env={**os.environ, "TCLSH_CORPUS_SCRIPT": script})
    finally:
        os.unlink(driver.name)
    code, _newline, result = done.stderr.partition("\n")
    return {"script": script, "code": int(code), "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tclsh", default="tclsh8.6")
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus, write "
                             "nothing")
    args = parser.parse_args(argv)
    corpus = [run_tclsh(args.tclsh, script) for script in SCRIPTS]
    if not args.check:
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
        print(f"wrote {CORPUS} ({len(corpus)} scripts)")
        return 0
    committed = json.loads(CORPUS.read_text())
    differ = [live["script"] for live, kept in zip(corpus, committed)
              if live != kept]
    if len(committed) != len(corpus):
        differ.append(f"{len(committed)} committed, {len(corpus)} live")
    for script in differ:
        print(f"differs: {script}")
    print(f"{len(corpus) - len(differ)} of {len(corpus)} scripts agree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
