"""``summarize_journal`` over resumed and damaged journals.

A campaign directory's coordinator journal gains one flight per resume,
and a flight killed mid-append leaves a torn line.  The fold reads a
path from its last ``campaign.start``, so:

- for 1-4 random flights with garbage lines or a torn partial line
  before the last start and a torn tail after it, the fold equals the
  fold of the last flight (and its tail) written alone -- rows, end,
  phases and torn-tail bytes;
- on arbitrary bytes, and on real journals with bytes flipped,
  inserted or deleted, it returns a summary and never raises;
- for 1-4 flights with torn lines between them and a torn tail after
  the last, every reader agrees with what was written: the flight
  readers, the follower, ``repro tail``, ``repro trace --journal``
  (one process per flight), ``repro history --record`` and ``repro
  report --campaign`` (the last flight).
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.netsim import kinds as K
from repro.obs.campaign_report import CampaignSummary, summarize_journal
from repro.obs.journal import (Journal, follow_journal, last_flight,
                               read_flights)

_LABEL = st.text(alphabet="abcz=_ \"{}\\", max_size=8)
_CODES = st.lists(st.sampled_from(["GMP-SELF-DEATH", "TCP-RST"]),
                  max_size=2)
#: a run_end payload, sometimes nesting the start marker in a dict
_RUN = st.tuples(_LABEL, _CODES, st.booleans())
_FLIGHT = st.fixed_dictionaries({
    "engine": st.sampled_from(["campaign", "fuzz", "explore"]),
    "seed": st.integers(0, 9),
    "runs": st.lists(_RUN, max_size=5),
    "phase": st.booleans(),
    "end": st.sampled_from([None, "ok", "workers_lost"]),
})
#: what may sit before the last start: a garbage line (any bytes but a
#: newline) or a torn prefix of a real line, each ended by the newline a
#: reopened journal writes
_JUNK = st.one_of(
    st.binary(max_size=40).map(lambda b: b.replace(b"\n", b"")),
    st.tuples(st.just("torn"), st.integers(0, 10**6)),
)


def _write_flight(path, flight):
    with Journal(path) as journal:
        journal.start(flight["engine"], seed=flight["seed"],
                      configs=len(flight["runs"]))
        if flight["phase"]:
            journal.record(K.CAMPAIGN_PHASE_START, name="dispatch")
        for index, (label, codes, nested) in enumerate(flight["runs"]):
            extra = ({"detail": {"kind": K.CAMPAIGN_START, "seq": 0,
                                 "t": 0}} if nested else {})
            journal.record(K.CAMPAIGN_RUN_END, index=index, label=label,
                           codes=codes, violations=len(codes), **extra)
        if flight["end"] is not None:
            if flight["phase"]:
                journal.record(K.CAMPAIGN_PHASE_END, name="dispatch")
            journal.record(K.CAMPAIGN_END, status=flight["end"],
                           executed=len(flight["runs"]))
    return path.read_bytes()


def _torn(blob, at):
    """A prefix of one of ``blob``'s lines, without its newline."""
    lines = blob.splitlines()
    line = lines[at % len(lines)]
    return line[:at % (len(line) + 1)]


def _junk_line(junk, blob):
    if isinstance(junk, tuple):
        return _torn(blob, junk[1]) + b"\n"
    return junk + b"\n"


def _fold(directory, name, blob):
    path = os.path.join(directory, name)
    with open(path, "wb") as fp:
        fp.write(blob)
    return summarize_journal(path)


def _view(summary):
    return ([row.stable_key() for row in summary.runs], summary.end,
            summary.phases, summary.torn_tail_bytes, summary.engine,
            summary.start)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FLIGHT, min_size=1, max_size=4),
       st.lists(_JUNK, max_size=3),
       st.one_of(st.none(), st.integers(0, 10**6)))
def test_the_fold_is_the_last_flight_alone(flights, junk, tail_at):
    with tempfile.TemporaryDirectory() as directory:
        blobs = [_write_flight(Path(directory, f"flight{i}.jsonl"), flight)
                 for i, flight in enumerate(flights)]
        last = blobs[-1]
        earlier = b"".join(blobs[:-1])
        before = b"".join(_junk_line(j, earlier or last) for j in junk)
        tail = b"" if tail_at is None else _torn(last, tail_at)
        alone = _fold(directory, "alone.jsonl", last + tail)
        resumed = _fold(directory, "resumed.jsonl",
                        earlier + before + last + tail)
        assert _view(resumed) == _view(alone)
        assert alone.executed == len(flights[-1]["runs"])


_EDIT = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10**6),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.integers(0, 10**6), st.integers(1, 8)),
)


def _damage(blob, edits):
    data = bytearray(blob)
    for kind, at, arg in edits:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data[at] ^= arg
        elif kind == "insert":
            data[at:at] = arg
        elif kind == "delete":
            del data[at:at + arg]
    return bytes(data)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=400),
    st.tuples(st.lists(_FLIGHT, min_size=1, max_size=3),
              st.lists(_EDIT, min_size=1, max_size=4))))
def test_any_bytes_fold_to_a_summary(drawn):
    with tempfile.TemporaryDirectory() as directory:
        if isinstance(drawn, tuple):
            flights, edits = drawn
            blob = b"".join(
                _write_flight(Path(directory, f"flight{i}.jsonl"), flight)
                for i, flight in enumerate(flights))
            drawn = _damage(blob, edits)
        summary = _fold(directory, "any.jsonl", drawn)
        assert isinstance(summary, CampaignSummary)


#: a line a kill cut, ended by the newline a reopened journal writes: a
#: strict prefix of a written line (never a whole JSON object) or bytes
#: that are not UTF-8
_CUT = st.one_of(
    st.integers(0, 10**6),
    st.binary(max_size=40).map(lambda b: b"\xfe" + b.replace(b"\n", b"")))


def _cut_line(cut, blob):
    if isinstance(cut, bytes):
        return cut
    lines = [line for line in blob.splitlines() if line]
    line = lines[cut % len(lines)]
    return line[:cut % len(line)]


def _cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.none(), _CUT),
       st.lists(st.tuples(_FLIGHT, st.lists(_CUT, max_size=2)),
                min_size=1, max_size=4),
       st.one_of(st.none(), _CUT))
def test_every_reader_tells_one_story(lead_cut, drawn, tail_cut):
    """Torn lines before the first flight and after any flight, a torn
    tail after the last one: the flight count, the rows and whether the
    last flight completed are the same whoever reads the file.

    A cut before the first start (the first writer was killed writing
    it) is a flight of its own, with no events and no engine.
    """
    with tempfile.TemporaryDirectory() as directory:
        blob = b""
        for index, (flight, cuts) in enumerate(drawn):
            written = _write_flight(Path(directory, f"f{index}.jsonl"),
                                    flight)
            if index == 0 and lead_cut is not None:
                blob += _cut_line(lead_cut, written) + b"\n"
            blob += written + b"".join(_cut_line(cut, written) + b"\n"
                                       for cut in cuts)
        if tail_cut is not None:
            blob += _cut_line(tail_cut, blob)
        path = Path(directory, "journal.jsonl")
        path.write_bytes(blob)
        flights_drawn = [flight for flight, _cuts in drawn]
        rows = sum(len(flight["runs"]) for flight in flights_drawn)
        last_rows = len(flights_drawn[-1]["runs"])
        completed = flights_drawn[-1]["end"] == "ok"
        lead = [] if lead_cut is None else ["unknown"]
        torn_lines = len(lead) + sum(1 for _flight, cuts in drawn[:-1]
                                     if cuts)

        flights = read_flights(path)
        assert len(flights) == len(lead) + len(drawn)
        assert [flight.events for flight in flights[:len(lead)]] \
            == [[]] * len(lead)
        assert sum(len(f.of(K.CAMPAIGN_RUN_END)) for f in flights) == rows
        assert last_flight(path) == flights[-1]
        events = [event for flight in flights for event in flight.events]
        assert list(follow_journal(path, poll=0, timeout=0)) == events

        tail = _cli("tail", str(path))
        assert tail.count(K.CAMPAIGN_START) == len(drawn)
        assert tail.count(K.CAMPAIGN_RUN_END) == rows
        assert tail.count("! torn line:") == torn_lines
        trace = json.loads(_cli("trace", "--journal", str(path)))
        assert [event["args"]["name"] for event in trace["traceEvents"]
                if event["name"] == "process_name"] == [
            f"flight {number}: {engine}"
            for number, engine in enumerate(
                lead + [flight["engine"] for flight in flights_drawn], 1)]

        row, = json.loads(_cli("history", str(Path(directory, "hist")),
                               "--record", str(path), "--json"))["rows"]
        report = json.loads(_cli("report", "--campaign", str(path),
                                 "--format", "json"))
        for folded in (row["data"], report):
            assert folded["completed"] is completed
            assert folded["executed"] == last_rows
