"""No-false-positive conformance suite.

Every stock experiment module exports ``invariants()`` and
``conformance_runs(seed)``; under the full packs each representative
trace must be violation-free.  This is the anchor that keeps the oracle
honest: a new invariant that flags conformant behaviour fails here
before it can pollute fuzzing verdicts, and the fuzzer's premise -- that
its targets are clean at rest -- is pinned by the same runs.

The same runs pin each trace byte for byte: ``sha256`` of its
``dump_trace`` with the volatile attributes stripped.  A change to how an
experiment installs its faults (a Python filter restated as tclish, say)
must leave every digest as it is.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.experiments import (gmp_packet_interruption, gmp_partition,
                               gmp_proclaim, gmp_timer, tcp_delayed_ack,
                               tcp_keepalive, tcp_reordering,
                               tcp_retransmission, tcp_zero_window)
from repro.oracle import check_module

MODULES = [tcp_retransmission, tcp_delayed_ack, tcp_keepalive,
           tcp_zero_window, tcp_reordering, gmp_packet_interruption,
           gmp_partition, gmp_proclaim, gmp_timer]

#: label -> sha256 of ``dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)``
#: for every ``conformance_runs(0)`` trace, recorded while each Table's
#: filters were still Python closures
TRACE_DIGESTS = {
    "retransmission/SunOS 4.1.3":
        "081a3c747a56be91db7f5b0f0522fd0b0a4005c3e174ecc73c1477da20136b54",
    "retransmission/AIX 3.2.3":
        "081a3c747a56be91db7f5b0f0522fd0b0a4005c3e174ecc73c1477da20136b54",
    "retransmission/NeXT Mach":
        "081a3c747a56be91db7f5b0f0522fd0b0a4005c3e174ecc73c1477da20136b54",
    "retransmission/Solaris 2.3":
        "4534ab06c9923b076101d776cb10f235c96af7707b8c1522ebb1ca7ad179a338",
    "delayed_ack/SunOS 4.1.3":
        "3effe77bf560c7aba98cf0a39f76c43240dd5a7a9674e279572e8ab62326a8dc",
    "delayed_ack/AIX 3.2.3":
        "e593c14f8c182bff8fac0ca526c9232536d7779cb17e7129c067c140869b119f",
    "delayed_ack/NeXT Mach":
        "16a6440e6f6649a70a62aae4abc051f9eacbcb294b662019a3dc5d297bbdfedb",
    "delayed_ack/Solaris 2.3":
        "e9d24a036bab7e6d710a6e138f6e063665c1c2b7fa722cd54bd677198f17def4",
    "delayed_ack/global_counter/Solaris 2.3":
        "ee768ae5edd02fd1ab00e7e982b7216c6cb374a8bf5d3b785715dcd5ae5134c9",
    "keepalive/dropped/SunOS 4.1.3":
        "5cc4de9aaabae62be9a855de02cc35adeba8136b4b220eca38052d5b3dbccd44",
    "keepalive/answered/SunOS 4.1.3":
        "767c86cf805ad08558752e78e231bd1b1ea096801e0349f42162e1c0600af2cb",
    "keepalive/dropped/AIX 3.2.3":
        "a5d12025e31586bb1ad6bc85274fe8c54f0336ae077e63391d6a37b8547e45d9",
    "keepalive/answered/AIX 3.2.3":
        "f818fd68c79541047284604ea8a41b8644fdd5fe368f44320bbbe636d2753b98",
    "keepalive/dropped/NeXT Mach":
        "a5d12025e31586bb1ad6bc85274fe8c54f0336ae077e63391d6a37b8547e45d9",
    "keepalive/answered/NeXT Mach":
        "f818fd68c79541047284604ea8a41b8644fdd5fe368f44320bbbe636d2753b98",
    "keepalive/dropped/Solaris 2.3":
        "a32a81520b0c032489d959769dab473c0e5b1fe6f1c849d8612a8edb22097b80",
    "keepalive/answered/Solaris 2.3":
        "e36c9372f72498cd9ca8567eb9eccdcbe898d05b182ee8a41722bbddb6e887b0",
    "zero_window/acked/SunOS 4.1.3":
        "d67338e2f771b9fc1962ef1d36c31eb6c19b330d45c238f6d8288c3050caa151",
    "zero_window/unacked/SunOS 4.1.3":
        "2ccc1383a8bac97df86df6103ce3463437b470c8a1200e582f64e67b4c181f37",
    "zero_window/acked/AIX 3.2.3":
        "d67338e2f771b9fc1962ef1d36c31eb6c19b330d45c238f6d8288c3050caa151",
    "zero_window/unacked/AIX 3.2.3":
        "2ccc1383a8bac97df86df6103ce3463437b470c8a1200e582f64e67b4c181f37",
    "zero_window/acked/NeXT Mach":
        "d67338e2f771b9fc1962ef1d36c31eb6c19b330d45c238f6d8288c3050caa151",
    "zero_window/unacked/NeXT Mach":
        "2ccc1383a8bac97df86df6103ce3463437b470c8a1200e582f64e67b4c181f37",
    "zero_window/acked/Solaris 2.3":
        "c9b7528100928e811cee7ed8daac808c3502ff86d107755c61428c3035baaf93",
    "zero_window/unacked/Solaris 2.3":
        "660280970f29e7c93e54d4918b51a79d20ba15554671056b15b0e45359b66b35",
    "reordering/SunOS 4.1.3":
        "a368a5537fbcc5b14b3516c367a655259b77a9c09e6eca518d6d5be7a4742a47",
    "reordering/AIX 3.2.3":
        "a368a5537fbcc5b14b3516c367a655259b77a9c09e6eca518d6d5be7a4742a47",
    "reordering/NeXT Mach":
        "a368a5537fbcc5b14b3516c367a655259b77a9c09e6eca518d6d5be7a4742a47",
    "reordering/Solaris 2.3":
        "a368a5537fbcc5b14b3516c367a655259b77a9c09e6eca518d6d5be7a4742a47",
    "packet_interruption/self_death_fixed":
        "c2019def885c2156e2c12247fe38b069e6c83c4444ccb363e46f82dafb93a2c3",
    "packet_interruption/suspend_fixed":
        "a65b46124ce3876362e3d94851baa9236b92c5fd8ddc8b7824b4f20ffa2f9271",
    "packet_interruption/kick_rejoin":
        "151ae4d7f6d0d0dd532d5b32a82f3a0c0e6ae4ad6880b9200276c2b3b84b63d5",
    "packet_interruption/ack_drop":
        "37037a11fc2e85b14930c9b4d342ab6b8cb06f81590ad3837fec69e6fa598558",
    "packet_interruption/commit_drop":
        "3f01823709f5734eebbada43fc38b47e0e8afd9b84c1b988c0cbee67e8b91fba",
    "partition/oscillating":
        "8add6ae691d91f2c1fe0c60768de820da470fcc670a7929e849ff35311dad2f3",
    "partition/separation_leader_first":
        "221067694d3defcf5cd36cda1aecf14aff3c4234747412d222a7b3a4a61c7899",
    "partition/separation_prince_first":
        "86e8f92a753225820c020da6d754520556a06b4bb588ddcd8c41354f848fc285",
    "proclaim/forwarding_fixed":
        "28f4d02d34b70f6de2a946d822db6968ca56b1e8c36b6b12dea62a5434674607",
    "timer/unregister_fixed":
        "9960cf801487725a54b49c850afd03c9dfa17add2c21f1fec517ecd962b304bd",
}


def trace_digest(trace):
    text = dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__.rsplit(".", 1)[-1]
                              for m in MODULES])
def test_stock_experiments_are_conformant(module):
    digests = {}

    def pinned_runs(seed):
        # digest each trace as the oracle pass consumes it: one simulation
        for label, trace in module.conformance_runs(seed):
            digests[label] = trace_digest(trace)
            yield label, trace

    labels = []
    view = SimpleNamespace(conformance_runs=pinned_runs,
                           invariants=module.invariants)
    for label, report in check_module(view, seed=0):
        labels.append(label)
        assert report.ok(), (
            f"{label}: {len(report.violations)} violation(s):\n"
            + "\n".join(str(v) for v in report.violations[:10]))
        assert report.entries_scanned > 0, (
            f"{label}: oracle saw no subscribed entries -- the pack is "
            f"not actually checking this trace")
    assert labels, f"{module.__name__} yielded no conformance runs"
    assert digests == {label: TRACE_DIGESTS.get(label) for label in labels}


def test_conformance_runs_are_distinctly_labelled():
    seen = set()
    for module in MODULES:
        for label, _trace in module.conformance_runs(0):
            assert label not in seen, f"duplicate label {label}"
            seen.add(label)
    assert seen == set(TRACE_DIGESTS)
