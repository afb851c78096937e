#!/usr/bin/env python3
"""Find a protocol bug with an auto-generated script campaign.

This example combines two of the paper's threads: the uniform treatment
of application-level protocols (§2.1) and the automatic generation of
test scripts from a protocol specification (§6, future work).

The target is the alternating-bit protocol in :mod:`repro.abp`.  Two
builds exist: a correct receiver, and one with a classic implementation
mistake (it ACKs correctly but does not check the sequence bit before
delivering).  On a clean network both behave identically.  We generate
the script campaign for the ABP spec and run every generated fault
against both builds: exactly the scripts that disturb the ACK path expose
the duplicate-delivery bug.

Run it::

    python examples/abp_bug_demo.py
"""

from repro.abp import ABP_SCHEMA, AbpReceiver, AbpSender
from repro.analysis.tables import render_table
from repro.core import PFILayer, make_env
from repro.core.genscripts import generate_campaign
from repro.xkernel.stack import NodeAnchor, ProtocolStack

PAYLOADS = [f"frame-{i}".encode() for i in range(6)]


def run_under_script(script, *, check_bit):
    """One trial: transfer six frames with one generated fault active."""
    env = make_env(seed=13)
    n1 = env.network.add_node("sender", 1)
    n2 = env.network.add_node("receiver", 2)

    sender = AbpSender(env.scheduler, peer_address=2, trace=env.trace)
    sender_pfi = PFILayer("pfi_s", env.scheduler, ABP_SCHEMA, trace=env.trace,
                          sync=env.sync, node="sender")
    ProtocolStack("s").build(sender, sender_pfi, NodeAnchor(n1, "anchor_s"))

    receiver = AbpReceiver(env.scheduler, peer_address=1,
                           check_bit=check_bit, trace=env.trace)
    receiver_pfi = PFILayer("pfi_r", env.scheduler, ABP_SCHEMA, trace=env.trace,
                            sync=env.sync, node="receiver")
    ProtocolStack("r").build(receiver, receiver_pfi,
                             NodeAnchor(n2, "anchor_r"))

    # the campaign is written from the receiver's point of view: its send
    # path carries ACKs, its receive path carries DATA
    if script.direction == "send":
        receiver_pfi.set_send_filter(script.tclish_filter())
    else:
        receiver_pfi.set_receive_filter(script.tclish_filter())

    for payload in PAYLOADS:
        sender.send(payload)
    env.run_until(120.0)
    exactly_once = receiver.delivered == PAYLOADS
    return {
        "delivered_ok": exactly_once,
        "duplicates": receiver.duplicates_delivered,
        "extra": len(receiver.delivered) - len(PAYLOADS),
    }


def main():
    campaign = generate_campaign(ABP_SCHEMA, omission_rates=(0.3,),
                                 crash_after_messages=4)
    print(f"generated {len(campaign)} scripts from the ABP spec")
    print("running each against the correct and the buggy receiver...\n")

    rows = []
    finders = []
    for script in campaign:
        good = run_under_script(script, check_bit=True)
        bad = run_under_script(script, check_bit=False)
        exposes = good["delivered_ok"] and not bad["delivered_ok"]
        if exposes:
            finders.append(script.name)
        rows.append([script.name,
                     "ok" if good["delivered_ok"] else "degraded",
                     f"DUPLICATES x{bad['extra']}" if exposes else
                     ("ok" if bad["delivered_ok"] else "degraded"),
                     "<-- finds the bug" if exposes else ""])

    print(render_table(
        "auto-generated campaign vs. correct and buggy ABP receivers",
        ["Generated script", "Correct build", "Buggy build", ""], rows))

    print(f"\n{len(finders)} generated script(s) expose the "
          f"duplicate-delivery bug:")
    for name in finders:
        print(f"  - {name}")
    print("\nno script was written by hand: the campaign came straight "
          "from the protocol spec.")


if __name__ == "__main__":
    main()
