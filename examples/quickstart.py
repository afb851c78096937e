#!/usr/bin/env python3
"""Quickstart: splice a PFI layer under a protocol and inject faults.

This walks the core workflow of the tool in five minutes:

1. build a virtual network and two protocol stacks;
2. splice the PFI layer beneath the target protocol (TCP here);
3. install a filter script -- first in Python, then the same script in
   tclish, the bundled Tcl-like language the paper used;
4. run the experiment on the virtual clock;
5. read the results out of the trace.

Run it::

    python examples/quickstart.py
"""

from repro.core import PFILayer, TclishFilter, make_env
from repro.tcp import SUNOS_413, TCP_SCHEMA, TCPProtocol, XKERNEL
from repro.tcp.ip import IPProtocol
from repro.xkernel.stack import NodeAnchor, ProtocolStack


def build_world():
    """Two machines: a 'vendor' host and the instrumented x-kernel host."""
    env = make_env(seed=7)
    vendor_node = env.network.add_node("vendor", 1)
    xkernel_node = env.network.add_node("xkernel", 2)

    # the vendor machine runs a plain stack: TCP / IP / device
    vendor_tcp = TCPProtocol(env.scheduler, SUNOS_413, local_address=1,
                             trace=env.trace, host="vendor")
    ProtocolStack("vendor").build(
        vendor_tcp, IPProtocol(1), NodeAnchor(vendor_node))

    # the instrumented machine carries the PFI layer between TCP and IP
    xkernel_tcp = TCPProtocol(env.scheduler, XKERNEL, local_address=2,
                              trace=env.trace, host="xkernel")
    pfi = PFILayer("pfi", env.scheduler, TCP_SCHEMA, trace=env.trace,
                   sync=env.sync, node="xkernel")
    ProtocolStack("xkernel").build(
        xkernel_tcp, pfi, IPProtocol(2), NodeAnchor(xkernel_node))

    return env, vendor_tcp, xkernel_tcp, pfi


def main():
    env, vendor_tcp, xkernel_tcp, pfi = build_world()

    # open a connection from the vendor machine to the x-kernel machine
    server = xkernel_tcp.listen(80)
    client = vendor_tcp.open_connection(local_port=5000, remote_address=2,
                                        remote_port=80)
    client.connect()
    env.run_until(1.0)
    print(f"connection established: client={client.state} "
          f"server={server.state}")

    # --- a Python filter script: drop every third data segment ----------
    def drop_every_third(ctx):
        if ctx.msg_type() != "DATA":
            return
        n = ctx.state.get("n", 0) + 1
        ctx.state["n"] = n
        if n % 3 == 0:
            ctx.log("dropped by quickstart filter")
            ctx.drop()

    pfi.set_receive_filter(drop_every_third)
    client.send(b"reliable delivery despite loss " * 64)
    env.run_until(120.0)
    print(f"delivered {len(server.delivered)} bytes through a filter that "
          f"dropped every 3rd data segment")
    print(f"vendor TCP retransmitted "
          f"{env.trace.count('tcp.retransmit', conn='vendor:5000')} times")

    # --- the same experiment, script-driven in tclish -------------------
    pfi.set_receive_filter(TclishFilter("""
        # drop every third DATA segment, log what we drop
        if {[msg_type cur_msg] eq "DATA"} {
            incr n
            if {$n % 3 == 0} {
                msg_log cur_msg
                xDrop cur_msg
            }
        }
    """, init_script="set n 0"))
    before = len(server.delivered)
    client.send(b"and the same thing, script-driven " * 32)
    env.run_until(240.0)
    print(f"tclish filter: delivered {len(server.delivered) - before} "
          f"more bytes")

    # --- inject a spontaneous probe message ------------------------------
    probe = pfi.stubs.generate("ACK", src_port=80, dst_port=5000,
                               seq=0, ack=0, dst=1)
    pfi.inject(probe, "send")
    env.run_until(241.0)
    print("injected a spurious ACK probe toward the vendor machine "
          "(stateless generation, exactly as the paper describes)")

    # --- the trace is the experiment's record ---------------------------
    print("\nlast five PFI log lines:")
    for line in pfi.msglog.lines[-5:]:
        print(" ", line)


if __name__ == "__main__":
    main()
