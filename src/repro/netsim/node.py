"""Addressable simulation endpoints.

A :class:`Node` is a named, addressable machine in the virtual network.  It
owns whatever protocol stack the experiment attaches to it and exposes the
two primitives the network needs: a ``receive`` entry point for inbound
payloads and an outbound ``transmit`` delegating to the network.

Addresses are small integers standing in for IP addresses.  GMP leadership
is decided by lowest address, just as the paper's implementation used lowest
IP address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.netsim.network import Network
    from repro.xkernel.stack import NodeAnchor

ReceiveHook = Callable[[Any, int], None]


class Node:
    """A machine on the simulated network.

    Parameters
    ----------
    name:
        Human-readable hostname ("compsun1").
    address:
        Unique integer address.
    """

    def __init__(self, name: str, address: int):
        self.name = name
        self.address = address
        self.network: Optional["Network"] = None
        #: the bottom layer of the stack attached to this node (set by
        #: :class:`~repro.xkernel.stack.NodeAnchor`): links toward the
        #: node deliver to it directly, and the stack is dismantled
        #: with the node
        self.anchor: Optional["NodeAnchor"] = None
        self._receive_hook: Optional[ReceiveHook] = None
        self._halted = False
        self.received_count = 0
        self.sent_count = 0

    @property
    def is_halted(self) -> bool:
        """True after :meth:`halt` (process crash failure model)."""
        return self._halted

    def on_receive(self, hook: ReceiveHook) -> None:
        """Install the inbound delivery hook: ``hook(payload, src_address)``."""
        self._receive_hook = hook

    def receive(self, payload: Any, src_address: int) -> None:
        """Called by the network when a payload arrives for this node.

        A node with a stack anchored on it hands the payload to the
        anchor, which keeps the node's books itself (the network's links
        toward such a node call the anchor directly)."""
        anchor = self.anchor
        if anchor is not None:
            anchor.deliver(payload, src_address)
            return
        if self._halted:
            return
        self.received_count += 1
        if self._receive_hook is not None:
            self._receive_hook(payload, src_address)

    def transmit(self, payload: Any, dst_address: int) -> bool:
        """Send a payload to another node through the network.

        :class:`~repro.xkernel.stack.NodeAnchor` does the same inline
        (a stack's messages reach the network in one call); keep the two
        in step.
        """
        if self._halted:
            return False
        if self.network is None:
            raise RuntimeError(f"node {self.name} is not attached to a network")
        self.sent_count += 1
        return self.network.send(self.address, dst_address, payload)

    def halt(self) -> None:
        """Crash the node: it stops sending and receiving permanently.

        This implements the *process crash* failure model of the paper:
        "a process fails by halting prematurely and doing nothing from that
        point on".  Timers owned by higher layers are not cancelled here;
        a crashed node simply never reacts to them because protocol code is
        expected to check :attr:`is_halted` or be driven purely by receive
        events and its own transmissions.
        """
        self._halted = True

    def teardown(self) -> None:
        """End the world's run: dismantle the stack
        (:meth:`~repro.xkernel.stack.NodeAnchor.teardown`) and leave the
        network, so nothing of this machine points back at the rest of
        the world."""
        anchor, self.anchor = self.anchor, None
        if anchor is not None:
            anchor.teardown()
        self.network = self._receive_hook = None

    def __repr__(self) -> str:
        state = "halted" if self._halted else "running"
        return f"Node({self.name}, addr={self.address}, {state})"
