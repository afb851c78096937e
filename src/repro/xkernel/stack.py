"""Protocol stack assembly and layer splicing.

A :class:`ProtocolStack` holds layers ordered top (application side) to
bottom (wire side) and keeps the ``above``/``below`` references consistent.
Its distinguishing operation is :meth:`insert_below` /
:meth:`insert_above`: splicing a new layer next to an existing one without
the neighbours noticing, which is how a PFI layer is installed beneath a
target protocol ("the PFI layer is inserted between any two consecutive
layers in a protocol stack").

The bottom of a stack is typically an adapter layer that hands messages to
the network simulator (see :class:`NodeAnchor`).

Wiring binds each layer's neighbours once: ``send_down`` becomes the
layer below's bound ``push`` and ``send_up`` the layer above's bound
``pop``, with :func:`~repro.xkernel.protocol.discard` at either end, so
every crossing on the message path is one call.  Every ``build`` /
``insert_*`` / ``remove`` re-wires the whole stack, which is also how a
``push`` / ``pop`` replaced on an already-wired layer is picked up.

Neighbours bound both ways make a stack one reference cycle, so when a
run ends the node's anchor unwires it (:meth:`NodeAnchor.teardown`,
called through :meth:`~repro.netsim.node.Node.teardown`): each layer
first lets go of what it owns (:meth:`~repro.xkernel.protocol.Protocol
.teardown`), then of its neighbours.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.netsim.node import Node
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol, discard


class ProtocolStack:
    """An ordered stack of protocol layers."""

    def __init__(self, name: str = "stack"):
        self.name = name
        self._layers: List[Protocol] = []

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _rewire(self) -> None:
        layers = self._layers
        for i, layer in enumerate(layers):
            _wire(layer, layers[i - 1] if i > 0 else None,
                  layers[i + 1] if i < len(layers) - 1 else None)
        for layer in layers:
            layer.attached()

    def build(self, *layers: Protocol) -> "ProtocolStack":
        """Set the stack contents, top to bottom.  Returns self."""
        self._layers = list(layers)
        self._names_must_be_unique()
        self._rewire()
        return self

    def _names_must_be_unique(self) -> None:
        names = [layer.name for layer in self._layers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate layer names in stack: {names}")

    def insert_below(self, target_name: str, layer: Protocol) -> Protocol:
        """Splice ``layer`` immediately below the named layer."""
        index = self._index_of(target_name)
        self._layers.insert(index + 1, layer)
        self._names_must_be_unique()
        self._rewire()
        return layer

    def insert_above(self, target_name: str, layer: Protocol) -> Protocol:
        """Splice ``layer`` immediately above the named layer."""
        index = self._index_of(target_name)
        self._layers.insert(index, layer)
        self._names_must_be_unique()
        self._rewire()
        return layer

    def remove(self, name: str) -> Protocol:
        """Remove and return a layer; its neighbours are re-joined."""
        index = self._index_of(name)
        layer = self._layers.pop(index)
        _wire(layer, None, None)
        self._rewire()
        return layer

    def _index_of(self, name: str) -> int:
        for i, layer in enumerate(self._layers):
            if layer.name == name:
                return i
        raise KeyError(f"no layer named {name!r} in stack {self.name!r}")

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def layer(self, name: str) -> Protocol:
        """Look up a layer by name."""
        return self._layers[self._index_of(name)]

    def layers(self) -> List[Protocol]:
        """Layers top to bottom (a copy)."""
        return list(self._layers)

    @property
    def top(self) -> Protocol:
        """The application-most layer."""
        if not self._layers:
            raise IndexError("empty stack")
        return self._layers[0]

    @property
    def bottom(self) -> Protocol:
        """The wire-most layer."""
        if not self._layers:
            raise IndexError("empty stack")
        return self._layers[-1]

    def __contains__(self, name: str) -> bool:
        return any(layer.name == name for layer in self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def __repr__(self) -> str:
        names = " / ".join(layer.name for layer in self._layers)
        return f"ProtocolStack({self.name}: {names})"


def _wire(layer: Protocol, above: Optional[Protocol],
          below: Optional[Protocol]) -> None:
    """Set ``layer``'s neighbours and bind its two exits to them."""
    layer.above = above
    layer.below = below
    layer.send_up = above.pop if above is not None else discard
    layer.send_down = below.push if below is not None else discard


class NodeAnchor(Protocol):
    """Bottom-of-stack adapter connecting a stack to a simulated node.

    Pushes become node transmissions; node receptions become pops.  The
    destination address is read from ``msg.meta['dst']`` (set by whatever
    network-level layer sits above, e.g. :class:`repro.tcp.ip.IPProtocol`),
    and the source address of received messages is recorded into
    ``msg.meta['src']``.
    """

    def __init__(self, node: Node, name: str = "anchor"):
        super().__init__(name)
        self.node = node
        node.anchor = self

    def teardown(self) -> None:
        """End the world's run: every layer of the stack above this
        anchor, bottom up, lets go of what it owns
        (:meth:`Protocol.teardown`) and is unwired."""
        layer = self
        while layer is not None:
            above = layer.above
            if layer is not self:
                layer.teardown()
            # _wire(layer, None, None), inline
            layer.above = layer.below = None
            layer.send_up = layer.send_down = discard
            layer = above

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("message reached the anchor without meta['dst']")
        # the wire is a serialization boundary: the receiver must get its
        # own copy, so that corrupting a received header (byzantine fault
        # injection) can never reach back into the sender's state, e.g.
        # its retransmission queue
        wire = msg.copy()
        # Node.transmit, inline: the stack's last layer hands the copy
        # to the network in one call
        node = self.node
        if node._halted:
            return
        if node.network is None:
            raise RuntimeError(f"node {node.name} is not attached to a network")
        node.sent_count += 1
        node.network.send(node.address, dst, wire)

    def deliver(self, payload: Any, src_address: int) -> None:
        """A payload off the wire, in one call: what the network's links
        toward this node call, keeping the node's books as
        :meth:`Node.receive` keeps them for a node without a stack."""
        node = self.node
        if node._halted:
            return
        node.received_count += 1
        if not isinstance(payload, Message):
            payload = Message(payload)
        payload.meta["src"] = src_address
        self.send_up(payload)
