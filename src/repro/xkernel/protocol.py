"""Protocol layer base classes.

A layer receives messages from the layer above via :meth:`Protocol.push`
(headed for the wire) and from the layer below via :meth:`Protocol.pop`
(headed for the application).  The default implementations forward
unchanged, so a subclass only overrides the directions it cares about --
the PFI layer overrides both, a driver layer only originates pushes.

The ``above``/``below`` references are wired by
:class:`~repro.xkernel.stack.ProtocolStack`; layers must not assume who
their neighbours are, which is what makes splicing a PFI layer between any
two layers transparent to the target protocol.

Neighbours' entry points are bound at wiring: the stack sets each layer's
``send_down`` / ``send_up`` to the layer below's bound ``push`` / the
layer above's bound ``pop`` (or to :func:`discard` at either end), so a
layer crossing is one call.  Two consequences:

- ``send_down`` / ``send_up`` are not override points.  The methods on
  :class:`Protocol` do nothing, like :func:`discard`: a layer that was
  never wired sends nowhere, whatever its ``above`` / ``below`` say.
- ``push`` / ``pop`` are read once, when the stack wires their owner.
  Replace them before wiring, or re-wire (any ``insert_*`` / ``remove``
  on the stack) afterwards; a replacement on an already-wired instance is
  never called by its neighbours.
"""

from __future__ import annotations

from typing import Optional

from repro.xkernel.message import Message


def discard(msg: Message) -> None:
    """The ``send_down`` / ``send_up`` of a stack end: the message stops."""


class Protocol:
    """Base class for a protocol stack layer."""

    def __init__(self, name: str):
        self.name = name
        self.above: Optional["Protocol"] = None
        self.below: Optional["Protocol"] = None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def push(self, msg: Message) -> None:
        """Handle a message travelling down (toward the network).

        Default: forward to the layer below unchanged.
        """
        self.send_down(msg)

    def pop(self, msg: Message) -> None:
        """Handle a message travelling up (toward the application).

        Default: forward to the layer above unchanged.
        """
        self.send_up(msg)

    def send_down(self, msg: Message) -> None:
        """Hand a message to the layer below.

        Unwired, this sends nowhere; a stack replaces it per instance
        with the lower neighbour's bound ``push`` (or :func:`discard`).
        """

    def send_up(self, msg: Message) -> None:
        """Hand a message to the layer above.

        Unwired, this sends nowhere; a stack replaces it per instance
        with the upper neighbour's bound ``pop`` (or :func:`discard`).
        """

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attached(self) -> None:
        """Hook called once the layer's neighbours have been wired."""

    def teardown(self) -> None:
        """Hook called when the world's run ends, before the stack
        unwires the layer (:meth:`~repro.xkernel.stack.NodeAnchor
        .teardown`): let go of what this layer owns that calls back
        into it -- timers, sessions -- so the layer dies by reference
        counting.  State the caller may still read stays."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PassthroughProtocol(Protocol):
    """A layer that forwards in both directions while counting traffic.

    Useful as a stand-in target layer in tests and as a template for
    monitoring layers.
    """

    def __init__(self, name: str = "passthrough"):
        super().__init__(name)
        self.pushed_count = 0
        self.popped_count = 0

    def push(self, msg: Message) -> None:
        self.pushed_count += 1
        self.send_down(msg)

    def pop(self, msg: Message) -> None:
        self.popped_count += 1
        self.send_up(msg)
