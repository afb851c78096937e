"""The virtual network: nodes, pairwise links, and partitions.

The :class:`Network` wires every pair of attached nodes with two directed
:class:`~repro.netsim.link.Link` objects (one per direction) created lazily
on first use.  That gives experiments per-direction control: the paper's
partition tests drop traffic between specific machine pairs while leaving
other pairs untouched, and the leader/crown-prince separation drops traffic
in both directions for exactly one pair.

Partitions are expressed as groups of addresses: traffic crossing a group
boundary is discarded at the sending edge.  Partitions compose with per-link
up/down state -- a link must be up *and* not cut by a partition to carry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder


class Network:
    """A mesh network over a shared scheduler.

    Parameters
    ----------
    scheduler:
        The virtual clock shared by every component of the experiment.
    default_latency:
        One-way latency for lazily created links (seconds).
    seed:
        The network seed, from which each link derives the seed of its
        own stream; runs with equal seeds are bit-identical.
    """

    def __init__(self, scheduler: Scheduler, *, default_latency: float = 0.001,
                 seed: int = 0, trace: Optional[TraceRecorder] = None):
        self.scheduler = scheduler
        self.default_latency = default_latency
        self._seed = seed
        self.trace = trace
        self._nodes: Dict[int, Node] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._partition: Optional[List[frozenset]] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def attach(self, node: Node) -> Node:
        """Add a node to the network.  Addresses must be unique."""
        if node.address in self._nodes:
            raise ValueError(f"duplicate address {node.address}")
        node.network = self
        self._nodes[node.address] = node
        return node

    def add_node(self, name: str, address: int) -> Node:
        """Create and attach a node in one step."""
        return self.attach(Node(name, address))

    def node(self, address: int) -> Node:
        """Look up a node by address."""
        return self._nodes[address]

    def nodes(self) -> List[Node]:
        """All attached nodes, ordered by address."""
        return [self._nodes[a] for a in sorted(self._nodes)]

    def link(self, src: int, dst: int) -> Link:
        """The directed link src->dst, created lazily with defaults."""
        key = (src, dst)
        if key not in self._links:
            node = self._nodes[dst]
            # a node with a stack anchored on it takes deliveries at
            # the anchor, which keeps the node's books itself
            anchor = node.anchor
            self._links[key] = Link(
                self.scheduler,
                node.receive if anchor is None else anchor.deliver,
                src,
                latency=self.default_latency,
                seed=f"{self._seed}/{src}/{dst}",
                name=f"{src}->{dst}",
            )
        return self._links[key]

    def reseed(self, seed: int) -> None:
        """Re-derive every link's RNG stream from a new network seed.

        Part of the checkpoint/fork restore path: a forked world can be
        re-targeted to another run seed *only* while no link has drawn
        from its stream yet, otherwise the fork would diverge from a
        cold run of the new seed (which would have consumed its own
        draws during the shared prefix).
        """
        for (src, dst), link in sorted(self._links.items()):
            if link.rng_draws:
                raise RuntimeError(
                    f"link {src}->{dst} consumed {link.rng_draws} RNG "
                    f"draw(s) before the reseed; checkpoint is not "
                    f"seed-portable")
        self._seed = seed
        for (src, dst), link in self._links.items():
            link.reseed(f"{seed}/{src}/{dst}")

    def teardown(self) -> None:
        """End the world's run: every node leaves the network
        (:meth:`Node.teardown`).  Nodes and links stay readable."""
        for node in self._nodes.values():
            node.teardown()

    def set_link_down(self, src: int, dst: int, *, both: bool = True) -> None:
        """Unplug the link(s) between two nodes."""
        self.link(src, dst).down()
        if both:
            self.link(dst, src).down()

    def set_link_up(self, src: int, dst: int, *, both: bool = True) -> None:
        """Replug the link(s) between two nodes."""
        self.link(src, dst).up()
        if both:
            self.link(dst, src).up()

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------

    def partition(self, *groups: Sequence[int]) -> None:
        """Split the network into isolated groups of addresses.

        Nodes not mentioned in any group form an implicit extra group
        together (they can talk to each other but to nobody listed).
        """
        listed = [frozenset(group) for group in groups]
        mentioned = set().union(*listed) if listed else set()
        rest = frozenset(a for a in self._nodes if a not in mentioned)
        if rest:
            listed.append(rest)
        self._partition = listed

    def heal(self) -> None:
        """Remove any partition; full connectivity resumes."""
        self._partition = None

    def _crosses_partition(self, src: int, dst: int) -> bool:
        if self._partition is None:
            return False
        for group in self._partition:
            if src in group:
                return dst not in group
        return True  # src not in any group: isolated from everyone listed

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any) -> bool:
        """Carry a payload from src to dst.  Returns True if accepted.

        Loopback (src == dst) is delivered through the scheduler with the
        link latency like any other traffic: the paper's GMP sends
        heartbeats to the local machine through the same code path, which
        is exactly what made its self-death bug injectable.

        Outside a partition an existing link is used as it is: a link
        exists only toward an attached node, and nodes never leave, so
        the routing checks run on a pair's first send or while a
        partition is in force.
        """
        link = (self._links.get((src, dst)) if self._partition is None
                else None)
        if link is None:
            if dst not in self._nodes:
                # unroutable destination: silently dropped, like a real
                # network facing a spoofed source address (fault-injection
                # probes may legitimately carry phantom addresses)
                if self.trace is not None:
                    self.trace.record("net.unroutable", src=src, dst=dst)
                return False
            if self._crosses_partition(src, dst):
                if self.trace is not None:
                    self.trace.record("net.partition_drop", src=src, dst=dst)
                return False
            link = self.link(src, dst)
        accepted = link.send(payload)
        trace = self.trace
        if trace is not None:
            # the scheduler's clock, read here rather than through the
            # recorder's bound SchedulerClock call
            trace.record("net.send" if accepted else "net.link_drop",
                         t=self.scheduler.now, src=src, dst=dst)
        return accepted

    def broadcast(self, src: int, payload_factory, *, include_self: bool = False) -> int:
        """Send ``payload_factory(dst)`` to every node.  Returns #accepted."""
        accepted = 0
        for address in sorted(self._nodes):
            if address == src and not include_self:
                continue
            if self.send(src, address, payload_factory(address)):
                accepted += 1
        return accepted

    def __repr__(self) -> str:
        part = "partitioned" if self._partition else "whole"
        return f"Network({len(self._nodes)} nodes, {len(self._links)} links, {part})"
