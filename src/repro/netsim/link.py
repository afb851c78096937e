"""Point-to-point simulated links.

A :class:`Link` carries opaque payloads from one endpoint to another with a
configurable latency, optional jitter, probabilistic loss, and an up/down
switch.  The up/down switch is what the paper's "unplugged the ethernet from
the x-injector machine" experiment exercises; probabilistic loss implements
the *link crash* and *general omission* failure models at the lowest level.

Payloads in flight when a link goes down are destroyed (a real cable drop
loses frames already on the wire only if they have not arrived; we model the
simpler and stricter semantics of dropping anything not yet delivered).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.netsim.scheduler import Event, Scheduler

#: ``deliver(payload, src)``: the receiving node's ``receive``, or its
#: anchored stack's ``deliver``
DeliverFn = Callable[[Any, int], None]


class Link:
    """A unidirectional pipe between two nodes.

    Parameters
    ----------
    scheduler:
        The shared virtual clock.
    deliver:
        Called as ``deliver(payload, src)`` with each payload on arrival:
        the receiving node's bound ``receive`` (the network passes the
        ``deliver`` of the stack anchored on it, when there is one, so a
        delivery into a stack is one call).  A bound method (unlike a
        closure) follows the checkpoint engine's copy into a fork.
    src:
        The sending node's address, handed to ``deliver``.
    latency:
        One-way delay in seconds.
    jitter:
        Maximum extra random delay added per payload (uniform in
        ``[0, jitter]``).  Jitter never reorders payloads: delivery times
        are clamped to be monotonically non-decreasing, matching FIFO
        queueing on a real interface.
    loss_rate:
        Independent per-payload drop probability in ``[0, 1]``.
    rng:
        Random source used for jitter/loss, used as it is.
    seed:
        Without ``rng``, the stream is ``random.Random(seed)``, built on
        the first draw: until then the link holds only its seed, which
        is all a checkpoint fork copies and all a reseed replaces.
    """

    def __init__(self, scheduler: Scheduler, deliver: DeliverFn, src: int, *,
                 latency: float = 0.001, jitter: float = 0.0,
                 loss_rate: float = 0.0,
                 rng: Optional[random.Random] = None, seed: Any = 0,
                 name: str = "link"):
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be within [0, 1], got {loss_rate}")
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be non-negative")
        self._scheduler = scheduler
        self._deliver = deliver
        self._src = src
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self._rng = rng
        self._seed = seed
        self.name = name
        self._up = True
        self._last_arrival = 0.0
        self._in_flight: Deque[Event] = deque()
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        #: RNG draws consumed so far (loss dice + jitter); the
        #: checkpoint layer refuses to reseed a link that already drew
        self.rng_draws = 0

    def reseed(self, seed: str) -> None:
        """Restart this link's RNG stream from ``seed`` (checkpoint
        restore path): the stream ``random.Random(seed)`` draws, built
        on the first draw."""
        self._rng = None
        self._seed = seed
        self.rng_draws = 0

    def _stream(self) -> random.Random:
        """The RNG, built from the seed on the first draw."""
        self._rng = random.Random(self._seed)
        return self._rng

    @property
    def is_up(self) -> bool:
        """Whether the link is currently carrying traffic."""
        return self._up

    def down(self) -> None:
        """Unplug the link.  Everything in flight is lost."""
        self._up = False
        for event in self._in_flight:
            event.cancel()
        self.dropped_count += len(self._in_flight)
        self._in_flight.clear()

    def up(self) -> None:
        """Replug the link."""
        self._up = True

    def send(self, payload: Any) -> bool:
        """Enqueue a payload for delivery.  Returns True if it was accepted.

        A payload is silently dropped (returning False) when the link is
        down or the loss dice say so -- exactly how a lossy wire behaves
        from the sender's perspective.
        """
        self.sent_count += 1
        if not self._up:
            self.dropped_count += 1
            return False
        if self.loss_rate > 0:
            self.rng_draws += 1
            if (self._rng or self._stream()).random() < self.loss_rate:
                self.dropped_count += 1
                return False
        delay = self.latency
        if self.jitter > 0:
            self.rng_draws += 1
            delay += (self._rng or self._stream()).uniform(0.0, self.jitter)
        arrival = self._scheduler.now + delay
        if arrival < self._last_arrival:
            arrival = self._last_arrival  # preserve FIFO ordering
        self._last_arrival = arrival
        event = self._scheduler.schedule_at(arrival, self._arrive, payload)
        self._in_flight.append(event)
        return True

    def _arrive(self, payload: Any) -> None:
        # FIFO delivery means the event firing now is always the oldest
        # undelivered one: dropping the deque head replaces the per-arrival
        # list rebuild (O(in-flight) each time) with an O(1) popleft
        if self._in_flight:
            self._in_flight.popleft()
        if not self._up:
            self.dropped_count += 1
            return
        self.delivered_count += 1
        self._deliver(payload, self._src)

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return (f"Link({self.name}, {state}, latency={self.latency}, "
                f"sent={self.sent_count}, delivered={self.delivered_count})")
