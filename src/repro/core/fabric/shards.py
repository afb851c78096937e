"""Shards and the work-stealing lease board.

A *shard* is one leasable slice of a sweep's remaining configurations.
The coordinator cuts them with the orchestrator's one partitioner
(:func:`~repro.core.orchestrator._prefix_chunks`, which also cuts the
process pool's chunks): several leases per worker, a prefix group kept
whole unless it alone exceeds a worker's fair share of the sweep.

The :class:`LeaseBoard` is the coordinator's single source of truth for
who is doing what.  It is deliberately pure -- callers inject ``now``
(any monotonic clock) and serialize access -- which is what makes the
lease/steal/expiry contract unit-testable without sockets, threads or
wall time:

- a shard is leased to at most one worker at a time;
- a lease not heartbeat within ``ttl`` seconds expires; the shard
  returns to the pending queue and the next requester steals it
  (*exactly one* next requester -- a grant transitions the shard to
  leased atomically);
- a zombie holder (expired or disconnected) gets ``False`` from
  :meth:`heartbeat`; its late :meth:`complete` is accepted only while
  the shard is not already done -- results are content-addressed and
  deterministic, so double execution is wasted work, never wrong work;
- completion is monotonic: a done shard never re-enters the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class Shard:
    """One leasable slice of the sweep (global config indices)."""

    shard_id: int
    indices: List[int]
    state: str = PENDING
    worker: Optional[str] = None
    deadline: float = 0.0
    #: how many times this shard has been leased (1 = never stolen)
    attempts: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard_id, "indices": list(self.indices),
                "state": self.state, "worker": self.worker,
                "attempts": self.attempts}


@dataclass
class LeaseBoard:
    """Pending/leased/done bookkeeping with injected time."""

    shards: List[Shard]
    ttl: float = 15.0
    #: leases granted beyond a shard's first (steals after expiry or
    #: worker loss)
    stolen: int = 0
    #: leases reclaimed by ttl expiry
    expired: int = 0
    #: leases reclaimed because the holder disconnected
    released: int = 0
    _by_id: Dict[int, Shard] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._by_id = {shard.shard_id: shard for shard in self.shards}
        if len(self._by_id) != len(self.shards):
            raise ValueError("duplicate shard ids")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def pending(self) -> List[Shard]:
        return [s for s in self.shards if s.state == PENDING]

    def leased(self) -> List[Shard]:
        return [s for s in self.shards if s.state == LEASED]

    def done(self) -> bool:
        return all(s.state == DONE for s in self.shards)

    def held_by(self, worker: str) -> List[Shard]:
        return [s for s in self.shards
                if s.state == LEASED and s.worker == worker]

    # ------------------------------------------------------------------
    # transitions (callers serialize; ``now`` is any monotonic clock)
    # ------------------------------------------------------------------

    def lease(self, worker: str, now: float) -> Optional[Shard]:
        """Grant the lowest-id pending shard to ``worker``, or None."""
        for shard in self.shards:
            if shard.state == PENDING:
                shard.state = LEASED
                shard.worker = worker
                shard.deadline = now + self.ttl
                shard.attempts += 1
                if shard.attempts > 1:
                    self.stolen += 1
                return shard
        return None

    def heartbeat(self, worker: str, shard_id: int, now: float) -> bool:
        """Renew a held lease; False tells a zombie to stand down."""
        shard = self._by_id.get(shard_id)
        if (shard is None or shard.state != LEASED
                or shard.worker != worker):
            return False
        shard.deadline = now + self.ttl
        return True

    def complete(self, worker: str, shard_id: int) -> bool:
        """Mark a shard done; True only on the transition to done.

        Accepts completion from a zombie holder too (the shard was
        stolen but the original worker finished anyway): its rows are
        content-addressed, so the work stands.  A shard already done
        stays done and the late completion reports ``False``.
        """
        shard = self._by_id.get(shard_id)
        if shard is None or shard.state == DONE:
            return False
        shard.state = DONE
        shard.worker = worker
        return True

    def expire(self, now: float) -> List[Shard]:
        """Return expired leases to the pending queue."""
        reclaimed = []
        for shard in self.shards:
            if shard.state == LEASED and now > shard.deadline:
                shard.state = PENDING
                shard.worker = None
                self.expired += 1
                reclaimed.append(shard)
        return reclaimed

    def release_worker(self, worker: str) -> List[Shard]:
        """Reclaim every lease a (disconnected) worker holds."""
        reclaimed = []
        for shard in self.shards:
            if shard.state == LEASED and shard.worker == worker:
                shard.state = PENDING
                shard.worker = None
                self.released += 1
                reclaimed.append(shard)
        return reclaimed

    def as_dict(self) -> Dict[str, Any]:
        return {"ttl": self.ttl, "stolen": self.stolen,
                "expired": self.expired, "released": self.released,
                "shards": [s.as_dict() for s in self.shards]}
