"""``repro.core.fabric``: the distributed, resumable campaign fabric.

Grows :meth:`Campaign.run <repro.core.orchestrator.Campaign.run>` past
one host's process pool.  It is a *row transport* under the
orchestrator's one lifecycle (:func:`~repro.core.orchestrator.run_sweep`:
plan -> ``execute_shard`` -> ``ShardSink``), not a second engine:
a coordinator serves work-stealing shard leases to worker processes over
a length-prefixed JSON socket protocol, every worker sinks its rows into
the shared content-addressed
:class:`~repro.core.orchestrator.ResultStore` and its own shard journal,
and the journals merge into the one scorecard a serial run would have
printed.  SIGKILL
any worker -- or the coordinator -- and ``repro sweep --resume`` picks
the sweep up where the store says it stopped.  See ``docs/fabric.md``
for the protocol, the lease/heartbeat contract and the failure matrix;
``tests/fabric/`` is the chaos harness every backend must pass.
"""

from repro.core.fabric.coordinator import (FabricCoordinator, FabricError,
                                           persist_spec)
from repro.core.fabric.merge import campaign_journals, merge_campaign_dir
from repro.core.fabric.protocol import (MAX_FRAME_BYTES, ProtocolError,
                                        recv_message, request,
                                        send_message)
from repro.core.fabric.shards import LeaseBoard, Shard
from repro.core.fabric.spec import SpecError, SweepSpec
from repro.core.fabric.store import ResultStore

__all__ = [
    "FabricCoordinator", "FabricError", "LeaseBoard", "MAX_FRAME_BYTES",
    "ProtocolError", "ResultStore", "Shard", "SpecError", "SweepSpec",
    "campaign_journals", "merge_campaign_dir", "persist_spec",
    "recv_message", "request", "send_message",
]
