"""The GMP test rig of Figure 5.

Each machine runs the stack::

    +-----------+
    |    gmd    |   group membership daemon
    +-----------+
    | reliable  |   retransmission timers + sequence numbers
    +-----------+
    |    PFI    |   <- filter scripts (one per machine)
    +-----------+
    |    UDP    |
    +-----------+
    |  anchor   |

matching the paper: "we inserted the PFI tool into the communication
interface code where udp send and receive calls were made."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core import PFILayer, make_env
from repro.core.orchestrator import ExperimentEnv
from repro.gmp import (GMP_SCHEMA, BugFlags, Daemon, FIXED, GmpTiming,
                       ReliableChannel, UDPProtocol)
from repro.xkernel.stack import NodeAnchor, ProtocolStack


@dataclass
class GmpCluster:
    """A set of GMP machines sharing one simulated network."""

    env: ExperimentEnv
    daemons: Dict[int, Daemon]
    pfis: Dict[int, PFILayer]
    world: List[int]

    @property
    def trace(self):
        return self.env.trace

    @property
    def scheduler(self):
        return self.env.scheduler

    def start(self, *addresses: int, stagger: float = 0.05) -> None:
        """Start daemons now (staggered to keep event ordering stable)."""
        targets = addresses or tuple(self.world)
        for i, address in enumerate(targets):
            self.scheduler.schedule(i * stagger,
                                    self.daemons[address].start)

    def views(self) -> Dict[int, tuple]:
        """Current member tuples per daemon."""
        return {a: d.view.members for a, d in self.daemons.items()}

    def run_until(self, deadline: float, **kw) -> None:
        self.env.run_until(deadline, **kw)

    def all_in_one_group(self, *addresses: int) -> bool:
        """True if the given daemons share one view containing them all."""
        targets = addresses or tuple(self.world)
        expected = tuple(sorted(targets))
        return all(self.daemons[a].view.members == expected
                   for a in targets)


def build_gmp_cluster(world: Sequence[int], *,
                      bugs: Optional[Dict[int, BugFlags]] = None,
                      default_bugs: BugFlags = FIXED,
                      timing: GmpTiming = GmpTiming(),
                      seed: int = 0,
                      latency: float = 0.001,
                      env: ExperimentEnv = None) -> GmpCluster:
    """Wire up one machine per world address.

    ``bugs`` overrides the bug flags per machine; everyone else gets
    ``default_bugs``.  ``env`` reuses an existing environment (e.g. the
    one a :class:`~repro.core.orchestrator.Campaign` hands its body)
    instead of building a private one.
    """
    if env is None:
        env = make_env(seed=seed, default_latency=latency)
    daemons: Dict[int, Daemon] = {}
    pfis: Dict[int, PFILayer] = {}
    for address in sorted(world):
        node = env.network.add_node(f"compsun{address}", address)
        machine_bugs = (bugs or {}).get(address, default_bugs)
        daemon = Daemon(address, env.scheduler, world, bugs=machine_bugs,
                        timing=timing, trace=env.trace)
        reliable = ReliableChannel(address, env.scheduler, trace=env.trace)
        pfi = PFILayer(f"pfi{address}", env.scheduler, GMP_SCHEMA, trace=env.trace,
                       sync=env.sync, dist=env.dist("pfi", address),
                       node=f"compsun{address}")
        ProtocolStack(f"stack{address}").build(
            daemon, reliable, pfi, UDPProtocol(address), NodeAnchor(node))
        daemons[address] = daemon
        pfis[address] = pfi
    return GmpCluster(env=env, daemons=daemons, pfis=pfis,
                      world=sorted(world))


def findings_rows(results: Dict[str, object]) -> List[List[str]]:
    """Rows of a GMP table (Tables 5-8): each run's name, then its
    result's public fields as ``name=value`` pairs."""
    return [[key, ", ".join(f"{k}={v}" for k, v in vars(value).items()
                            if not k.startswith("_"))]
            for key, value in results.items()]
