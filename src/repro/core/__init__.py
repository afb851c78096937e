"""The paper's contribution: script-driven probing and fault injection.

Public surface:

- :class:`~repro.core.pfi.PFILayer` -- the probe/fault-injection layer,
  spliced between two adjacent layers of an
  :class:`~repro.xkernel.stack.ProtocolStack`;
- :class:`~repro.core.script.PythonFilter` /
  :class:`~repro.core.script.TclishFilter` -- the two filter-script
  backends;
- :class:`~repro.core.context.ScriptContext` -- what a filter sees
  (``cur_msg``, drop/delay/duplicate/hold/inject, persistent state, the
  peer interpreter, distributions, cross-node sync);
- :class:`~repro.core.stubs.PacketStubs` -- packet
  recognition/generation stubs;
- :mod:`~repro.core.genscripts` -- the failure-model catalogue: tclish
  fault scripts generated from a protocol spec
  (crash/omission/timing/reorder/duplicate/corruption) and the severity
  lattice;
- :class:`~repro.core.driver.Driver` -- the traffic-generating layer
  above the target protocol;
- :func:`~repro.core.orchestrator.make_env` /
  :class:`~repro.core.orchestrator.Campaign` -- experiment plumbing.
"""

from repro.core import genscripts
from repro.core.context import ScriptContext
from repro.core.distributions import DistributionSet, derive_seed
from repro.core.driver import Driver
from repro.core.msglog import MessageLog
from repro.core.orchestrator import Campaign, ExperimentEnv, RunResult, make_env
from repro.core.pfi import PFILayer
from repro.core.script import FilterScript, PythonFilter, TclishFilter
from repro.core.stubs import PacketStubs, StubError, UNKNOWN_TYPE
from repro.core.sync import ScriptSync

__all__ = [
    "Campaign",
    "DistributionSet",
    "Driver",
    "ExperimentEnv",
    "FilterScript",
    "MessageLog",
    "PFILayer",
    "PacketStubs",
    "PythonFilter",
    "RunResult",
    "ScriptContext",
    "ScriptSync",
    "StubError",
    "TclishFilter",
    "UNKNOWN_TYPE",
    "derive_seed",
    "genscripts",
    "make_env",
]
