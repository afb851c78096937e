"""The fabric's shared result store.

The class lives in :mod:`repro.core.orchestrator` -- there is one store,
used alike by ``Campaign.run(cache=...)`` sweeps, in-process
``fabric_dir`` sweeps, fabric workers and the coordinator -- and is
re-exported here under the path fabric code has always imported it from.
"""

from repro.core.orchestrator import ResultStore

__all__ = ["ResultStore"]
