"""The fabric's shared result store.

The class lives in :mod:`repro.core.orchestrator` -- there is one store,
the ``store/`` of a campaign directory, used alike by in-process
``fabric_dir`` sweeps, fabric workers and the coordinator -- and is
re-exported here under the path fabric code has always imported it from.
"""

from repro.core.orchestrator import ResultStore

__all__ = ["ResultStore"]
