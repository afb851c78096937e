"""The sweep specification a fabric run is addressed by.

A :class:`SweepSpec` bundles everything a worker process needs to execute
any slice of a campaign -- the body callable, the campaign seed, the full
configuration list, and the telemetry/oracle/grouping options -- pickled
once into the campaign directory (``spec.pkl``) so coordinator restarts
and late-joining workers all read the identical sweep.  The same
picklability rule as parallel :meth:`Campaign.run
<repro.core.orchestrator.Campaign.run>` applies: body and oracle must be
module-level callables.

The spec also owns every derivation a sweep is planned from, on every
backend -- ``Campaign.run`` builds one in memory even for a bare serial
sweep: :meth:`store_keys` (the content address of each row, including
the static prefix digest for split bodies), the prefix keys grouped
execution runs on, and the :meth:`digest` a campaign directory is pinned
to.  One derivation is what makes a store warmed by a serial run resume
a fabric run incrementally, and vice versa.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.orchestrator import (PrefixedBody, ResultStore,
                                     _hash_callable, _prefix_digest)


class SpecError(ValueError):
    """A spec that cannot serve a fabric run (unpicklable, mismatched)."""


@dataclass
class SweepSpec:
    """One campaign sweep, self-contained and picklable."""

    body: Callable
    seed: int
    configs: List[Dict[str, Any]]
    telemetry: bool = True
    oracle: Optional[Callable] = None
    lint: str = "error"
    group: bool = True

    def __post_init__(self) -> None:
        self.configs = [dict(config) for config in self.configs]

    # ------------------------------------------------------------------
    # derivations
    # ------------------------------------------------------------------

    @property
    def split(self) -> bool:
        return isinstance(self.body, PrefixedBody)

    def prefix_keys(self) -> List[Optional[Any]]:
        """Per-config prefix keys (all ``None`` for unsplit bodies).

        Derived regardless of :attr:`group` -- store keys mix the prefix
        digest in whenever the body is split, so grouped and ungrouped
        runs share one store address space.
        """
        if not self.split:
            return [None] * len(self.configs)
        return [self.body.prefix_key(config) for config in self.configs]

    def execution_prefix_keys(self) -> List[Optional[Any]]:
        """The keys shards are partitioned on: :meth:`prefix_keys` under
        :attr:`group`, all ``None`` (every row runs cold) otherwise."""
        if not self.group:
            return [None] * len(self.configs)
        return self.prefix_keys()

    def store_keys(self, store: ResultStore) -> List[str]:
        """The content address of every configuration's result.

        Split bodies mix the static prefix digest in, so a stored row
        never needs a capture to be found, yet a changed prefix function
        or key can never alias a stale result.
        """
        return [store.key(self.body, self.seed, config,
                          telemetry=self.telemetry, oracle=self.oracle,
                          checkpoint=(None if key is None
                                      else _prefix_digest(self.body, key)))
                for config, key in zip(self.configs, self.prefix_keys())]

    def body_label(self) -> str:
        return getattr(self.body, "__qualname__", repr(self.body))

    def digest(self) -> str:
        """Content identity of this spec (collision => same sweep).

        Hashes canonical components -- body/oracle code the way
        :meth:`ResultStore.key <repro.core.orchestrator.ResultStore.key>`
        does, plus seed, options and config contents -- rather than the
        spec's pickle bytes, whose memoization layout depends on string
        object identity and therefore differs between a freshly built
        spec and the same spec loaded back from disk.
        """
        digest = hashlib.sha256()
        parts = getattr(self.body, "cache_parts", None)
        for fn in ((*parts(), self.body.key) if callable(parts)
                   else (self.body,)):
            _hash_callable(digest, fn)
        if self.oracle is not None:
            _hash_callable(digest, self.oracle, code=False)
        digest.update(repr((self.seed, self.telemetry, self.lint,
                            self.group)).encode())
        for config in self.configs:
            digest.update(repr(sorted(config.items())).encode())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the spec; safe against a concurrent reader."""
        try:
            blob = pickle.dumps(self)
        except Exception as err:
            raise SpecError(
                f"sweep spec is not picklable (body and oracle must be "
                f"module-level): {err}") from err
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as err:
            raise SpecError(
                f"no sweep spec at {path} (nothing to resume): {err}"
                ) from err
        try:
            spec = pickle.loads(blob)
        except Exception as err:
            raise SpecError(
                f"undecodable sweep spec at {path}: {err}") from err
        if not isinstance(spec, cls):
            raise SpecError(
                f"{path} holds {type(spec).__name__}, not a SweepSpec")
        return spec
