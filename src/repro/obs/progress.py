"""One shared live-progress renderer for every long-running engine.

``run_fuzz --progress``, ``Campaign.run(progress=)``, ``repro explore
--progress`` and ``repro tail`` all used to format their own status
lines; this module is the single formatter they now share, so a sweep
looks the same whether it is watched live or replayed from its journal.

The line shape is fixed::

    [fuzz gmp] 12/64 trials, 41.7 trials/s, eta 1s, coverage 58, findings 1, checkpoint hit-rate 83%

i.e. ``[label]``, progress (``done`` or ``done/total``), the rate, an
ETA when the total is known, then every extra stat in the order the
caller passed it.  Rates guard zero/negative elapsed time (a sweep
whose first event lands within clock resolution reports 0.0, never a
``ZeroDivisionError``), matching the
:class:`~repro.obs.telemetry.RunTelemetry` contract.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional


def rate_of(done: int, elapsed: float) -> float:
    """``done`` per second over ``elapsed``, 0.0 for degenerate clocks."""
    return done / elapsed if elapsed > 0 else 0.0


def _format_stat(key: str, value: Any) -> str:
    label = key.replace("_", " ")
    if isinstance(value, float):
        return f"{label} {value:.1f}"
    return f"{label} {value}"


def format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressRenderer:
    """Render uniform progress lines for a counted unit of work.

    ``sink`` is any ``line -> None`` callable (``print`` for live
    output); with ``sink=None`` the renderer only formats --
    :meth:`line` is still usable, which is how ``repro tail`` renders
    journal events without owning a clock.
    """

    def __init__(self, label: str, *, total: Optional[int] = None,
                 unit: str = "trials",
                 sink: Optional[Callable[[str], None]] = None,
                 clock: Callable[[], float] = perf_counter):
        self.label = label
        self.total = total
        self.unit = unit
        self.sink = sink
        self._clock = clock
        self._start = clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    def line(self, done: int, *, elapsed: Optional[float] = None,
             **stats: Any) -> str:
        """Format one progress line without emitting it.

        ``elapsed`` overrides the renderer's own clock -- journal
        replays pass the recorded event time so a tailed line matches
        what the live run printed.
        """
        if elapsed is None:
            elapsed = self.elapsed
        progress = (f"{done}/{self.total}" if self.total is not None
                    else f"{done}")
        rate = rate_of(done, elapsed)
        parts = [f"[{self.label}] {progress} {self.unit}",
                 f"{rate:.1f} {self.unit}/s"]
        if self.total is not None and rate > 0 and done < self.total:
            parts.append(f"eta {format_eta((self.total - done) / rate)}")
        parts.extend(_format_stat(key, value)
                     for key, value in stats.items() if value is not None)
        return ", ".join(parts)

    def emit(self, text: str) -> str:
        """Push one ready-made line to the sink (if any)."""
        if self.sink is not None:
            self.sink(text)
        return text

    def update(self, done: int, **stats: Any) -> str:
        """Format one progress line and :meth:`emit` it."""
        return self.emit(self.line(done, **stats))
