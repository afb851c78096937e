"""Per-configuration campaign telemetry.

``Campaign.run`` measures every configuration it executes -- wall-clock
seconds, dispatched scheduler events, final virtual time, trace size --
and attaches a :class:`RunTelemetry` to each
:class:`~repro.core.orchestrator.RunResult`.  The numbers answer the two
questions a sweep owner actually asks: *which configuration is slow* and
*how far below real time is the simulator running*
(``virtual_per_wall`` -- the paper's experiments cover hours of protocol
time; at a healthy ratio a 2-hour keep-alive run costs well under a
wall-clock second).

:func:`render_scorecard` turns a result list into the sweep table:
``print(render_scorecard(campaign.run(configs)))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple


@dataclass
class RunTelemetry:
    """Timing and volume figures for one executed configuration."""

    #: wall-clock seconds spent building the env and running the body
    wall_s: float
    #: scheduler events dispatched during the run
    events: int
    #: final virtual time of the run's scheduler
    virtual_s: float
    #: trace entries captured
    trace_entries: int

    @property
    def events_per_s(self) -> float:
        """Dispatched events per wall-clock second."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def virtual_per_wall(self) -> float:
        """Virtual seconds simulated per wall-clock second."""
        return self.virtual_s / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (benchmarks, exports, journal events)."""
        return {"wall_s": self.wall_s, "events": self.events,
                "virtual_s": self.virtual_s,
                "trace_entries": self.trace_entries,
                "events_per_s": self.events_per_s,
                "virtual_per_wall": self.virtual_per_wall}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunTelemetry":
        """Rehydrate from :meth:`as_dict` output (journal replay).

        The derived rates are recomputed from the stored base figures,
        so a replayed scorecard matches what the live run printed.
        """
        return cls(wall_s=float(payload.get("wall_s", 0.0)),
                   events=int(payload.get("events", 0)),
                   virtual_s=float(payload.get("virtual_s", 0.0)),
                   trace_entries=int(payload.get("trace_entries", 0)))


def _config_label(config: Dict[str, Any], width: int = 30) -> str:
    text = ", ".join(f"{k}={v}" for k, v in sorted(config.items())
                     if isinstance(v, (str, int, float, bool)))
    if len(text) > width:
        text = text[:width - 3] + "..."
    return text or "(config)"


def render_scorecard_rows(
        rows: Iterable[Tuple[str, Optional["RunTelemetry"]]]) -> str:
    """The scorecard table from pre-labelled ``(label, telemetry)`` rows.

    This is the formatting core shared by live campaigns
    (:func:`render_scorecard`) and journal replays
    (:mod:`repro.obs.campaign_report`), so a scorecard reproduced from a
    flight record is byte-identical to the one the live sweep printed.
    Rows with ``None`` telemetry show dashes; a totals row closes the
    table.
    """
    header = (f"{'config':<30} {'wall s':>9} {'events':>10} "
              f"{'virt s':>10} {'ev/s':>10} {'virt/wall':>10}")
    lines = [header, "-" * len(header)]
    total_wall = 0.0
    total_events = 0
    counted = 0
    for label, telemetry in rows:
        if telemetry is None:
            lines.append(f"{label:<30} {'-':>9} {'-':>10} {'-':>10} "
                         f"{'-':>10} {'-':>10}")
            continue
        counted += 1
        total_wall += telemetry.wall_s
        total_events += telemetry.events
        lines.append(
            f"{label:<30} {telemetry.wall_s:>9.4f} "
            f"{telemetry.events:>10} {telemetry.virtual_s:>10.1f} "
            f"{telemetry.events_per_s:>10.0f} "
            f"{telemetry.virtual_per_wall:>10.0f}")
    lines.append("-" * len(header))
    rate = total_events / total_wall if total_wall > 0 else 0.0
    lines.append(f"{counted} config(s)".ljust(30)
                 + f" {total_wall:>9.4f} {total_events:>10} {'':>10} "
                   f"{rate:>10.0f}")
    return "\n".join(lines)


def render_scorecard(results: Iterable[Any]) -> str:
    """The campaign scorecard: one row per configuration.

    ``results`` is a list of ``RunResult``; rows for results without
    telemetry (e.g. constructed by hand) show dashes.
    """
    return render_scorecard_rows(
        (_config_label(getattr(result, "config", {}) or {}),
         getattr(result, "telemetry", None))
        for result in results)
