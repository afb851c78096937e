"""RFC 6298, "Computing TCP's Retransmission Timer", as a pure model.

The sender keeps three state variables, SRTT, RTTVAR and RTO:

- (2.1) before any RTT measurement, RTO is 1 second;
- (2.2) the first measurement R sets SRTT <- R, RTTVAR <- R/2;
- (2.3) each later measurement R' sets, in this order,
  RTTVAR <- (1 - beta) * RTTVAR + beta * |SRTT - R'| and
  SRTT <- (1 - alpha) * SRTT + alpha * R', with alpha = 1/8, beta = 1/4;
- after (2.2) or (2.3), RTO <- SRTT + max(G, K * RTTVAR), K = 4, where
  G is the clock granularity;
- (2.4) an RTO below 1 second is rounded up to 1 second;
- (2.5) a maximum may be placed on RTO, provided it is at least 60 s;
- (5.5) when the retransmission timer expires, RTO <- RTO * 2 ("back
  off the timer"), bounded by that maximum;
- Karn (section 3): a measurement MUST NOT be taken from a segment that
  was retransmitted, so a backed-off RTO stands until a segment sent
  once is acknowledged, and only then collapses through (2.3).

:class:`Rto` is that state, each transition returning a new one.
:func:`check_backoff` compares the RTOs an implementation used at
consecutive timeouts -- what a trace of retransmissions carries -- with
(2.4), (2.5) and (5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

#: (2.3): the gains
ALPHA = 1 / 8
BETA = 1 / 4
#: (2.2), (2.3): the RTTVAR multiplier
K = 4
#: (2.1): RTO before the first measurement
INITIAL_RTO = 1.0
#: (2.4): the floor
MIN_RTO = 1.0
#: (2.5): the least maximum an implementation may place on RTO
MAX_RTO = 60.0

#: how far a float RTO may stray from the modelled one and still agree
EPS = 1e-9


@dataclass(frozen=True)
class Rto:
    """The sender's timer state: ``srtt`` / ``rttvar`` are ``None``
    until the first measurement; ``g`` is the clock granularity G."""

    rto: float = INITIAL_RTO
    srtt: Optional[float] = None
    rttvar: Optional[float] = None
    g: float = 0.0
    min_rto: float = MIN_RTO
    max_rto: float = MAX_RTO

    def __post_init__(self):
        if self.max_rto < MAX_RTO:
            raise ValueError(f"RFC 6298 (2.5): a maximum RTO must be at "
                             f"least {MAX_RTO:g} s, got {self.max_rto:g}")

    def measure(self, r: float, *, retransmitted: bool = False) -> "Rto":
        """The state after an ACK that yields RTT measurement ``r``; a
        segment that was ``retransmitted`` yields none (Karn)."""
        if retransmitted:
            return self
        if self.srtt is None:
            srtt, rttvar = r, r / 2
        else:
            rttvar = (1 - BETA) * self.rttvar + BETA * abs(self.srtt - r)
            srtt = (1 - ALPHA) * self.srtt + ALPHA * r
        rto = max(srtt + max(self.g, K * rttvar), self.min_rto)
        return replace(self, rto=min(rto, self.max_rto), srtt=srtt,
                       rttvar=rttvar)

    def timeout(self) -> "Rto":
        """The state after the retransmission timer expires (5.5)."""
        return replace(self, rto=min(self.rto * 2, self.max_rto))


class Disagreement(NamedTuple):
    """One RTO that RFC 6298 would not have used: the ``rule`` it
    breaks, at ``index`` into the checked chain."""

    index: int
    rule: str
    observed: float
    modelled: float


def check_backoff(rtos: Sequence[float], *,
                  max_rto: float = MAX_RTO) -> List[Disagreement]:
    """Check a chain of RTOs used at consecutive timeouts, with no
    valid RTT measurement between them (Karn keeps the backoff across
    an ambiguous ACK): each is at least 1 s (2.4) and at most
    ``max_rto`` (2.5), and each after the first is the one before it
    backed off (5.5).  Returns every disagreement, in chain order."""
    found = []
    state = None
    for index, rto in enumerate(rtos):
        if state is not None and abs(rto - state.rto) > EPS:
            found.append(Disagreement(index, "5.5", rto, state.rto))
        if rto < MIN_RTO - EPS:
            found.append(Disagreement(index, "2.4", rto, MIN_RTO))
        if rto > max_rto + EPS:
            found.append(Disagreement(index, "2.5", rto, max_rto))
        state = Rto(rto=rto, max_rto=max_rto).timeout()
    return found
