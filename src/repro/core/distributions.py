"""Probability distribution utilities for probabilistic fault injection.

The paper: "a set of procedures which allow the user to generate
probability distributions.  For example, a call such as
``dst_normal mean var`` will produce numbers with a normal distribution
around mean with variance var.  In this way, it is possible for the script
writer to perform actions on messages in a probabilistic manner."

:class:`DistributionSet` wraps a seeded PRNG and exposes the draw functions
under their paper-style names.  Each PFI layer owns one, derived
deterministically from the experiment seed and the node name, so runs are
reproducible while nodes stay decorrelated.
"""

from __future__ import annotations

import math
import random
from operator import mul
from typing import List, Sequence


class DistributionSet:
    """Seeded random draws for filter scripts.

    ``labels`` records the derivation path from the experiment seed (see
    :meth:`repro.core.orchestrator.ExperimentEnv.dist`) and ``draws``
    counts stream consumption; together they are what lets the
    checkpoint layer re-derive a forked world's streams under a new run
    seed -- and refuse to, once a stream has already been drawn from.

    The stream is a seed until it is drawn from: ``random.Random(seed)``
    is built on the first draw (or the first :attr:`rng` read), so a
    fork of a world whose streams never drew copies a seed, and a
    reseed stores one.
    """

    def __init__(self, seed: int = 0, *, labels: "tuple | None" = None):
        self._seed = seed
        self.labels = tuple(labels) if labels is not None else None
        self._rng: "random.Random | None" = None
        self.draws = 0

    @property
    def rng(self) -> random.Random:
        """The underlying PRNG (for APIs that want a random.Random).

        Draws made directly on it bypass the ``draws`` counter, so
        prefer the ``dst_*`` wrappers inside checkpointable rigs.
        """
        if self._rng is None:
            self._rng = random.Random(self._seed)
        return self._rng

    @property
    def seed(self) -> int:
        """The seed this stream was (re)built from."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Restart the stream from a new seed (checkpoint restore path)."""
        self._seed = seed
        self._rng = None
        self.draws = 0

    def dst_normal(self, mean: float, var: float) -> float:
        """Normal draw with the paper's (mean, variance) signature."""
        if var < 0:
            raise ValueError("variance must be non-negative")
        self.draws += 1
        return self.rng.gauss(mean, math.sqrt(var))

    def dst_uniform(self, low: float, high: float) -> float:
        """Uniform draw in [low, high]."""
        self.draws += 1
        return self.rng.uniform(low, high)

    def dst_exponential(self, rate: float) -> float:
        """Exponential draw with the given rate (lambda)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.draws += 1
        return self.rng.expovariate(rate)

    def dst_bernoulli(self, p: float) -> bool:
        """True with probability p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be within [0, 1], got {p}")
        self.draws += 1
        return self.rng.random() < p

    def chance(self, p: float) -> bool:
        """Alias of :meth:`dst_bernoulli` reading better in scripts."""
        return self.dst_bernoulli(p)

    def dst_geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials until the first success (>= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability must be within (0, 1], got {p}")
        count = 1
        self.draws += 1
        while self.rng.random() >= p:
            count += 1
            self.draws += 1
        return count

    def choice(self, items: Sequence):
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        self.draws += 1
        return self.rng.choice(items)

    def fork(self, label: str) -> "DistributionSet":
        """Derive an independent, deterministic child stream."""
        self.draws += 1
        return DistributionSet(hash((self.rng.random(), label)) & 0x7FFFFFFF)


_MULTIPLIER = 1000003
_MASK = 0xFFFFFFFF
#: ``_POWERS[k]`` is ``_MULTIPLIER ** k`` mod 2**32, grown on demand
_POWERS = [1]


def _powers(count: int) -> List[int]:
    """At least ``count`` entries of :data:`_POWERS`."""
    global _POWERS
    powers = _POWERS
    if len(powers) < count:
        powers = list(powers)
        while len(powers) < count:
            powers.append(powers[-1] * _MULTIPLIER & _MASK)
        _POWERS = powers
    return powers


def derive_seed(base_seed: int, *labels) -> int:
    """Stable seed derivation from a base seed and string/int labels.

    Folds each label's characters into the value as
    ``value = (value * 1000003 + ord(ch)) mod 2**32``, one character at
    a time.  That is a polynomial in the code points, so it is computed
    in one ``sum`` over a table of powers instead: the last character
    takes power 0, the first power ``len - 1``, and the value carried
    in is multiplied by power ``len``.
    """
    value = base_seed & _MASK
    for label in labels:
        text = str(label)[::-1]
        # an ASCII label's bytes are its code points
        codes = text.encode() if text.isascii() else map(ord, text)
        powers = _powers(len(text) + 1)
        value = (value * powers[len(text)]
                 + sum(map(mul, codes, powers))) & _MASK
    return value
