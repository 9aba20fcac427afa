"""Indexed coefficient streams, read from index 1.

Recurrence data arrives in one format: a rule of reduced (numerator,
denominator) pairs of Python ints with a positive denominator, which may be
given a ``stop``.  Reading past a ``stop``, or below index 1, raises
StreamExhausted.  ``from_values`` normalises a finite vector onto the exact
type once, when the stream is built (a float raises InvalidRationalLiteral
there), and reads its pairs by index; its length is the stream's ``stop``.
The integer readers of the recurrence take the pairs (``_pair``), and
``self[n]`` is ``Rat(*pair)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import StreamExhausted
from .scalars import Rat, exact_tuple


class CoeffStream:
    """A sequence c[1], c[2], ... given by a rule of reduced pairs."""

    __slots__ = ("_pairs", "stop")

    def __init__(self, pairs: Callable[[int], tuple[int, int]], stop: int | None = None):
        self._pairs = pairs
        self.stop = stop

    @classmethod
    def from_values(cls, values: Sequence) -> "CoeffStream":
        pairs = tuple(v.as_integer_ratio() for v in exact_tuple(values))
        return cls(lambda n: pairs[n - 1], len(pairs))

    @classmethod
    def from_pairs(cls, rule: Callable[[int], tuple[int, int]],
                   stop: int | None = None) -> "CoeffStream":
        """Closed-form stream of reduced (numerator, denominator) pairs of
        Python ints, with a positive denominator, ending at index ``stop`` if
        one is given; ``rule`` must be deterministic and side-effect free."""
        return cls(rule, stop)

    def __getitem__(self, n: int):
        return Rat(*self._pair(n))

    def _pair(self, n: int) -> tuple[int, int]:
        """c[n] as (numerator, denominator) Python ints; raises as ``self[n]``."""
        if n < 1 or (self.stop is not None and n > self.stop):
            raise StreamExhausted(n, f"index {n} outside [1, {self.stop}]")
        return self._pairs(n)

    def window(self, lo: int, hi: int) -> list:
        """Values for indices lo..hi inclusive."""
        return [self[n] for n in range(lo, hi + 1)]

    def __repr__(self):
        return f"CoeffStream(stop={self.stop})"
