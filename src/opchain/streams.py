"""Indexed coefficient streams, read from index 1.

Recurrence data arrives as one of two kinds: a finite vector of values,
whose length is the stream's ``stop``, or a closed-form rule of reduced
(numerator, denominator) pairs with a positive denominator, which may be
given a ``stop``.  Reading past a ``stop``, or below index 1, raises
StreamExhausted.  A vector is normalised onto the exact type when the
stream is built; the integer readers of the recurrence (``_pair``) split
its values, and ``self[n]`` of a pair rule is ``Rat(*pair)``.  ``from_fn``
adapts a rule of values, splitting each when it is read, so a float
raises InvalidRationalLiteral there.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import StreamExhausted
from .scalars import Rat, coerce_exact, exact_tuple


def _split(fn: Callable[[int], object]) -> Callable[[int], tuple[int, int]]:
    """The pair rule of a rule of values: the parts of fn(n) on the exact type."""
    return lambda n: coerce_exact(fn(n)).as_integer_ratio()


class CoeffStream:
    """A sequence c[1], c[2], ... backed by values or by a pair rule."""

    __slots__ = ("_values", "_pairs", "stop")

    def __init__(self, *, values=None, pairs=None, stop: int | None = None):
        if (values is None) == (pairs is None):
            raise ValueError("exactly one of values/pairs required")
        self._values = None if values is None else exact_tuple(values)
        self._pairs = pairs
        self.stop = stop if values is None else len(self._values)

    @classmethod
    def from_values(cls, values: Sequence) -> "CoeffStream":
        return cls(values=values)

    @classmethod
    def from_pairs(cls, rule: Callable[[int], tuple[int, int]],
                   stop: int | None = None) -> "CoeffStream":
        """Closed-form stream of reduced (numerator, denominator) pairs of
        Python ints, with a positive denominator, ending at index ``stop`` if
        one is given; ``rule`` must be deterministic and side-effect free."""
        return cls(pairs=rule, stop=stop)

    @classmethod
    def from_fn(cls, fn: Callable[[int], object], stop: int | None = None) -> "CoeffStream":
        """Closed-form stream of values: the pair rule of ``fn``'s values, as ``from_pairs``."""
        return cls(pairs=_split(fn), stop=stop)

    def __getitem__(self, n: int):
        if self._values is not None and 0 < n <= self.stop:
            return self._values[n - 1]
        return Rat(*self._pair(n))  # a pair rule's entry, or the fault of ``_pair``

    def _pair(self, n: int) -> tuple[int, int]:
        """c[n] as (numerator, denominator) Python ints; raises as ``self[n]``."""
        if n < 1 or (self.stop is not None and n > self.stop):
            raise StreamExhausted(n, f"index {n} outside [1, {self.stop}]")
        if self._pairs is not None:
            return self._pairs(n)
        v = self._values[n - 1]
        return v.numerator, v.denominator

    def window(self, lo: int, hi: int) -> list:
        """Values for indices lo..hi inclusive."""
        return [self[n] for n in range(lo, hi + 1)]

    def __repr__(self):
        return f"CoeffStream({'pairs' if self._values is None else 'values'}, stop={self.stop})"
