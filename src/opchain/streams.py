"""Indexed coefficient streams, read from index 1.

Recurrence data arrives as one of three kinds: a finite vector, whose
length is the stream's ``stop``, a closed-form rule of values, which may be
given a ``stop``, or a rule of reduced (numerator, denominator) pairs,
which has ``stop = None``.  Reading past a ``stop``, or below index 1,
raises StreamExhausted.
Every value read is on the exact type: a value vector is normalised when
the stream is built, a value rule's value when it is read, and a float in
either raises InvalidRationalLiteral.  The integer readers of the
recurrence (``_pair``) hand out a pair rule's pair and split ``self[n]``
of the other kinds; ``self[n]`` of a pair rule is ``Rat(*pair)``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import StreamExhausted
from .scalars import Rat, _is_exact, coerce_exact, exact_tuple


class CoeffStream:
    """A sequence c[1], c[2], ... backed by values, a rule, or a pair rule."""

    __slots__ = ("_values", "_fn", "_pairs", "stop")

    def __init__(self, *, values=None, fn=None, pairs=None):
        if [values, fn, pairs].count(None) != 2:
            raise ValueError("exactly one of values/fn/pairs required")
        if values is not None:
            values = exact_tuple(values)
        self._values = values
        self._fn = fn
        self._pairs = pairs
        self.stop = len(values) if values is not None else None

    @classmethod
    def from_values(cls, values: Sequence) -> "CoeffStream":
        return cls(values=values)

    @classmethod
    def from_fn(cls, fn: Callable[[int], object], stop: int | None = None) -> "CoeffStream":
        """Closed-form stream, ending at index ``stop`` if one is given; fn
        must be deterministic and side-effect free."""
        stream = cls(fn=fn)
        stream.stop = stop
        return stream

    @classmethod
    def from_pairs(cls, rule: Callable[[int], tuple[int, int]]) -> "CoeffStream":
        """Closed-form stream of reduced (numerator, denominator) pairs of
        Python ints, with a positive denominator; as ``from_fn`` otherwise."""
        return cls(pairs=rule)

    def __getitem__(self, n: int):
        if n < 1 or (self.stop is not None and n > self.stop):
            raise StreamExhausted(n, f"index {n} outside [1, {self.stop}]")
        if self._values is not None:
            return self._values[n - 1]
        if self._pairs is not None:
            return Rat(*self._pairs(n))
        v = self._fn(n)
        return v if _is_exact(v) else coerce_exact(v)

    def _pair(self, n: int) -> tuple[int, int]:
        """c[n] as (numerator, denominator) Python ints; raises as ``self[n]``."""
        if self._pairs is not None and n >= 1:
            return self._pairs(n)
        v = self[n]
        return v.numerator, v.denominator

    def window(self, lo: int, hi: int) -> list:
        """Values for indices lo..hi inclusive."""
        return [self[n] for n in range(lo, hi + 1)]

    def __repr__(self):
        kind = "values" if self._values is not None else "fn" if self._fn is not None else "pairs"
        return f"CoeffStream({kind}, stop={self.stop})"
