"""Indexed coefficient streams, read from index 1.

Recurrence data arrives either as a finite vector, whose length is the
stream's ``stop``, or as a closed-form rule with ``stop = None``.  Reading
past a finite vector raises StreamExhausted, never silently extends.  Every
value read is on the exact type: a value vector is normalised when the
stream is built, a rule's value when it is read, and a float in either
raises InvalidRationalLiteral.

A value vector is held once more as two tuples of Python ints, ``nums``
and ``dens``, so the integer readers of the recurrence (``_pair``) take
an entry without touching the rational; a rule's value is split when it
is read.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import StreamExhausted
from .scalars import _is_exact, coerce_exact


class CoeffStream:
    """A sequence c[1], c[2], ... backed by values or a rule."""

    __slots__ = ("_values", "nums", "dens", "_fn", "stop")

    def __init__(self, *, values=None, fn=None):
        if (values is None) == (fn is None):
            raise ValueError("exactly one of values/fn required")
        nums = dens = None
        if values is not None:
            values = tuple(v if _is_exact(v) else coerce_exact(v) for v in values)
            nums = tuple(v.numerator for v in values)
            dens = tuple(v.denominator for v in values)
        self._values = values
        self.nums = nums
        self.dens = dens
        self._fn = fn
        self.stop = len(values) if values is not None else None

    @classmethod
    def from_values(cls, values: Sequence) -> "CoeffStream":
        return cls(values=values)

    @classmethod
    def from_fn(cls, fn: Callable[[int], object]) -> "CoeffStream":
        """Closed-form stream; fn must be deterministic and side-effect free."""
        return cls(fn=fn)

    def __getitem__(self, n: int):
        if n < 1 or (self.stop is not None and n > self.stop):
            raise StreamExhausted(n, f"index {n} outside [1, {self.stop}]")
        if self._values is not None:
            return self._values[n - 1]
        v = self._fn(n)
        return v if _is_exact(v) else coerce_exact(v)

    def _pair(self, n: int) -> tuple[int, int]:
        """c[n] as (numerator, denominator) Python ints; raises as ``self[n]``."""
        if self.nums is not None and 0 < n <= self.stop:
            return self.nums[n - 1], self.dens[n - 1]
        v = self[n]  # a rule's value, or StreamExhausted
        return v.numerator, v.denominator

    def window(self, lo: int, hi: int) -> list:
        """Values for indices lo..hi inclusive."""
        return [self[n] for n in range(lo, hi + 1)]

    def __repr__(self):
        kind = "values" if self._values is not None else "fn"
        return f"CoeffStream({kind}, stop={self.stop})"
