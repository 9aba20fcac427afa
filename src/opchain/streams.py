"""Indexed coefficient streams.

Recurrence data arrives either as a finite vector or as a closed-form rule
with an explicit validity range.  Every access is range-checked: reading
past a finite vector raises StreamExhausted, never silently extends.  A
value vector is normalised onto the exact type when the stream is built,
and a float in it raises InvalidRationalLiteral.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import StreamExhausted
from .scalars import Rat, coerce_exact


class CoeffStream:
    """A sequence c[start], c[start+1], ... backed by values or a rule."""

    __slots__ = ("_values", "_fn", "start", "stop")

    def __init__(self, *, values=None, fn=None, start: int = 1, stop: int | None = None):
        if (values is None) == (fn is None):
            raise ValueError("exactly one of values/fn required")
        if values is not None:
            values = tuple(v if type(v) is Rat else coerce_exact(v) for v in values)
        self._values = values
        self._fn = fn
        self.start = start
        self.stop = (start + len(self._values) - 1) if self._values is not None else stop

    @classmethod
    def from_values(cls, values: Sequence, start: int = 1) -> "CoeffStream":
        return cls(values=values, start=start)

    @classmethod
    def from_fn(cls, fn: Callable[[int], object], start: int = 1,
                stop: int | None = None) -> "CoeffStream":
        """Closed-form stream; fn must be deterministic and side-effect free."""
        return cls(fn=fn, start=start, stop=stop)

    def __getitem__(self, n: int):
        if n < self.start or (self.stop is not None and n > self.stop):
            raise StreamExhausted(n, f"index {n} outside [{self.start}, {self.stop}]")
        if self._values is not None:
            return self._values[n - self.start]
        return self._fn(n)

    def window(self, lo: int, hi: int) -> list:
        """Values for indices lo..hi inclusive."""
        return [self[n] for n in range(lo, hi + 1)]

    def is_finite(self) -> bool:
        return self.stop is not None

    def __repr__(self):
        kind = "values" if self._values is not None else "fn"
        return f"CoeffStream({kind}, start={self.start}, stop={self.stop})"
