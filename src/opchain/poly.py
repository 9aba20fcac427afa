"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integers over one denominator, the canonical form
of FLINT's rational polynomials: ``nums`` is a tuple of integers ascending
by degree and ``den`` a positive integer, with ``gcd(den, *nums) == 1`` and
no trailing zero; the zero polynomial is ``((), 1)``.  So the form of a
value is unique and equality is a tuple comparison.  ``coeffs`` gives the
coefficients as exact rationals.  All values are immutable.  A float
coefficient or scale factor raises InvalidRationalLiteral.

The library builds polynomials only as results to print; the ring
operators are a plain reference for the tests, each reducing its integer
vector with ``_reduced``.  Results already in canonical form are wrapped as
they are (``_raw``), with the slots written through their descriptors,
which skips the generic attribute lookup of ``object.__setattr__``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .scalars import Rat, _is_exact, coerce_exact, exact_tuple, format_scalar


class Polynomial:
    """Immutable dense polynomial; degree is the index of the last nonzero."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence = ()):
        vals = exact_tuple(coeffs)
        # The lcm of reduced denominators is already coprime to the content.
        den = lcm(*(v.denominator for v in vals))
        nums = [v.numerator * (den // v.denominator) for v in vals]
        while nums and not nums[-1]:
            nums.pop()
        _set_nums(self, tuple(nums))
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, _):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, nums: tuple, den: int) -> "Polynomial":
        """Wrap a vector that is already in canonical form."""
        p = object.__new__(cls)
        _set_nums(p, nums)
        _set_den(p, den)
        return p

    @classmethod
    def _reduced(cls, nums: list, den: int) -> "Polynomial":
        """Canonical form of nums/den, for den > 0."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            return cls._raw((), 1)
        g = gcd(den, *nums)
        if g != 1:
            return cls._raw(tuple(n // g for n in nums), den // g)
        return cls._raw(tuple(nums), den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, as exact rationals."""
        return tuple(Rat(n, self.den) for n in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b, i):
                out[j] += x * y
        return Polynomial._reduced(out, self.den * other.den)

    def scale(self, c) -> "Polynomial":
        if not _is_exact(c):
            c = coerce_exact(c)
        return Polynomial._reduced([n * c.numerator for n in self.nums], self.den * c.denominator)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    # -- conversions ------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [format_scalar(c) for c in self.coeffs]}

    def __repr__(self):
        return f"Polynomial([{', '.join(format_scalar(c) for c in self.coeffs)}])"


# Writers of the slots, which bypass the raising __setattr__.
_set_nums = Polynomial.nums.__set__
_set_den = Polynomial.den.__set__


def _combine(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    """p + sign * q over the lcm of the two denominators."""
    den = lcm(p.den, q.den)
    ma, mb = den // p.den, sign * (den // q.den)
    out = [x * ma for x in p.nums] + [0] * (len(q.nums) - len(p.nums))
    for i, y in enumerate(q.nums):
        out[i] += y * mb
    return Polynomial._reduced(out, den)
