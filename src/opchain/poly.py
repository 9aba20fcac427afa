"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integers over one denominator, the canonical form
of FLINT's rational polynomials: ``nums`` is a tuple of integers ascending
by degree and ``den`` a positive integer, with ``gcd(den, *nums) == 1`` and
no trailing zero; the zero polynomial is ``((), 1)``.  So the form of a
value is unique and equality is a tuple comparison.  ``coeffs`` gives the
coefficients as exact rationals, built once on first use.  All values are
immutable.  A float coefficient or evaluation point raises
InvalidRationalLiteral.

Results already in canonical form are wrapped as they are (``_raw``), with
the slots written through their descriptors, which skips the generic
attribute lookup of ``object.__setattr__``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .errors import NonEvenPolynomial, NonOddPolynomial
from .scalars import ZERO, Rat, _is_exact, coerce_exact, format_scalar


class Polynomial:
    """Immutable dense polynomial; degree is the index of the last nonzero."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Sequence = ()):
        vals = [c if _is_exact(c) else coerce_exact(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        # The lcm of reduced denominators is already coprime to the content.
        dens = [v.denominator for v in vals]
        den = lcm(*dens) if vals else 1
        _set_nums(self, tuple(v.numerator * (den // d) for v, d in zip(vals, dens)))
        _set_den(self, den)
        _set_coeffs(self, tuple(vals))

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
        _set_coeffs(p, None)
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

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients ascending by degree, as exact rationals."""
        c = self._coeffs
        if c is None:
            d = self.den
            c = tuple(Rat(n, d) for n in self.nums) if d != 1 else tuple(map(Rat, self.nums))
            _set_coeffs(self, c)
        return c

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

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _combine(self, other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        if not a or not b:
            return Polynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        den = self.den * other.den
        # Gauss's lemma: the content of a product is the product of the
        # contents, so with one factor a primitive integer polynomial the
        # product keeps the other's coprime content and denominator.
        if (self.den == 1 and gcd(*a) == 1) or (other.den == 1 and gcd(*b) == 1):
            return Polynomial._raw(tuple(out), den)
        return Polynomial._reduced(out, den)

    def scale(self, c) -> "Polynomial":
        if not _is_exact(c):
            c = coerce_exact(c)
        p, q = c.numerator, c.denominator
        if not p or not self.nums:
            return Polynomial.zero()
        # p/q and nums/den are both reduced, so gcd(p, den) * gcd(q, nums)
        # is the whole common factor of the product.
        gp, gq = gcd(p, self.den), gcd(q, *self.nums)
        p, q = p // gp, q // gq
        return Polynomial._raw(tuple(n // gq * p for n in self.nums), self.den // gp * q)

    def __call__(self, x):
        """Horner evaluation at an exact point, on numerators."""
        if not _is_exact(x):
            x = coerce_exact(x)
        nums = self.nums
        if not nums:
            return ZERO
        p, q = x.numerator, x.denominator
        acc, qk = nums[-1], 1
        for n in reversed(nums[:-1]):
            qk *= q
            acc = acc * p + n * qk
        return Rat(acc, self.den * qk)

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
_set_coeffs = Polynomial._coeffs.__set__


def _combine(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    """p + sign * q over the lcm of the two denominators."""
    a, b, da, db = p.nums, q.nums, p.den, q.den
    if da == db:
        ma = mb = 1
        den = da
    else:
        den = lcm(da, db)
        ma, mb = den // da, den // db
    mb *= sign
    out = [x * ma for x in a] if ma != 1 else list(a)
    out += [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y * mb
    return Polynomial._reduced(out, den)


def even_part(p: Polynomial) -> Polynomial:
    """Invert the square substitution: return q with q(x^2) = p(x).

    Requires every odd-degree coefficient of p to vanish.
    """
    for k in range(1, len(p.nums), 2):
        if p.nums[k]:
            raise NonEvenPolynomial(f"nonzero coefficient at odd degree {k}")
    return Polynomial._raw(p.nums[0::2], p.den)


def odd_part(p: Polynomial) -> Polynomial:
    """Return q with x * q(x^2) = p(x); every even-degree coefficient must vanish."""
    for k in range(0, len(p.nums), 2):
        if p.nums[k]:
            raise NonOddPolynomial(f"nonzero coefficient at even degree {k}")
    return Polynomial._raw(p.nums[1::2], p.den)


def substitute_square(p: Polynomial) -> Polynomial:
    """Return p(x^2)."""
    out = [0] * (2 * len(p.nums) - 1) if p.nums else []
    out[0::2] = p.nums
    return Polynomial._raw(tuple(out), p.den)
