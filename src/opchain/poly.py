"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by degree with no trailing zeros; the
zero polynomial has an empty coefficient tuple.  All values are immutable.
A float coefficient or evaluation point raises InvalidRationalLiteral.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidRationalLiteral, NonEvenPolynomial, NonOddPolynomial
from .scalars import ZERO, Rat, coerce_exact, format_scalar, parse_rational


class Polynomial:
    """Immutable dense polynomial; degree is the index of the last nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        vals = [c if type(c) is Rat else coerce_exact(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

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

    @classmethod
    def from_strings(cls, coeffs: Iterable[str]) -> "Polynomial":
        return cls([parse_rational(c) for c in coeffs])

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = coerce_exact(c)
        return Polynomial([c * a for a in self.coeffs])

    def __call__(self, x):
        """Horner evaluation at an exact point."""
        if isinstance(x, float):
            raise InvalidRationalLiteral(f"float {x!r} is not exact")
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- conversions ------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [format_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, doc: dict) -> "Polynomial":
        return cls.from_strings(doc["coeffs"])

    def __repr__(self):
        return f"Polynomial([{', '.join(format_scalar(c) for c in self.coeffs)}])"


def even_part(p: Polynomial) -> Polynomial:
    """Invert the square substitution: return q with q(x^2) = p(x).

    Requires every odd-degree coefficient of p to vanish.
    """
    for k in range(1, len(p.coeffs), 2):
        if p.coeffs[k] != 0:
            raise NonEvenPolynomial(f"nonzero coefficient at odd degree {k}")
    return Polynomial(p.coeffs[0::2])


def odd_part(p: Polynomial) -> Polynomial:
    """Return q with x * q(x^2) = p(x); every even-degree coefficient must vanish."""
    for k in range(0, len(p.coeffs), 2):
        if p.coeffs[k] != 0:
            raise NonOddPolynomial(f"nonzero coefficient at even degree {k}")
    return Polynomial(p.coeffs[1::2])


def substitute_square(p: Polynomial) -> Polynomial:
    """Return p(x^2)."""
    out = []
    for c in p.coeffs:
        out.append(c)
        out.append(ZERO)
    return Polynomial(out[:-1] if out else out)
