"""The exact scalar type.

Every value in this package is an arbitrary-precision rational ``p/q`` in
gcd-normalised form, so equality is meaningful and no tolerance ever enters
an algebraic test.  Float64 appears only in the spectra code of ``jacobi``;
a float handed to the exact code is rejected, never rounded.

The rational type is chosen once at import: ``gmpy2.mpq`` (GMP, compiled)
when available, otherwise the stdlib ``fractions.Fraction``.  Both are
normalised rationals with identical semantics.
"""

from __future__ import annotations

import re
from decimal import Decimal
from numbers import Rational

from .errors import InvalidRationalLiteral

try:
    from gmpy2 import mpq as _ratio
    RAT_BACKEND = "gmpy2"
except ImportError:
    from fractions import Fraction as _ratio
    RAT_BACKEND = "fractions"

#: Exact-rational constructor of the active implementation.
#: Accepts ints, 'p/q' strings, other rationals, or a (num, den) pair.
Rat = _ratio

ZERO = Rat(0)
ONE = Rat(1)

_LITERAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str):
    """Parse 'p/q' or an integer string into an exact rational.

    Zero denominators, anything outside the integer / ratio grammar
    (decimals, exponents, whitespace inside the token) and values that are
    not strings are rejected.
    """
    if not isinstance(text, str):
        raise InvalidRationalLiteral(f"not a rational literal: {text!r}")
    token = text.strip()
    if not _LITERAL.match(token):
        raise InvalidRationalLiteral(f"not a rational literal: {text!r}")
    try:
        return Rat(token)
    except ZeroDivisionError:
        raise InvalidRationalLiteral(f"zero denominator: {text!r}") from None
    except ValueError as exc:  # CPython's digit limit, its guard against quadratic parsing
        raise InvalidRationalLiteral(str(exc).partition(";")[0]) from None


def format_scalar(x) -> str:
    """Canonical string form: 'p/q', or 'p' for integers, at any length: past
    CPython's int-to-str digit limit through ``Decimal``, which has none
    (raising the limit would raise it for the whole process)."""
    try:
        return str(x)
    except ValueError:
        p, q = (str(Decimal(int(v))) for v in (x.numerator, x.denominator))
        return p if q == "1" else f"{p}/{q}"


# The integer type of the active rational's parts: int for Fraction, mpz for
# mpq.  A Fraction built from another integer type keeps it as its parts.
_INT = type(ONE.numerator)


def _is_exact(x) -> bool:
    """Whether x is of the exact type over the backend's own integers, so
    that a reader may take it without ``coerce_exact``."""
    return type(x) is Rat and type(x.numerator) is _INT and type(x.denominator) is _INT


def coerce_exact(x):
    """Normalise ints, rationals and 'p/q' strings onto the exact type.

    A rational of any ``numbers.Rational`` type comes back over Python ints:
    a fixed-width integer type (numpy's int64, say) would otherwise be kept
    as the numerator and wrap in later arithmetic.
    """
    if type(x) is int:
        return Rat(x)
    if isinstance(x, float):
        raise InvalidRationalLiteral(f"float {x!r} is not exact")
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, Rational):
        return Rat(int(x.numerator), int(x.denominator))
    return Rat(x)
