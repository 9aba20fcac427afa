"""The exact scalar type.

Every value in this package is an arbitrary-precision rational ``p/q`` in
gcd-normalised form, so equality is meaningful and no tolerance ever enters
an algebraic test.  Float64 appears only in the spectra code of ``jacobi``
and in the CLI's ``--float`` view of printed values; a float handed to the
exact code is rejected, never rounded.

The rational type is the stdlib ``fractions.Fraction``.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction as Rat
from numbers import Rational

from .errors import InvalidRationalLiteral

#: Name of the rational type, recorded with benchmark runs.
RAT_BACKEND = "fractions"

ZERO = Rat(0)

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
    except ValueError:  # CPython's digit limit, whose own text differs between versions
        raise InvalidRationalLiteral(f"literal exceeds the limit ({sys.get_int_max_str_digits()} "
                                     "digits) for integer string conversion") from None


def format_scalar(x) -> str:
    """Canonical string form: 'p/q', or 'p' for integers, at any length: past
    CPython's int-to-str digit limit through ``Decimal``, which has none
    (raising the limit would raise it for the whole process)."""
    try:
        return str(x)
    except ValueError:
        p, q = (str(Decimal(int(v))) for v in (x.numerator, x.denominator))
        return p if q == "1" else f"{p}/{q}"


def _is_exact(x) -> bool:
    """Whether x is of the exact type over Python ints, so that a reader may
    take it without ``coerce_exact``.  A Fraction built from another integer
    type keeps it as its parts."""
    return type(x) is Rat and type(x.numerator) is int and type(x.denominator) is int


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


def exact_tuple(values) -> tuple:
    """The values on the exact type, each as ``coerce_exact`` gives it; a
    value that ``_is_exact`` accepts is kept as it is."""
    return tuple(v if _is_exact(v) else coerce_exact(v) for v in values)
