"""Three-term recurrence systems and the quantities they generate.

A monic orthogonal family P_n obeys

    P_{n+1}(x) = (x - b_{n+1}) P_n(x) - a_n^2 P_{n-1}(x),   n >= 0,

with P_{-1} = 0, P_0 = 1.  The numerators of the associated continued
fraction obey the same recurrence with z_0 = 0, z_1 = 1.  Symmetric
families obey S_n(x) = x S_{n-1}(x) - nu_n S_{n-2}(x).  All of them, and
the unified recurrence of ``perturb``, run through one kernel.

Moments come from a walk over the truncated monic Jacobi matrix and the
continued-fraction convergents are expanded at infinity, so every quantity
here is exact and needs no measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeViolation, NonPositiveA2
from .poly import Polynomial
from .scalars import ONE, ZERO
from .streams import CoeffStream


@dataclass(frozen=True, eq=False)
class ThreeTermSystem:
    """Streams b[n] (n>=1) and a2[n] (n>=1) of a monic three-term recurrence.

    ``validate_a2`` guards the positive-definite case: accesses to a2 raise
    NonPositiveA2 on entries <= 0.  Constructors of deliberately degenerate
    systems switch it off, which is what ``degenerate`` reports.
    """

    b: CoeffStream
    a2: CoeffStream
    validate_a2: bool = True

    @property
    def degenerate(self) -> bool:
        return not self.validate_a2

    def b_at(self, n: int):
        return self.b[n]

    def a2_at(self, n: int):
        v = self.a2[n]
        if self.validate_a2 and not v > 0:
            raise NonPositiveA2(n, f"a2[{n}] = {v} is not positive")
        return v

    @classmethod
    def from_values(cls, b, a2, **kw) -> "ThreeTermSystem":
        return cls(CoeffStream.from_values(b), CoeffStream.from_values(a2), **kw)


@dataclass(frozen=True, eq=False)
class SymmetricSystem:
    """Stream nu[n] (n>=1) for S_n = x S_{n-1} - nu_n S_{n-2}.

    nu_1 multiplies S_{-1} = 0 and is therefore arbitrary; positivity of the
    rest is what verification routines check, not a construction invariant.
    """

    nu: CoeffStream

    @classmethod
    def from_values(cls, nu) -> "SymmetricSystem":
        return cls(CoeffStream.from_values(nu))


@dataclass(frozen=True)
class LaurentSeries:
    """Coefficients of x^-1, x^-2, ... up to an explicitly recorded order."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs)


def systems_agree(s: ThreeTermSystem, t: ThreeTermSystem, n: int) -> bool:
    """Coefficientwise equality of b[1..n] and a2[1..n-1] (exact)."""
    return (all(s.b_at(k) == t.b_at(k) for k in range(1, n + 1))
            and all(s.a2_at(k) == t.a2_at(k) for k in range(1, n)))


# -- polynomial evaluation ---------------------------------------------------


def _recurrence(ks: range, step) -> list[Polynomial]:
    """Polynomials of P_k = (x - d_k) P_{k-1} - s_k P_{k-2} for k in ``ks``.

    The two polynomials before the first step are 0 and 1.  ``step(k)``
    returns (d_k, s_k) and reads d_k first; s_k is None where the P_{k-2}
    term is skipped.  The work is done on coefficient lists and one
    Polynomial is built per degree.
    """
    prev, cur = [], [ONE]
    out = []
    for k in ks:
        d, s = step(k)
        nxt = [ZERO] + cur  # x * P_{k-1}
        if d:
            for i, c in enumerate(cur):
                nxt[i] -= d * c
        if s is not None:
            for i, c in enumerate(prev):
                nxt[i] -= s * c
        prev, cur = cur, nxt
        out.append(Polynomial(cur))
    return out


def monic_sequence(sys: ThreeTermSystem, n: int) -> list[Polynomial]:
    """P_0 .. P_n of the monic recurrence."""
    return [Polynomial.one()] + _recurrence(
        range(1, n + 1), lambda k: (sys.b_at(k), sys.a2_at(k - 1) if k >= 2 else None))


def monic_eval(sys: ThreeTermSystem, n: int) -> Polynomial:
    """The monic degree-n polynomial P_n."""
    return monic_sequence(sys, n)[n]


def associated_sequence(sys: ThreeTermSystem, n: int) -> list[Polynomial]:
    """z_0 .. z_n with z_0 = 0, z_1 = 1 under the same recurrence.

    z_n is monic of degree n-1 for n >= 1; these are the continued-fraction
    numerators belonging to the denominators P_n.
    """
    if n == 0:
        return [Polynomial.zero()]
    return [Polynomial.zero(), Polynomial.one()] + _recurrence(
        range(2, n + 1), lambda k: (sys.b_at(k), sys.a2_at(k - 1)))


def associated_eval(sys: ThreeTermSystem, n: int) -> Polynomial:
    return associated_sequence(sys, n)[n]


def symmetric_sequence(sym: SymmetricSystem, n: int) -> list[Polynomial]:
    """S_0 .. S_n with S_{-1} = 0, S_0 = 1."""
    return [Polynomial.one()] + _recurrence(range(1, n + 1), lambda k: (0, sym.nu[k]))


def symmetric_eval(sym: SymmetricSystem, n: int) -> Polynomial:
    return symmetric_sequence(sym, n)[n]


# -- moments ------------------------------------------------------------------


def moments(sys: ThreeTermSystem, k: int):
    """Normalised moment mu_k / mu_0, exact.

    The (1,1) entry of J^k for the truncated monic Jacobi matrix of size
    ceil(k/2)+1: a closed walk of length k from row 1 never leaves the
    leading ceil(k/2)+1 block, so the truncation is lossless.  The row
    vector e_1^T is walked k times over J, with b on the diagonal, 1 above
    it and a2 below it.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    size = (k + 1) // 2 + 1
    diag = [sys.b_at(i) for i in range(1, size + 1)]
    sub = [sys.a2_at(i) for i in range(1, size)]
    row = [ONE] + [ZERO] * (size - 1)
    for _ in range(k):
        row = [(row[j - 1] if j else ZERO) + row[j] * diag[j]
               + (row[j + 1] * sub[j] if j + 1 < size else ZERO)
               for j in range(size)]
    return row[0]


# -- continued-fraction convergents -------------------------------------------


def convergent(sys: ThreeTermSystem, n: int) -> tuple[Polynomial, Polynomial]:
    """The n-th convergent (numerator, denominator) = (z_n, P_n)."""
    num = associated_eval(sys, n)
    den = monic_eval(sys, n)
    return num, den


def laurent_expand(num: Polynomial, den: Polynomial, order: int) -> LaurentSeries:
    """First ``order`` coefficients of num/den expanded at infinity.

    Requires deg num < deg den and den monic, so the expansion starts at
    x^-1.  Long division is done in the variable u = 1/x.
    """
    if den.is_zero() or not den.is_monic():
        raise DegreeViolation("denominator must be monic")
    if not num.is_zero() and num.degree >= den.degree:
        raise DegreeViolation("numerator degree must be below denominator degree")
    gap = den.degree - (num.degree if not num.is_zero() else den.degree)
    # reversed coefficient lists: n_rev(u) with num(x) = x^deg(num) * n_rev(1/x)
    n_rev = list(reversed(num.coeffs))
    d_rev = list(reversed(den.coeffs))
    # power-series division n_rev/d_rev in u; d_rev[0] == 1 since den is monic
    series = []
    for j in range(order):
        acc = n_rev[j] if j < len(n_rev) else ZERO
        for i in range(1, min(j, len(d_rev) - 1) + 1):
            acc = acc - d_rev[i] * series[j - i]
        series.append(acc)
    # num/den = sum_j series[j] * x^-(j + gap); gap >= 1
    out = [ZERO] * order
    for j in range(order):
        k = j + gap
        if 1 <= k <= order:
            out[k - 1] = series[j]
    return LaurentSeries(tuple(out))
