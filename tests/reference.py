"""Reference routes that the tests compare the library against.

None of these is reached by a command, a suite or the benchmark: each
restates a result the library computes another way, evaluates a printed
polynomial, or, as ``interlace_check`` does, judges the library's float
zeros at a margin, so it lives with the tests.  The file name keeps pytest
from collecting it.
"""

from dataclasses import dataclass

from opchain import (
    ChainSequence,
    GammaSeq,
    Polynomial,
    ThreeTermSystem,
    gamma_from_system,
    lu_factor,
    monic_sequence,
    truncate,
)
from opchain.errors import IndexedError, LengthMismatch, OpchainError
from opchain.scalars import ZERO, Rat, _is_exact, coerce_exact
from opchain.streams import CoeffStream
from opchain.systems import _order


class NonEvenPolynomial(OpchainError):
    """Polynomial has a nonzero odd-degree coefficient."""


class NonOddPolynomial(OpchainError):
    """Polynomial has a nonzero even-degree coefficient."""


class ZeroDenominator(IndexedError):
    """A denominator of a raw recurrence step or of a polynomial ratio vanished."""


class DegreeBeyondFamily(OpchainError):
    """A step outside a finite family's validity window."""


def evaluate(p: Polynomial, x):
    """Horner evaluation of p at an exact point, on numerators; x is
    coerced as ``Polynomial.scale`` coerces its factor."""
    if not _is_exact(x):
        x = coerce_exact(x)
    nums = p.nums
    if not nums:
        return ZERO
    num, q = x.numerator, x.denominator
    acc, qk = nums[-1], 1
    for n in reversed(nums[:-1]):
        qk *= q
        acc = acc * num + n * qk
    return Rat(acc, p.den * qk)


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


def swapped_nu(gamma: GammaSeq, N: int) -> CoeffStream:
    """Symmetric coefficients nu_1..nu_{2N} with adjacent pairs interchanged.

    nu_{2j} = gamma_{2j-1} and nu_{2j+1} = gamma_{2j+2}, so the stream
    (gamma_1, gamma_2, gamma_3, gamma_4, ...) is consumed as
    (gamma_2, gamma_1, gamma_4, gamma_3, ...).  A negative N is a ValueError.
    ``perturb.swap_split_check`` reads the same coefficients as integer pairs.
    """
    vals = []
    for n in range(1, 2 * _order(N) + 1):
        if n % 2 == 0:
            vals.append(gamma.at(n - 1))
        else:
            vals.append(gamma.at(n + 1))
    return CoeffStream.from_values(vals)


def rr_raw(p, n: int):
    """Raw recurrence pieces (A_n, B_n, C_n) of ``families.rr_system`` in the
    non-monic form N_{n+1} = (A_n x + B_n) N_n - C_n N_{n-1}."""
    d2n, d2n1, d2n2, dn1 = p - 2 * n, p - (2 * n + 1), p - (2 * n + 2), p - (n + 1)
    if 0 in (d2n, d2n1, d2n2, dn1):
        raise ZeroDenominator(n, f"vanishing factor at step n = {n}")
    A = d2n2 * d2n1 / dn1
    B = -p * d2n1 / (dn1 * d2n)
    C = n * d2n2 / (dn1 * d2n)
    return A, B, C


def monicize_step(A_n, B_n, C_n, A_prev):
    """Monic recurrence data from one step of (A_n x + B_n) N_n - C_n N_{n-1}:
    b_{n+1} = -B_n/A_n and a_n^2 = C_n/(A_n A_{n-1})."""
    if A_n == 0 or A_prev == 0:
        raise ZeroDenominator(0, "leading coefficient vanishes")
    return -B_n / A_n, C_n / (A_n * A_prev)


def rr_raw_step(p, n: int):
    """(b_{n+1}, a_n^2) of ``families.rr_system`` at step n >= 0 by the raw
    route (a_0^2 = 0), or the error that ends the family there: a vanishing
    factor, or a_n^2 <= 0."""
    A, B, C = rr_raw(p, n)
    if n == 0:
        return -B / A, ZERO
    b, a2 = monicize_step(A, B, C, rr_raw(p, n - 1)[0])
    if not a2 > 0:
        raise DegreeBeyondFamily(f"a_{n}^2 = {a2} is not positive")
    return b, a2


def chain_at_via_polynomials(sys: ThreeTermSystem, t, N: int) -> ChainSequence:
    """The d_n(t) of ``chains.chain_at`` through ratios of the monic polynomials at t.

    d_n(t) = P_n(t)/((t-b_n) P_{n-1}(t)) * [1 - P_{n+1}(t)/((t-b_{n+1}) P_n(t))];
    equality with ``chain_at`` is exact and serves as a cross-check of the
    recurrence itself, so it reads b_n and b_{n+1} on its own instead of
    sharing ``chain_at``'s block.
    """
    if _order(N) == 0:
        return ChainSequence.from_values([])
    P = monic_sequence(sys, N + 1)
    pvals = [evaluate(p, t) for p in P]
    vals = []
    for n in range(1, N + 1):
        tb_n, tb_n1 = t - sys.b_at(n), t - sys.b_at(n + 1)
        if pvals[n - 1] == 0 or pvals[n] == 0 or tb_n == 0 or tb_n1 == 0:
            raise ZeroDenominator(n, f"vanishing denominator at n = {n}")
        vals.append(pvals[n] / (tb_n * pvals[n - 1]) * (1 - pvals[n + 1] / (tb_n1 * pvals[n])))
    return ChainSequence.from_values(vals)


def darboux_pivot_check(sys: ThreeTermSystem, gamma1, n: int) -> bool:
    """Cross-check: LU pivots equal the even-indexed entries of the gamma
    recovery and the multipliers the odd-indexed ones (exact)."""
    g = gamma_from_system(sys, gamma1, n)
    f = lu_factor(truncate(sys, n), gamma1)
    return (all(f.u_diag[i - 1] == g.at(2 * i) for i in range(1, n + 1))
            and all(f.l_sub[i - 1] == g.at(2 * i + 1) for i in range(1, n)))


@dataclass(frozen=True)
class InterlaceVerdict:
    interlaced: bool
    witness: int | None = None


def interlace_check(xs, ys, tol: float) -> InterlaceVerdict:
    """Mutual separation of two ascending zero sets of equal length.

    Interlaced means the merged order alternates strictly, starting from
    either side; comparisons are strict at margin tol.  The witness is the
    first 1-based position where alternation fails.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"{len(xs)} vs {len(ys)} zeros")
    if not xs:
        return InterlaceVerdict(True)

    def less(a, b):
        return a + tol < b

    first, second = (xs, ys) if xs[0] < ys[0] else (ys, xs)
    # require first_1 < second_1 < first_2 < second_2 < ...
    for j in range(len(first)):
        if not less(first[j], second[j]):
            return InterlaceVerdict(False, j + 1)
        if j + 1 < len(first) and not less(second[j], first[j + 1]):
            return InterlaceVerdict(False, j + 1)
    return InterlaceVerdict(True)
