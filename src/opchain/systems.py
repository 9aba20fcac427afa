"""Three-term recurrence systems and the quantities they generate.

A monic orthogonal family P_n obeys

    P_{n+1}(x) = (x - b_{n+1}) P_n(x) - a_n^2 P_{n-1}(x),   n >= 0,

with P_{-1} = 0, P_0 = 1.  The numerators of the associated continued
fraction obey the same recurrence with z_0 = 0, z_1 = 1.  Symmetric
families obey S_n(x) = x S_{n-1}(x) - nu_n S_{n-2}(x).  All of them, and
the unified recurrence of ``perturb``, run through one kernel over a block
(diagonal, subdiagonal) of a monic Jacobi matrix.

``ThreeTermSystem.block(n)`` is the one reader of the order-n block:
b_1..b_n first, then the validated a_1^2..a_{n-1}^2.  The polynomials, the
moments, the truncated matrix, the spectra and the chain sequence at t are
all read off it.  Moments come from a walk over that block and the
continued-fraction convergents are expanded at infinity, so every quantity
here is exact and needs no measure.

The kernel, the moment walk and the Laurent division run on integers over
a common denominator, as ``Polynomial`` stores its coefficients.  The
kernel forms no product with an absent entry of P_{k-2}, with the monic
leading entry or with a zero diagonal entry, and the walk computes no row
a closed walk cannot reach.  The kernel and the walk take their entries
as (numerator, denominator) pairs of Python ints from ``_pair_readers``,
which validates a2 over the unchecked readers a system supplies
(``_raw_pair_readers``): a value stream hands out its stored integers, a
rule's value is split on read, and a gamma row evaluates its pair
formulas (``chains._gamma_system``).  The Laurent division keeps its past
terms over one running denominator, so the integers stay at the height of
the answer.

Where only one polynomial, or one yes/no per identity, is read, the
recurrence runs instead on one integer per degree, its value at x = 2^B
(``_Evaluation``): ``convergent`` unpacks the top one, and
``_relations_hold`` decides the split and kernel identities of ``perturb``
and ``chains`` exactly, with 2^B past the height of every difference.
``_recurrence`` stays the producer of whole sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd, lcm

from .errors import DegreeViolation, NonPositiveA2
from .poly import Polynomial
from .scalars import ZERO, Rat
from .streams import CoeffStream


def _order(n: int) -> int:
    """``n`` if it is a valid order (n >= 0); a negative order is a ValueError."""
    if n < 0:
        raise ValueError(f"order n = {n} must be >= 0")
    return n


@dataclass(frozen=True, eq=False)
class ThreeTermSystem:
    """Streams b[n] (n>=1) and a2[n] (n>=1) of a monic three-term recurrence.

    Reads of a2 through ``a2_at``, and so every ``block``, raise
    NonPositiveA2 on an entry <= 0: such a recurrence defines no
    positive-definite orthogonal family.
    """

    b: CoeffStream
    a2: CoeffStream

    def b_at(self, n: int):
        return self.b[n]

    def a2_at(self, n: int):
        v = self.a2[n]
        if v.numerator <= 0:  # denominators are positive
            raise NonPositiveA2(n, f"a2[{n}] = {v} is not positive")
        return v

    def block(self, n: int) -> tuple[list, list]:
        """Order-n monic Jacobi block: (b_1..b_n, then validated a_1^2..a_{n-1}^2).

        n = 0 is the empty block; a negative n raises ValueError.
        """
        _order(n)
        return self.b.window(1, n), [self.a2_at(k) for k in range(1, n)]

    def _raw_pair_readers(self, n: int):
        """Readers (b, a2) of the entries of the order-n block as
        (numerator, denominator) pairs of Python ints, a2 unchecked."""
        return self.b._pair, self.a2._pair

    def _pair_readers(self, n: int):
        """``_raw_pair_readers`` with a2 validated: b(m) as ``b_at(m)`` and
        a2(m) as ``a2_at(m)``, for m in the order-n block, with the same errors."""
        b, read = self._raw_pair_readers(n)

        def a2(m: int):
            p, q = read(m)
            if p <= 0:  # denominators are positive
                raise NonPositiveA2(m, f"a2[{m}] = {Rat(p, q)} is not positive")
            return p, q

        return b, a2

    def _block_pairs(self, n: int) -> tuple[list, list]:
        """``block(n)`` as (numerator, denominator) pairs, read in its order."""
        _order(n)
        b, a2 = self._pair_readers(n)
        diag = [b(m) for m in range(1, n + 1)]
        return diag, [a2(m) for m in range(1, n)]

    @classmethod
    def from_values(cls, b, a2) -> "ThreeTermSystem":
        return cls(CoeffStream.from_values(b), CoeffStream.from_values(a2))


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
    return s.block(n) == t.block(n)


# -- polynomial evaluation ---------------------------------------------------


def _pairs(values) -> list:
    """(numerator, denominator) of each rational, as Python ints.

    The values come unchecked from the caller of ``perturb.unified_sequence``,
    so ``int`` keeps any other integer type a Fraction may carry out of the
    kernel: a fixed-width type such as numpy's int64 would wrap in the
    products of the recurrence.
    """
    return [(int(v.numerator), int(v.denominator)) for v in values]


def _recurrence(diag, sub) -> list[Polynomial]:
    """P_1..P_m of P_k = (x - d_k) P_{k-1} - s_{k-1} P_{k-2} over the block
    ``diag`` = d_1..d_m, ``sub`` = s_1..s_{m-1}, given as (numerator,
    denominator) pairs.

    Before P_1 come 0 and 1, and s_0 = 0 multiplies the 0.  Each step runs
    on integer vectors over the lcm of the denominators of its three terms,
    with one gcd reduction per degree.

    No product is formed that the shape of the recurrence makes zero.  Every
    P_k is monic and P_{k-2} is one entry shorter than P_{k-1}, so only the
    entries below the top two take all three terms; the next one has no
    P_{k-2} term, and the leading one is den itself.  A zero diagonal entry,
    as at every step of ``symmetric_sequence``, drops the d_k term.
    """
    prev, pden, cur, cden = (), 1, (1,), 1
    out = []
    for (dn, dd), (sn, sd) in zip(diag, ((0, 1), *sub)):
        # P_k = (mx x P_{k-1} - md P_{k-1} - ms P_{k-2}) / den on numerators
        sd *= pden
        den = lcm(cden * dd, sd)
        ms = sn * (den // sd)
        mx = den // cden
        up = (0, *cur)  # x P_{k-1}
        if dn:
            md = dn * (mx // dd)
            nxt = [mx * u - md * v - ms * w for u, v, w in zip(up, cur, prev)]
            nxt.append(mx * up[-2] - md * cden)  # cur[-1] == cden: P_{k-1} is monic
        else:
            nxt = [mx * u - ms * w for u, w in zip(up, prev)]
            nxt.append(mx * up[-2])
        nxt.append(den)  # mx * cden, the monic leading term
        g = gcd(*nxt)
        if g != 1:
            nxt = [c // g for c in nxt]
            den //= g
        prev, pden, cur, cden = cur, cden, tuple(nxt), den
        out.append(Polynomial._raw(cur, den))
    return out


def monic_sequence(sys: ThreeTermSystem, n: int) -> list[Polynomial]:
    """P_0 .. P_n of the monic recurrence."""
    return [Polynomial.one()] + _recurrence(*sys._block_pairs(n))


def _associated_block(sys: ThreeTermSystem, n: int) -> tuple[list, list]:
    """The block (b_2..b_n, a_2^2..a_{n-1}^2) of z_2..z_n, as pairs, for n >= 1.

    a_1^2 only meets z_0 = 0 but is validated right after b_2: gamma-derived,
    it reads a gamma b_2..b_n never read.
    """
    b, a2 = sys._pair_readers(n)
    diag = []
    if n >= 2:
        diag.append(b(2))
        a2(1)
    diag += [b(m) for m in range(3, n + 1)]
    return diag, [a2(m) for m in range(2, n)]


def associated_sequence(sys: ThreeTermSystem, n: int) -> list[Polynomial]:
    """z_0 .. z_n with z_0 = 0, z_1 = 1 under the same recurrence.

    z_n is monic of degree n-1 for n >= 1; these are the continued-fraction
    numerators belonging to the denominators P_n.
    """
    if _order(n) == 0:
        return [Polynomial.zero()]
    return [Polynomial.zero(), Polynomial.one()] + _recurrence(*_associated_block(sys, n))


def symmetric_sequence(sym: SymmetricSystem, n: int) -> list[Polynomial]:
    """S_0 .. S_n with S_{-1} = 0, S_0 = 1."""
    nu = [sym.nu._pair(k) for k in range(1, _order(n) + 1)]
    return [Polynomial.one()] + _recurrence([(0, 1)] * n, nu[1:])


def _steps(diag, sub):
    """The steps (1, d_k, s_{k-1}) of ``_recurrence`` over a block, for
    ``_Evaluation``."""
    return zip(repeat(1), diag, ((0, 1), *sub))


class _Evaluation:
    """P_0..P_m of P_k = (e_k x - d_k) P_{k-1} - s_{k-1} P_{k-2}, e_k in
    {0, 1}, as values at x = 2^B, for the ``steps`` (e_k, d_k, s_{k-1}) of
    (numerator, denominator) pairs.  ``_steps`` gives those of a monic block.

    One scalar pass finds, per step, the multipliers (mx, md, ms) of
    ``_recurrence``, with den_k, the lcm of den_{k-1} times the denominator
    of d_k and den_{k-2} times that of s_{k-1}, left unreduced:
    P_k = N_k / den_k with N_k = (mx x - md) N_{k-1} - ms N_{k-2}.  It also
    bounds the coefficients of N_k by M_k = (mx + |md|) M_{k-1} + |ms| M_{k-2}.
    ``at(B)`` then runs the recurrence on the one integer N_k(2^B) per
    degree.  A nonzero integer polynomial whose coefficients are at most H
    in absolute value has no root T > H (its top term outweighs the rest),
    so two such values decide an identity exactly once 2^B exceeds the
    height of the difference (``_relations_hold``), and with 2^(B-1) > M_k
    the value N_k(2^B) holds the coefficients of N_k as its balanced
    base-2^B digits (``top``).
    """

    __slots__ = ("mults", "dens", "bounds")

    def __init__(self, steps):
        pden = cden = 1
        pm, cm = 0, 1
        mults, dens, bounds = [], [1], [1]
        for e, (dn, dd), (sn, sd) in steps:
            sd *= pden
            den = lcm(cden * dd, sd)
            ms = sn * (den // sd)
            mx = den // cden
            md = dn * (mx // dd)
            if not e:
                mx = 0
            pm, cm = cm, (mx + abs(md)) * cm + abs(ms) * pm
            pden, cden = cden, den
            mults.append((mx, md, ms))
            dens.append(den)
            bounds.append(cm)
        self.mults, self.dens, self.bounds = mults, dens, bounds

    def at(self, B: int) -> list[int]:
        """N_0(2^B)..N_m(2^B)."""
        prev, cur = 0, 1
        out = [1]
        for mx, md, ms in self.mults:
            prev, cur = cur, ((mx * cur) << B) - md * cur - ms * prev
            out.append(cur)
        return out

    def top(self) -> Polynomial:
        """P_m, unpacked from N_m(2^B) with 2^(B-1) > M_m, and reduced once."""
        B = self.bounds[-1].bit_length() + 1
        v, mask, half = self.at(B)[-1], (1 << B) - 1, 1 << (B - 1)
        nums = []
        while v:
            c = v & mask
            if c >= half:
                c -= mask + 1
            nums.append(c)
            v = (v - c) >> B
        return Polynomial._reduced(nums, self.dens[-1])


def _relations_hold(relations) -> list[bool]:
    """Whether each relation sum c x^s F_k = 0 holds exactly.

    A relation is a list of terms (c, s, F, k): a rational c as a
    (numerator, denominator) pair, a shift s >= 0 and the k-th polynomial
    of the ``_Evaluation`` F.  Each relation is taken on integers over the
    lcm L of its denominators, where the term weighs w = c L / den_k and
    the difference has height at most H = sum |w| M_k.  Every F is
    evaluated once, at one 2^B above every H, and a relation holds iff its
    integer sum w 2^(sB) N_k(2^B) is 0.
    """
    weighed, B = [], 1
    for terms in relations:
        dens = [q * F.dens[k] for (_, q), _, F, k in terms]
        L = lcm(*dens)
        ws, H = [], 0
        for ((p, _), s, F, k), d in zip(terms, dens):
            w = p * (L // d)
            H += abs(w) * F.bounds[k]
            ws.append((w, s, F, k))
        B = max(B, H.bit_length())
        weighed.append(ws)
    values = {}
    held = []
    for ws in weighed:
        total = 0
        for w, s, F, k in ws:
            X = values.get(F)
            if X is None:
                X = values[F] = F.at(B)
            total += (w * X[k]) << (s * B)
        held.append(not total)
    return held


# -- moments ------------------------------------------------------------------


def moments(sys: ThreeTermSystem, k: int):
    """Normalised moment mu_k / mu_0, exact.

    The (1,1) entry of J^k for the truncated monic Jacobi matrix of size
    ceil(k/2)+1: a closed walk of length k from row 1 never leaves the
    leading ceil(k/2)+1 block, so the truncation is lossless.  The row
    vector e_1^T is walked k times over L*J, with b on the diagonal, 1 above
    it and a2 below it, where L is the lcm of the denominators of b and a2;
    the moment is the first entry over L^k.

    Only the band of rows a closed walk can use is computed: after step t
    (t = 0..k-1) the walk is at most t + 1 rows below row 1, and a row j
    further than k - t - 1 below it cannot climb back in the steps left, so
    step t computes rows 0..min(t + 1, k - t - 1, size - 1) of the vector.
    """
    if k < 0:
        raise ValueError("moment order must be >= 0")
    size = (k + 1) // 2 + 1
    diag, sub = sys._block_pairs(size)
    L = lcm(*[q for _, q in diag + sub])
    diag = [p * (L // q) for p, q in diag]
    sub = [p * (L // q) for p, q in sub] + [0]
    row = [1]
    for t in range(k):
        r = [0, *row, 0, 0]
        row = [r[j] * L + r[j + 1] * diag[j] + r[j + 2] * sub[j]
               for j in range(min(t + 1, k - t - 1, size - 1) + 1)]
    return Rat(row[0], L ** k)


# -- continued-fraction convergents -------------------------------------------


def convergent(sys: ThreeTermSystem, n: int) -> tuple[Polynomial, Polynomial]:
    """The n-th convergent (numerator, denominator) = (z_n, P_n).

    Each is read off one evaluation of its recurrence at the top degree
    (``_Evaluation.top``), with the reads and errors of
    ``associated_sequence(sys, n)`` and then ``monic_sequence(sys, n)``.
    """
    num = (Polynomial.zero() if _order(n) == 0
           else _Evaluation(_steps(*_associated_block(sys, n))).top())
    return num, _Evaluation(_steps(*sys._block_pairs(n))).top()


def laurent_expand(num: Polynomial, den: Polynomial, order: int) -> LaurentSeries:
    """First ``order`` coefficients of num/den expanded at infinity.

    Requires deg num < deg den and den monic, so the expansion starts at
    x^-1.  Long division is done in the variable u = 1/x, on integers over
    a running common denominator.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if den.is_zero() or not den.is_monic():
        raise DegreeViolation("denominator must be monic")
    if not num.is_zero() and num.degree >= den.degree:
        raise DegreeViolation("numerator degree must be below denominator degree")
    gap = den.degree - (num.degree if not num.is_zero() else den.degree)
    # Power-series division in u of the reversed vectors.  With num = N/N_den
    # and den = D/D_den, D_rev[0] = D_den (den is monic), the series term j
    # (of x^-(j + gap)) is s_j = N_rev[j]/N_den - sum_{i>=1} D_rev[i]/D_den s_{j-i}.
    # The last deg(den) terms are kept as integers e over one running
    # denominator M, starting at N_den, so s_j = acc / (M D_den) with
    # acc = N_rev[j] (M/N_den) D_den - sum_{i>=1} D_rev[i] e_{j-i}.  Only the
    # part f of D_den that acc does not cancel joins M.
    n_rev, d_low, dd = num.nums[::-1], den.nums[-2::-1], den.den
    M, scale = num.den, dd  # scale = (M / N_den) D_den
    kept = []  # e_{j-1}, e_{j-2}, ..., newest first
    # num/den = sum_j s_j x^-(j + gap), and only j + gap <= order is kept
    out = [ZERO] * order
    for j in range(min(order, order - gap + 1)):
        acc = n_rev[j] * scale if j < len(n_rev) else 0
        for c, e in zip(d_low, kept):
            acc -= c * e
        g = gcd(acc, dd)
        if g != dd:
            f = dd // g
            M *= f
            scale *= f
            kept = [e * f for e in kept]
        e = acc // g
        if j + gap >= 1:
            out[j + gap - 1] = Rat(e, M)
        kept.insert(0, e)
        if len(kept) > len(d_low):
            kept.pop()
    return LaurentSeries(tuple(out))
