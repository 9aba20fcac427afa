"""Truncated monic Jacobi matrices: LU structure and spectra.

The monic convention puts 1 on the superdiagonal, b_n on the diagonal and
a_n^2 on the subdiagonal.  LU factorisation of such a matrix reproduces the
gamma recovery entrywise: pivots are the even-indexed gammas, the unit
lower factor carries the odd ones, and the reversed product UL is the
kernel family's matrix except for a documented boundary entry.

Zeros of P_n are eigenvalues of the order-n truncation; they are found by
Sturm-sequence bisection on the symmetrised matrix, which never forms the
similarity explicitly because the pivot recurrence only needs a_n^2.  The
float data are laid out once per call as pairs (b_k, a_{k-1}^2), the first
being (b_1, 0.0), so each count is one loop over the pairs; a pivot below
the floor 1e-300 counts as negative and is clamped to at most -1e-300.
The result is a deterministic function of the float64 data and tol.

The bisection is replayed rather than counted at every midpoint.  The
float64 count is monotone in x (Kahan 1966; Demmel, Dhillon and Ren 1995,
the basis of LAPACK dstebz), so a count already taken at x <= mid with
count <= j, or at x >= mid with count > j, decides the midpoint of zero j
exactly as a count there would.  Every count of a call is kept as such a
certificate, in one record ascending in x.

The certificates are seeded before the bisection starts, unless the
Gershgorin bracket is within four halvings of tol.  One float
eigenvalue solve, the root-free rational QL algorithm on (b_k, a_k^2),
estimates all n zeros, and a count is taken just below and just above
each estimate.  The estimates only choose where these counts are taken;
the counts decide, and any point would be a valid certificate.  Where the
two counts bracket zero j, its bisection needs no further count.  The
two points are as far apart as the solve's own error, about 2^-52 times
the Gershgorin bound (see _seed_counts).  Where they still do not bracket
a zero, or the QL solve failed, the bisection counts its midpoints as the
plain loop does.  The bisection path, and so every output bit, is the
plain loop's.  A count that breaks the order of the certificates would
void that argument: the call then starts over with a count at every
midpoint.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import FloatOverflow, InvalidGamma1, LengthMismatch, NonPositiveA2, PivotBreakdown
from .scalars import ZERO, coerce_exact, exact_tuple, format_scalar
from .systems import ThreeTermSystem


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Leading block of a monic Jacobi matrix (unit superdiagonal implied).

    Entries are ints, rationals or 'p/q' strings, held on the exact type; a
    float raises InvalidRationalLiteral.
    """

    diag: tuple   # b_1..b_n
    sub: tuple    # a_1^2..a_{n-1}^2

    def __post_init__(self):
        object.__setattr__(self, "diag", exact_tuple(self.diag))
        object.__setattr__(self, "sub", exact_tuple(self.sub))
        if len(self.sub) != max(len(self.diag) - 1, 0):
            raise LengthMismatch("sub must have length n-1")

    @property
    def n(self) -> int:
        return len(self.diag)

    def trace(self):
        return sum(self.diag)


def truncate(sys: ThreeTermSystem, n: int) -> TridiagonalMatrix:
    """Leading n x n block of the system's monic Jacobi matrix."""
    diag, sub = sys.block(n)
    return TridiagonalMatrix(tuple(diag), tuple(sub))


@dataclass(frozen=True)
class BidiagonalFactors:
    """J = L.U + gamma_1 e_1 e_1^T with L unit-lower and U upper bidiagonal.

    U has the pivots on its diagonal and a unit superdiagonal; gamma_1 is
    the split of the corner entry chosen at factorisation time, zero for the
    plain LU decomposition.  ``product`` is the bare L.U; ``reconstruct``
    adds the corner term back and always reproduces the source exactly.
    Entries are held on the exact type, as in TridiagonalMatrix; a float
    raises InvalidRationalLiteral.
    """

    l_sub: tuple    # subdiagonal of L
    u_diag: tuple   # pivots
    gamma1: object = ZERO

    def __post_init__(self):
        object.__setattr__(self, "l_sub", exact_tuple(self.l_sub))
        object.__setattr__(self, "u_diag", exact_tuple(self.u_diag))
        object.__setattr__(self, "gamma1", coerce_exact(self.gamma1))
        if not len(self.l_sub) == len(self.u_diag) - 1 >= 0:
            raise LengthMismatch("l_sub must have length n-1, for n >= 1 pivots")

    @property
    def n(self) -> int:
        return len(self.u_diag)

    def product(self) -> TridiagonalMatrix:
        """L.U as a tridiagonal matrix (unit superdiagonal preserved)."""
        u, l = self.u_diag, self.l_sub
        diag = [u[0]] + [l[i - 1] + u[i] for i in range(1, len(u))]
        sub = [l[i] * u[i] for i in range(len(l))]
        return TridiagonalMatrix(tuple(diag), tuple(sub))

    def reconstruct(self) -> TridiagonalMatrix:
        m = self.product()
        diag = (m.diag[0] + self.gamma1,) + m.diag[1:]
        return TridiagonalMatrix(diag, m.sub)

    def to_json(self) -> dict:
        return {"L_sub": [format_scalar(v) for v in self.l_sub],
                "U_diag": [format_scalar(v) for v in self.u_diag]}


def lu_factor(J: TridiagonalMatrix, gamma1=ZERO) -> BidiagonalFactors:
    """Factor J - gamma_1 e_1 e_1^T = L.U; with gamma_1 = 0 this is J = L.U.

    The elimination is exactly the gamma recovery: pivots u_i = gamma_{2i}
    and multipliers l_i = gamma_{2i+1} for the split b_1 = gamma_1 + gamma_2.
    PivotBreakdown(i) signals a nonpositive pivot, i.e. the zero-argument
    ratio sequence is not a chain sequence for this leading parameter.
    A float gamma_1 raises InvalidRationalLiteral.
    """
    gamma1 = coerce_exact(gamma1)
    if gamma1 < 0:
        raise InvalidGamma1(f"gamma_1 = {format_scalar(gamma1)} must be >= 0")
    if J.n == 0:
        raise ValueError("lu_factor needs a matrix of order n >= 1, got n = 0")
    u = [J.diag[0] - gamma1]
    if not u[0] > 0:
        raise PivotBreakdown(1, f"pivot u_1 = {format_scalar(u[0])} <= 0")
    l = []
    for i in range(1, J.n):
        l.append(J.sub[i - 1] / u[i - 1])
        u.append(J.diag[i] - l[-1])
        if not u[-1] > 0:
            raise PivotBreakdown(i + 1, f"pivot u_{i+1} = {format_scalar(u[-1])} <= 0")
    return BidiagonalFactors(tuple(l), tuple(u), gamma1)


def ul_product(f: BidiagonalFactors) -> TridiagonalMatrix:
    """The reversed product U.L: diagonal u_i + l_i (last entry u_n bare),
    subdiagonal u_{i+1} l_i.

    For the gamma_1 = 0 factors of a system this equals the kernel family's
    truncated matrix except at the (n, n) entry, which is gamma_{2n} here
    instead of the kernel's gamma_{2n} + gamma_{2n+1}; the boundary is a
    property of truncation, reported rather than patched.
    """
    u, l = f.u_diag, f.l_sub
    diag = [u[i] + l[i] for i in range(len(l))] + [u[-1]]
    sub = [u[i + 1] * l[i] for i in range(len(l))]
    return TridiagonalMatrix(tuple(diag), tuple(sub))


# -- spectra ------------------------------------------------------------------

_PIVOT_FLOOR = 1e-300


def _count_below(pairs, x: float) -> int:
    """Eigenvalues of the symmetrised matrix strictly below x.

    Standard pivot-sign recurrence q_k = (b_k - x) - a_{k-1}^2 / q_{k-1}
    over ``pairs`` = ((b_1, 0.0), (b_2, a_1^2), ...), starting from
    q_0 = 1.0; the subdiagonal enters only through its square, which is
    a_n^2 itself, so no square roots are taken.  A pivot q < 1e-300 counts
    as negative and one in (-1e-300, 1e-300) is set to -1e-300, so an exact
    hit on a minor's eigenvalue counts below and the next division stays
    finite; a NaN pivot is not counted.
    """
    floor = _PIVOT_FLOOR
    neg = -floor
    count = 0
    q = 1.0
    for d, s in pairs:
        q = (d - x) - s / q
        if q < floor:
            count += 1
            if q > neg:
                q = neg
    return count


class _Certificates:
    """Every count taken during one zeros call, in one record ascending in x.

    ``xs`` holds the points and ``counts`` their counts; the counts are
    monotone in x, so both lists ascend together and each is searched by
    bisection.  ``add`` refuses a count that breaks the order, which would
    be a violation of the count's monotonicity in x.
    """

    __slots__ = ("xs", "counts")

    def __init__(self):
        self.xs, self.counts = [], []

    def add(self, x: float, count: int) -> bool:
        """Record count(x) unless a recorded x' <= x has a larger count or a
        recorded x' > x a smaller one; False if it is refused."""
        xs, counts = self.xs, self.counts
        i = bisect_right(xs, x)
        if (i and counts[i - 1] > count) or (i < len(counts) and counts[i] < count):
            return False
        xs.insert(i, x)
        counts.insert(i, count)
        return True

    def bracket(self, j: int):
        """(L, U) for the j-th zero: the largest recorded x with count <= j
        and the smallest with count > j (+-inf if none)."""
        xs = self.xs
        i = bisect_right(self.counts, j)
        return (xs[i - 1] if i else -math.inf), (xs[i] if i < len(xs) else math.inf)


# Bounds the QL iterations for one eigenvalue, as in EISPACK.
_QL_ITERATIONS = 30
_EPS = 2.0 ** -52


def _tqlrat(diag, sub2):
    """All eigenvalues of the symmetrised matrix, unordered, by the
    root-free rational QL algorithm (EISPACK tqlrat; Reinsch, CACM 16,
    1973, Algorithm 464) on the squared subdiagonal ``sub2``.

    A split is searched for before every iteration.  None if one
    eigenvalue takes more than _QL_ITERATIONS iterations; overflow gives
    inf or NaN, and a zero divisor raises ZeroDivisionError.
    """
    n = len(diag)
    d = list(diag)
    e2 = [*sub2, 0.0]  # e2[i] couples rows i and i + 1; the last is 0
    out = []
    f = t = b = c = 0.0  # f: the shifts taken so far, subtracted from d
    for l in range(n):
        h = abs(d[l]) + math.sqrt(e2[l])
        if t <= h:
            t = h
            b = _EPS * t
            c = b * b
        for it in range(_QL_ITERATIONS + 1):
            m = l
            while e2[m] > c:  # e2[n - 1] = 0 ends the search
                m += 1
            if m == l:
                break
            if it == _QL_ITERATIONS:
                return None
            # shift by the eigenvalue of the leading 2 x 2 block nearer d[l]
            s = math.sqrt(e2[l])
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * s)
            d[l] = s / (p + math.copysign(math.hypot(p, 1.0), p))
            h = g - d[l]
            for i in range(l + 1, n):
                d[i] -= h
            f += h
            # rational QL sweep from row m up to row l
            g = d[m] or b
            h = g
            s = 0.0
            for i in range(m - 1, l - 1, -1):
                p = g * h
                e = e2[i]
                r = p + e
                e2[i + 1] = s * r
                s = e / r
                d[i + 1] = h + s * (h + d[i])
                g = (d[i] - e / g) or b
                h = g * (p / r)  # p / r <= 1: the product g * p could overflow
            e2[l] = s * g
            d[l] = h
            # the test e2[l] <= c, without the underflow of forming it
            if h == 0.0 or abs(e2[l]) <= abs(c / h):
                break
            e2[l] *= h
            if e2[l] == 0.0:
                break
        out.append(d[l] + f)
    return out


def _zero_estimates(diag, sub2):
    """Float estimates of the n zeros from one _tqlrat solve, or None if it
    fails: a zero divisor, a non-finite value or too many iterations.

    The solve runs on the data scaled by 2^s (diag) and 2^2s (sub2), which
    brings the largest |b| or a to [1/2, 1) exactly, so its split threshold
    (2^-52 t)^2 cannot underflow on a tiny matrix; the estimates are scaled
    back by 2^-s.
    """
    top = max(max(map(abs, diag), default=0.0), math.sqrt(max(sub2, default=0.0)))
    s = -math.frexp(top)[1]
    try:
        values = _tqlrat([math.ldexp(d, s) for d in diag], [math.ldexp(e, 2 * s) for e in sub2])
    except ZeroDivisionError:
        return None
    if values is None:
        return None
    values = [math.ldexp(v, -s) for v in values]
    return values if all(math.isfinite(v) for v in values) else None


def _seed_counts(pairs, estimates, lo: float, hi: float, tol: float,
                 certs: _Certificates) -> bool:
    """Record the counts just below and just above each estimate v, at
    v -+ w/2 with w = max(tol / 64, 64 ulp(v), 4 ulp(t)), t = max(-lo, hi).
    A QL estimate is off by about 2^-52 t, so the last term keeps a zero
    near 0 between its two seeds at a tol far below t.  Points outside
    (lo, hi) are skipped; False if a count broke monotonicity."""
    least = 4 * math.ulp(max(-lo, hi))
    for v in estimates:
        half = 0.5 * max(tol / 64, 64 * math.ulp(v), least)
        for x in (v - half, v + half):
            if lo < x < hi and not certs.add(x, _count_below(pairs, x)):
                return False
    return True


def _bisect_zeros(pairs, n: int, lo: float, hi: float, tol: float,
                  certs: _Certificates | None):
    """Bisect each zero inside [lo, hi] until its bracket is narrower than tol.

    With ``certs`` the bisection is replayed: a midpoint at or below L_j or
    at or above U_j (see _Certificates.bracket) takes the decision a count
    there would give, and only a midpoint strictly between them is
    counted.  The certificates arrive seeded (_seed_counts), which usually
    leaves no midpoint to count.  Returns None as soon as a count breaks
    monotonicity.  With ``certs=None`` every midpoint is counted.
    """
    out = []
    for j in range(n):  # j-th smallest eigenvalue
        L, U = certs.bracket(j) if certs is not None else (-math.inf, math.inf)
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:  # float resolution; bracket cannot shrink further
                break
            if mid <= L:  # count(mid) <= count(L) <= j
                a = mid
            elif mid >= U:  # count(mid) >= count(U) > j
                b = mid
            else:
                count = _count_below(pairs, mid)
                if certs is not None and not certs.add(mid, count):
                    return None
                # mid lies strictly inside (L, U), so it is the new L or U
                if count > j:
                    b = U = mid
                else:
                    a = L = mid
        out.append((0.5 * (a + b), b - a))
    return out


def zeros_with_brackets(sys: ThreeTermSystem, n: int, tol: float) -> list[tuple[float, float]]:
    """Zeros of P_n as (value, bracket_width) pairs, ascending.

    The zeros are the eigenvalues of the order-n truncation; each is
    bisected inside its Gershgorin bracket until the bracket is narrower
    than tol.  The bisection is replayed from certificates: counts at
    points the QL estimates choose decide it, a count at a midpoint where
    they do not, and the result is the plain loop's (see the module
    docstring).  Data outside the float64 range, or zeros so close to it
    that a bisection midpoint overflows, raises FloatOverflow.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    try:
        # p / q on Python ints is float() of the rational p/q, bit for bit
        diag, sub2 = ([p / q for p, q in w] for w in sys._block_pairs(n))
    except OverflowError as exc:
        raise FloatOverflow(f"recurrence data exceeds the float64 range: {exc}") from None
    if n == 0:
        return []
    # block has validated a2 > 0 exactly; a positive a2 below the float64
    # range still converts to 0.0
    for k, v in enumerate(sub2, 1):
        if not v > 0:
            raise NonPositiveA2(k, f"a2[{k}] = {v} must be positive for spectra")
    radius = [0.0] * n
    for i in range(n):
        e_prev = sub2[i - 1] ** 0.5 if i >= 1 else 0.0
        e_next = sub2[i] ** 0.5 if i < n - 1 else 0.0
        radius[i] = e_prev + e_next
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    if not math.isfinite(hi - lo):
        raise FloatOverflow("Gershgorin bracket exceeds the float64 range")
    pairs = [(diag[0], 0.0), *zip(diag[1:], sub2)]
    certs = _Certificates()
    out = None
    # Within four halvings of tol the bisection meets at most 15 distinct
    # midpoints, whatever n; the seeds would cost 2n counts and the solve.
    estimates = _zero_estimates(diag, sub2) if hi - lo > 16 * tol else None
    if _seed_counts(pairs, estimates or (), lo, hi, tol, certs):
        out = _bisect_zeros(pairs, n, lo, hi, tol, certs)
    if out is None:  # a count broke monotonicity: count at every midpoint
        out = _bisect_zeros(pairs, n, lo, hi, tol, None)
    # a midpoint is infinite only when a + b overflows, and every later
    # decision keeps that end, so this test changes no finite output
    if not all(math.isfinite(v) for v, _ in out):
        raise FloatOverflow("a bisection midpoint exceeds the float64 range")
    out.sort()
    return out


def zeros(sys: ThreeTermSystem, n: int, tol: float) -> list[float]:
    """Ascending zeros of P_n, each bracketed to width <= tol."""
    return [v for v, _ in zeros_with_brackets(sys, n, tol)]

