"""Truncated monic Jacobi matrices: LU structure, spectra, interlacing.

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
certificate; only the least and the greatest x seen with each count value
can decide a midpoint, so the certificates are kept per count value.

The certificates are seeded before the bisection starts, unless the
Gershgorin bracket is within four halvings of tol.  One float
eigenvalue solve, the root-free rational QL algorithm on (b_k, a_k^2),
estimates all n zeros, and a count is taken just below and just above
each estimate.  The estimates only choose where these counts are taken;
the counts decide, and any point would be a valid certificate.  Where the
two counts bracket zero j, its bisection needs no further count.  Where
they do not (the QL solve failed, or its absolute error exceeds the
bracket, as it can for zeros near 0 at a tight tol), safeguarded Newton
iterates narrow the certificates of the isolated zero instead, each
carrying its own count; the probes that close the last gap take only the
count, without the slope, and so does an iterate that quadratic
convergence already puts well within that gap.  The bisection path, and
so every output bit, is the plain loop's.  A count that breaks the order
of the certificates would void that argument: the call then starts over
with a count at every midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chains import gamma_from_system
from .errors import FloatOverflow, InvalidGamma1, LengthMismatch, NonPositiveA2, PivotBreakdown
from .scalars import ZERO, coerce_exact, format_scalar
from .systems import ThreeTermSystem


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Leading block of a monic Jacobi matrix (unit superdiagonal implied)."""

    diag: tuple   # b_1..b_n
    sub: tuple    # a_1^2..a_{n-1}^2

    def __post_init__(self):
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
    """

    l_sub: tuple    # subdiagonal of L
    u_diag: tuple   # pivots
    gamma1: object = ZERO

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


def darboux_pivot_check(sys: ThreeTermSystem, gamma1, n: int) -> bool:
    """Cross-check: LU pivots equal the even-indexed entries of the gamma
    recovery and the multipliers the odd-indexed ones (exact)."""
    g = gamma_from_system(sys, gamma1, n)
    f = lu_factor(truncate(sys, n), gamma1)
    return (all(f.u_diag[i - 1] == g.at(2 * i) for i in range(1, n + 1))
            and all(f.l_sub[i - 1] == g.at(2 * i + 1) for i in range(1, n)))


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


def _count_and_slope(pairs, x: float) -> tuple[int, float]:
    """``_count_below(pairs, x)`` and d/dx log|det(J - x)| from one pass.

    The pivots come from the same float operations as in _count_below, so
    the count is the same function of x.  The derivative is the sum of
    q_k'/q_k, with q_k' = -1 + (a_{k-1}^2 / q_{k-1}) q_{k-1}'/q_{k-1}; it may
    overflow to inf or NaN near a minor's eigenvalue.
    """
    floor = _PIVOT_FLOOR
    neg = -floor
    count = 0
    q = 1.0
    r = 0.0  # q_{k-1}' / q_{k-1}
    slope = 0.0
    for d, s in pairs:
        t = s / q
        q = (d - x) - t
        if q < floor:
            count += 1
            if q > neg:
                q = neg
        r = (t * r - 1.0) / q
        slope += r
    return count, slope


class _Certificates:
    """Every count taken during one zeros call, indexed by its value.

    ``lo[c]`` and ``hi[c]`` are the least and the greatest x recorded with
    count c (None if none), for c = 0..n.  The counts are monotone in x, so
    the records of the nearest counts above and below c bound every other.
    ``add`` refuses a count that breaks the order, which would be a
    violation of the count's monotonicity in x.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, n: int):
        self.lo = [None] * (n + 1)
        self.hi = [None] * (n + 1)

    def add(self, x: float, count: int) -> bool:
        """Record count(x) unless a recorded x' <= x has a larger count or a
        recorded x' > x a smaller one; False if it is refused."""
        lo, hi, end = self.lo, self.hi, len(self.lo)
        c = count - 1
        while c >= 0 and hi[c] is None:
            c -= 1
        if c >= 0 and hi[c] > x:
            return False
        c = count + 1
        while c < end and lo[c] is None:
            c += 1
        if c < end and lo[c] <= x:
            return False
        if lo[count] is None:
            lo[count] = hi[count] = x
        elif x < lo[count]:
            lo[count] = x
        elif x > hi[count]:
            hi[count] = x
        return True

    def bracket(self, j: int):
        """(L, count(L), U, count(U)) for the j-th zero: the largest recorded
        x with count <= j and the smallest with count > j (+-inf if none)."""
        lo, hi, end = self.lo, self.hi, len(self.lo)
        c = j
        while c >= 0 and hi[c] is None:
            c -= 1
        low = (hi[c], c) if c >= 0 else (-math.inf, None)
        c = j + 1
        while c < end and lo[c] is None:
            c += 1
        high = (lo[c], c) if c < end else (math.inf, None)
        return (*low, *high)


# Bounds the Newton and probe passes for one zero; past it the replay
# counts its way down instead.
_NEWTON_PASSES = 40


def _newton_counts(pairs, j: int, lo: float, hi: float, width: float,
                   certs: _Certificates) -> bool:
    """Record counts at safeguarded Newton iterates for the j-th zero.

    (lo, hi) isolates it: count(lo) = j and count(hi) = j + 1.  An iterate
    leaving the bracket, or a Newton step above half the previous one (slow,
    linear progress), is replaced by the bracket's midpoint.  Once a Newton
    step is below ``width``, probes cross the count's threshold from the
    last evaluated iterate, 4x further each time one lands on the same side;
    a probe takes only the count, and one that crosses without closing the
    bracket to ``width`` starts the probes again from itself.  An accepted
    step s after a Newton step of size ``last`` with |s|^3 < width last^2 / 4
    lands, by quadratic convergence, within about width / 4 of the zero;
    that iterate takes only the count, since the step its slope would give
    is expected below ``width``, and the probes start from it.  Stops
    when the bracket is at most ``width`` wide, or after _NEWTON_PASSES
    passes; False if a count broke monotonicity.
    """
    x = 0.5 * (lo + hi)
    newton = True  # this pass takes the slope for a Newton step
    base = None  # evaluated point the probes start from
    last = math.inf  # size of the previous Newton step
    for _ in range(_NEWTON_PASSES):
        if newton:
            count, slope = _count_and_slope(pairs, x)
        else:
            count = _count_below(pairs, x)
        if not certs.add(x, count):
            return False
        below = count <= j
        if below:
            lo = x
        else:
            hi = x
        if hi - lo <= width:
            return True
        if not newton:
            if base is not None and below == base_below:
                dist *= 4.0
            else:
                base, base_below, dist = x, below, 0.5 * width
        else:
            step = 1.0 / slope if slope else math.inf
            size = abs(step)
            if size < width or math.isnan(step):  # NaN: det(J - x) ~ 0
                newton = False
                base, base_below, dist = x, below, 0.5 * width
            elif size > 0.5 * last:
                x = 0.5 * (lo + hi)
                last = size
            else:
                x -= step
                # the next error is about size**3 / last**2; a first step
                # has no last.  Products overflow to inf where ** would raise.
                newton = last == math.inf or size * size * size >= 0.25 * width * last * last
                last = size
        if base is not None:
            x = base + dist if base_below else base - dist
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return True


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
    v -+ w/2 with w = max(tol / 64, 64 ulp(v)), the width rule of the
    Newton step in _bisect_zeros.  Points outside (lo, hi) are skipped;
    False if a count broke monotonicity."""
    for v in estimates:
        half = 0.5 * max(tol / 64, 64 * math.ulp(v))
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
    leaves (L_j, U_j) no wider than the Newton width below; where it does
    not, Newton iterates narrow (L_j, U_j) before the first midpoint
    counted for an isolated zero.  Returns None as soon as a count breaks
    monotonicity.  With ``certs=None`` every midpoint is counted.
    """
    L, cL, U, cU = -math.inf, None, math.inf, None
    out = []
    for j in range(n):  # j-th smallest eigenvalue
        if certs is not None:
            L, cL, U, cU = certs.bracket(j)
        newton = certs is not None
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid == a or mid == b:  # float resolution; bracket cannot shrink further
                break
            if mid <= L:  # count(mid) <= count(L) <= j
                a = mid
            elif mid >= U:  # count(mid) >= count(U) > j
                b = mid
            elif newton and cL == j and cU == j + 1:
                newton = False
                width = max(tol / 64, 64 * math.ulp(max(-L, U)))
                if U - L > width and not _newton_counts(pairs, j, L, U, width, certs):
                    return None
                L, cL, U, cU = certs.bracket(j)
            else:
                count = _count_below(pairs, mid)
                if count > j:
                    b = mid
                else:
                    a = mid
                if certs is not None:
                    if not certs.add(mid, count):
                        return None
                    L, cL, U, cU = certs.bracket(j)
        out.append((0.5 * (a + b), b - a))
    return out


def zeros_with_brackets(sys: ThreeTermSystem, n: int, tol: float) -> list[tuple[float, float]]:
    """Zeros of P_n as (value, bracket_width) pairs, ascending.

    The zeros are the eigenvalues of the order-n truncation; each is
    bisected inside its Gershgorin bracket until the bracket is narrower
    than tol.  The bisection is replayed from certificates: counts at
    points the QL estimates choose decide it, with Newton counts as the
    fallback, and the result is the plain loop's (see the module
    docstring).  Data
    outside the float64 range, or zeros so close to it that a bisection
    midpoint overflows, raises FloatOverflow.
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
    certs = _Certificates(n)
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
