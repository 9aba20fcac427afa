"""Chain sequences, their parameter sequences, and gamma decompositions.

A positive chain sequence is d_n = (1 - g_{n-1}) g_n with 0 <= g_0 < 1 and
0 < g_n < 1.  The minimal parameters start at m_0 = 0; the maximal ones are
the suprema over all admissible parameter sequences.  Splitting each
recurrence coefficient as

    b_{n+1} = gamma_{2n+1} + gamma_{2n+2},     a_n^2 = gamma_{2n} gamma_{2n+1}

ties a system with true interval inside [0, oo) to a gamma sequence whose
odd/even split encodes a parameter choice g_n = gamma_{2n+1}/b_{n+1}; the
complementary and generalised complementary constructions act on exactly
these parameters.

Every system built from a gamma sequence, here and in ``perturb``, is one
row of offsets (i, j, k, l) in

    b_m = gamma_{2m+i} + gamma_{2m+j},     a_n^2 = gamma_{2n+k} gamma_{2n+l},

with b_1 optionally replaced by a single gamma_r; ``_gamma_system`` builds
all of them from one pair of integer-pair formulas.

``kernel_identity_check`` decides each of its items by comparing both
sides at one point x = 2^B past the height of their difference
(``systems._relations_hold``), which is an exact equality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from .errors import (
    InvalidGamma1,
    LengthMismatch,
    NonPositiveGamma,
    NotAChainSequence,
    NotMinimal,
    ParameterOutOfRange,
    PoleAtB,
    PositivityBreak,
    ZeroDenominator,
)
from .scalars import ONE, ZERO, Rat, coerce_exact, format_scalar
from .streams import CoeffStream
from .systems import ThreeTermSystem, _Evaluation, _order, _relations_hold, _steps, monic_sequence

INFINITY = None  # open right endpoint sentinel for (a, oo) interval checks


@dataclass(frozen=True, eq=False)
class GammaSeq:
    """gamma_1, gamma_2, ... with gamma_1 >= 0 and gamma_n > 0 for n >= 2.

    Positivity is validated on access so closed-form streams are usable.
    """

    gamma: CoeffStream

    def at(self, k: int):
        # Signs are read off numerators: the exact type keeps the
        # denominator positive, and a numerator test skips a rational compare.
        v = self.gamma[k]
        if k == 1:
            if v.numerator < 0:
                raise NonPositiveGamma(1, f"gamma_1 = {v} is negative")
        elif v.numerator <= 0:
            raise NonPositiveGamma(k, f"gamma_{k} = {v} is not positive")
        return v

    def _pair(self, k: int) -> tuple[int, int]:
        """``at(k)`` as (numerator, denominator) Python ints."""
        v = self.at(k)
        return v.numerator, v.denominator

    def _stored_pairs(self, hi: int):
        """[None, pair of gamma_1, ..., pair of gamma_hi] when the gamma is a
        value vector on which ``at(1..hi)`` cannot fail, else None."""
        nums = self.gamma.nums
        if nums is None or not 0 < hi <= len(nums):
            return None
        if nums[0] < 0 or min(nums[1:hi], default=1) <= 0:  # the rule of ``at``
            return None
        return [None, *zip(nums[:hi], self.gamma.dens[:hi])]

    def window(self, lo: int, hi: int) -> list:
        return [self.at(k) for k in range(lo, hi + 1)]

    @classmethod
    def from_values(cls, values) -> "GammaSeq":
        return cls(CoeffStream.from_values(values))

    @classmethod
    def from_fn(cls, fn) -> "GammaSeq":
        return cls(CoeffStream.from_fn(fn))


@dataclass(frozen=True)
class ParameterSeq:
    """Finite realization g_0..g_N of a parameter sequence.

    Construction enforces 0 <= g_0 < 1 and 0 < g_n < 1; ``minimal`` is the
    derived fact g_0 = 0.  ``horizon`` is set on backward-iterated maximal
    parameters to record how far past N the iteration started.
    """

    g: tuple
    horizon: int | None = None

    def __post_init__(self):
        if not self.g:
            raise ParameterOutOfRange("empty parameter sequence")
        if not (0 <= self.g[0] < 1):
            raise ParameterOutOfRange(f"g_0 = {self.g[0]} outside [0, 1)")
        last = len(self.g) - 1
        for n, v in enumerate(self.g[1:], start=1):
            # the final entry may be exactly 1: a finite chain sequence's
            # maximal terminal parameter
            if not (0 < v < 1 or (n == last and v == 1)):
                raise ParameterOutOfRange(f"g_{n} = {v} outside (0, 1)")

    @property
    def minimal(self) -> bool:
        return self.g[0] == 0

    def __len__(self):
        return len(self.g)

    def __getitem__(self, n: int):
        return self.g[n]


@dataclass(frozen=True, eq=False)
class ChainSequence:
    """d_1, d_2, ... as a stream, optionally with a parameter sequence attached."""

    d: CoeffStream
    parameters: ParameterSeq | None = None

    def at(self, n: int):
        return self.d[n]

    def window(self, lo: int, hi: int) -> list:
        return [self.d[n] for n in range(lo, hi + 1)]

    @classmethod
    def from_values(cls, values, parameters=None) -> "ChainSequence":
        return cls(CoeffStream.from_values(values), parameters)


# -- parameter sequences -------------------------------------------------------


def minimal_parameters(d: ChainSequence, N: int) -> ParameterSeq:
    """m_0..m_N from m_0 = 0, m_n = d_n / (1 - m_{n-1}).

    Raises NotAChainSequence(n) as soon as some m_n leaves (0,1): the input
    fails to be a chain sequence by index n.
    """
    m = [ZERO]
    for n in range(1, _order(N) + 1):
        mn = d.at(n) / (1 - m[n - 1])
        if not (0 < mn < 1):
            raise NotAChainSequence(n, f"m_{n} = {mn} outside (0, 1)")
        m.append(mn)
    return ParameterSeq(tuple(m))


def maximal_parameters(d: ChainSequence, N: int, horizon: int) -> ParameterSeq:
    """Approximate M_0..M_N by backward iteration M_{n-1} = 1 - d_n / M_n.

    The iteration starts from the terminal value 1 at index N + horizon (or
    at the stream's end, where 1 is exact for a finite chain sequence) and
    overestimates: outputs decrease monotonically toward the true maxima as
    the horizon grows.  Entries are clamped below by the minimal parameters;
    the horizon actually used is recorded on the result.  A negative
    horizon is a ValueError, and a window N past the end of a finite chain
    sequence is a LengthMismatch.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    T = _order(N) + horizon
    if d.d.stop is not None:
        if N > d.d.stop:
            raise LengthMismatch(f"window N = {N} needs d_1..d_{N}, got {d.d.stop} terms")
        T = min(T, d.d.stop)
    m = minimal_parameters(d, T)  # also certifies d is a chain sequence to T
    cur = ONE
    out = {T: cur}
    for n in range(T, 0, -1):
        cur = 1 - d.at(n) / cur
        out[n - 1] = cur
    vals = [max(m[n], out[n]) for n in range(N + 1)]
    return ParameterSeq(tuple(vals), horizon=T - N)


# -- gamma decomposition --------------------------------------------------------


def gamma_from_system(sys: ThreeTermSystem, gamma1, N: int) -> GammaSeq:
    """Recover gamma_1..gamma_{2N+2} from b and a2 given the split of b_1.

    gamma_2 = b_1 - gamma_1, then alternately gamma_{2n+1} = a_n^2/gamma_{2n}
    and gamma_{2n+2} = b_{n+1} - gamma_{2n+1}.  PositivityBreak(k) signals
    that the zero-argument ratios are not a chain sequence for this choice
    of leading parameter.  The data are read lazily, one step at a time,
    so the error names the first failing index.  A negative N is a ValueError.
    """
    _order(N)
    b1 = sys.b_at(1)
    if not (0 <= gamma1 < b1):
        raise InvalidGamma1(f"gamma_1 = {format_scalar(gamma1)} outside [0, {format_scalar(b1)})")
    g = [gamma1, b1 - gamma1]
    for n in range(1, N + 1):
        odd = sys.a2_at(n) / g[-1]
        if not odd > 0:
            raise PositivityBreak(2 * n + 1, f"gamma_{2*n+1} = {odd} is not positive")
        even = sys.b_at(n + 1) - odd
        if not even > 0:
            raise PositivityBreak(2 * n + 2, f"gamma_{2*n+2} = {even} is not positive")
        g.extend([odd, even])
    return GammaSeq.from_values(g)


def _row_pairs(g, i: int, j: int, k: int, l: int, b1: int | None):
    """The entries of one row as unchecked readers over ``g``, a reader of
    gamma (numerator, denominator) pairs: b(m) = g(2m+i) + g(2m+j), or g(b1)
    at m = 1 when ``b1`` is set, and a2(m) = g(2m+k) g(2m+l), each read left
    operand first and reduced with one gcd."""

    def b(m: int):
        if m == 1 and b1 is not None:
            return g(b1)
        (p, q), (r, s) = g(2 * m + i), g(2 * m + j)
        num, den = p * s + r * q, q * s
        c = gcd(num, den)
        return num // c, den // c

    def a2(m: int):
        (p, q), (r, s) = g(2 * m + k), g(2 * m + l)
        num, den = p * r, q * s
        c = gcd(num, den)
        return num // c, den // c

    return b, a2


@dataclass(frozen=True, eq=False)
class _GammaRow(ThreeTermSystem):
    """A ``_gamma_system`` row: its streams, plus the gamma and offsets
    (i, j, k, l, b1) that its pair readers read."""

    gamma: GammaSeq
    offsets: tuple

    def _raw_pair_readers(self, n: int):
        """``_row_pairs`` over one read of the gamma: the stored integers
        when ``at`` accepts every gamma the order-n block can meet, else
        ``GammaSeq._pair`` once per gamma, so a fault names the index and
        error of the rational read."""
        i, j, k, l, b1 = self.offsets
        # no entry of the order-n block reads past gamma_hi
        stored = self.gamma._stored_pairs(max(2 * n + max(i, j), 2 * n - 2 + max(k, l), b1 or 0))
        return _row_pairs(cache(self.gamma._pair) if stored is None else stored.__getitem__,
                          *self.offsets)


def _gamma_system(gamma: GammaSeq, b: tuple, a2: tuple,
                  b1: int | None = None) -> ThreeTermSystem:
    """The system b_m = gamma_{2m+i} + gamma_{2m+j}, a_n^2 = gamma_{2n+k} gamma_{2n+l}
    for offsets b = (i, j) and a2 = (k, l); ``b1 = r`` replaces b_1 with gamma_r.
    Its streams are rational views of ``_row_pairs`` over ``GammaSeq._pair``."""
    offsets = (*b, *a2, b1)
    diag, sub = _row_pairs(gamma._pair, *offsets)
    return _GammaRow(CoeffStream.from_fn(lambda m: Rat(*diag(m))),
                     CoeffStream.from_fn(lambda n: Rat(*sub(n))), gamma, offsets)


def system_from_gamma(gamma: GammaSeq, minimal_branch: bool = False) -> ThreeTermSystem:
    """The system with b_n = gamma_{2n-1} + gamma_{2n}, a_n^2 = gamma_{2n} gamma_{2n+1}.

    With ``minimal_branch`` the leading split is folded out (b_1 = gamma_2),
    which is the convention forced by the even/odd split of a symmetric
    family; it coincides with the default exactly when gamma_1 = 0.
    """
    return _gamma_system(gamma, (-1, 0), (0, 1), b1=2 if minimal_branch else None)


def parameters_from_gamma(gamma: GammaSeq, N: int) -> ParameterSeq:
    """g_n = gamma_{2n+1} / (gamma_{2n+1} + gamma_{2n+2}) for n = 0..N."""
    g = []
    for n in range(_order(N) + 1):
        odd, even = gamma.at(2 * n + 1), gamma.at(2 * n + 2)
        g.append(odd / (odd + even))
    return ParameterSeq(tuple(g))


def kernel_system(gamma: GammaSeq) -> ThreeTermSystem:
    """Recurrence data of the kernel family at the origin.

    b_n = gamma_{2n} + gamma_{2n+1} and a_n^2 = gamma_{2n+1} gamma_{2n+2};
    gamma_1 never enters.
    """
    return _gamma_system(gamma, (0, 1), (1, 2))


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a family of exact identities, one item per (name, index)."""

    items: tuple  # of (name, index, ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, _, ok in self.items)

    @property
    def first_failure(self):
        for name, idx, ok in self.items:
            if not ok:
                return (name, idx)
        return None


def kernel_identity_check(gamma: GammaSeq, n: int,
                          kernel_gamma: GammaSeq | None = None) -> IdentityReport:
    """Verify x K_m = P_{m+1} + gamma_{2m+2} P_m and K_m = P_m - gamma_{2m+1} K_{m-1}.

    P is taken on the minimal branch (b_1 = gamma_2): that is the only
    convention under which the m = 0 case x = P_1 + gamma_2 closes.  Both
    identities hold for every admissible gamma, so a negative control must
    desynchronise one ingredient: ``kernel_gamma`` feeds the kernel side
    from a different sequence.  Every item compares values at one exact
    point (``systems._relations_hold``).
    """
    base = system_from_gamma(gamma, minimal_branch=True)
    ker = kernel_system(kernel_gamma if kernel_gamma is not None else gamma)
    P = _Evaluation(_steps(*base._block_pairs(n + 1)))
    K = _Evaluation(_steps(*ker._block_pairs(n)))
    # P_{m+1} - x K_m + gamma_{2m+2} P_m, then K_m - P_m + gamma_{2m+1} K_{m-1}
    relations = [[((1, 1), 0, P, m + 1), ((-1, 1), 1, K, m), (gamma._pair(2 * m + 2), 0, P, m)]
                 for m in range(n + 1)]
    relations += [[((1, 1), 0, K, m), ((-1, 1), 0, P, m), (gamma._pair(2 * m + 1), 0, K, m - 1)]
                  for m in range(1, n + 1)]
    held = iter(_relations_hold(relations))
    items = [("x*K = P(+1) + gamma_even*P", m, next(held)) for m in range(n + 1)]
    items += [("K = P - gamma_odd*K(-1)", m, next(held)) for m in range(1, n + 1)]
    return IdentityReport(tuple(items))


# -- chain sequences from a system ------------------------------------------------


def chain_at(sys: ThreeTermSystem, t, N: int) -> ChainSequence:
    """omega_n(t) = a_n^2 / ((t - b_n)(t - b_{n+1})) for n = 1..N; N >= 0.

    t is an int, a rational or a 'p/q' string; a float raises
    InvalidRationalLiteral.
    """
    t = coerce_exact(t)
    b, a2 = sys.block(_order(N) + 1)
    for n, bn in enumerate(b, 1):
        if t == bn:
            raise PoleAtB(n, f"t = {format_scalar(t)} equals b_{n}")
    return ChainSequence.from_values([s / ((t - u) * (t - v)) for s, u, v in zip(a2, b, b[1:])])


def chain_at_via_polynomials(sys: ThreeTermSystem, t, N: int) -> ChainSequence:
    """The same d_n(t) through ratios of the monic polynomials at t.

    d_n(t) = P_n(t)/((t-b_n) P_{n-1}(t)) * [1 - P_{n+1}(t)/((t-b_{n+1}) P_n(t))];
    equality with ``chain_at`` is exact and serves as a cross-check of the
    recurrence itself, so it reads b_n and b_{n+1} on its own instead of
    sharing ``chain_at``'s block.
    """
    if _order(N) == 0:
        return ChainSequence.from_values([])
    P = monic_sequence(sys, N + 1)
    pvals = [p(t) for p in P]
    vals = []
    for n in range(1, N + 1):
        tb_n, tb_n1 = t - sys.b_at(n), t - sys.b_at(n + 1)
        if pvals[n - 1] == 0 or pvals[n] == 0 or tb_n == 0 or tb_n1 == 0:
            raise ZeroDenominator(n, f"vanishing denominator at n = {n}")
        vals.append(pvals[n] / (tb_n * pvals[n - 1]) * (1 - pvals[n + 1] / (tb_n1 * pvals[n])))
    return ChainSequence.from_values(vals)


# -- complementary constructions ----------------------------------------------------


def complementary(m: ParameterSeq) -> ChainSequence:
    """Chain sequence with minimal parameters k_0 = 0, k_n = 1 - m_n.

    The input must itself be minimal (m_0 = 0).
    """
    if not m.minimal:
        raise NotMinimal("complementary construction needs minimal parameters (g_0 = 0)")
    return generalised_complementary(m)


def generalised_complementary(g: ParameterSeq) -> ChainSequence:
    """Chain sequence with parameters k'_n = 1 - g_n.

    For a non-minimal g (g_0 > 0) this is the generalised complementary
    construction; at g_0 = 0 the leading parameter degenerates to k'_0 = 1,
    which is no parameter at all, so the complementary convention k'_0 = 0
    applies and the output coincides with ``complementary``.
    """
    k = [ZERO if g.minimal else 1 - g[0]] + [1 - g[n] for n in range(1, len(g))]
    params = ParameterSeq(tuple(k))
    vals = [(1 - k[n - 1]) * k[n] for n in range(1, len(k))]
    return ChainSequence.from_values(vals, parameters=params)


# -- window-qualified classification ---------------------------------------------------


@dataclass(frozen=True)
class WallVerdict:
    """Finite-window chain-sequence classification; only valid up to ``up_to``."""

    kind: str  # UniqueByWall | ComplementIsSPPCS | Inconclusive
    up_to: int
    witness: int | None = None


def wall_sppcs_test(m: ParameterSeq, N: int) -> WallVerdict:
    """Classify a chain sequence from its minimal parameters over a window.

    UniqueByWall: m_n < 1/2 and m_n/(1-m_n) > n/(n+1) strictly for all
    n <= N.  The cumulative products of m_n/(1-m_n) then dominate the
    divergent harmonic comparison series, which is the classical criterion
    for the parameters being unique.  ComplementIsSPPCS: 0 < m_n < 1/2 for
    all n <= N, under which the complementary chain sequence has a unique
    parameter sequence.  Anything else is Inconclusive with the first
    witness index.  All three are statements about the window only.  A
    negative N is a ValueError.
    """
    if _order(N) < 1:
        return WallVerdict("Inconclusive", N)
    if N >= len(m):
        raise LengthMismatch(f"window N = {N} needs m_0..m_{N}, got {len(m)} parameters")
    half = Rat(1, 2)
    unique = True
    for n in range(1, N + 1):
        mn = m[n]
        if not (0 < mn < half):
            return WallVerdict("Inconclusive", N, witness=n)
        if not mn * (n + 1) > (1 - mn) * n:  # m_n/(1-m_n) > n/(n+1)
            unique = False
    return WallVerdict("UniqueByWall" if unique else "ComplementIsSPPCS", N)


@dataclass(frozen=True)
class TrueIntervalVerdict:
    passed: bool
    up_to: int
    witness: str | None = None


def true_interval_predicate(sys: ThreeTermSystem, a, b, N: int) -> TrueIntervalVerdict:
    """Window test that the true interval of orthogonality lies inside (a, b).

    Checks b_1..b_{N+1} in (a, b) and that the ratio sequences at both
    endpoints admit minimal parameters up to N.  Pass ``b = INFINITY``
    (None) for the one-sided interval (a, oo); the right-endpoint ratio
    check is then skipped.  The b's are read one at a time, so the verdict
    comes at the first b outside the interval.
    """
    for n in range(1, N + 2):
        bn = sys.b_at(n)
        if not (a < bn and (b is INFINITY or bn < b)):
            hi = "oo" if b is INFINITY else format_scalar(b)
            return TrueIntervalVerdict(
                False, N, witness=f"b_{n}={format_scalar(bn)} not in ({format_scalar(a)},{hi})")
    endpoints = [a] if b is INFINITY else [a, b]
    for t in endpoints:
        try:
            minimal_parameters(chain_at(sys, t, N), N)
        except (NotAChainSequence, PoleAtB) as exc:
            return TrueIntervalVerdict(
                False, N, witness=f"ratios at t={format_scalar(t)}: {exc}")
    return TrueIntervalVerdict(True, N)
