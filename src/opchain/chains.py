"""Chain sequences, their parameter sequences, and gamma decompositions.

A positive chain sequence is d_n = (1 - g_{n-1}) g_n with 0 <= g_0 < 1 and
0 < g_n < 1.  The minimal parameters start at m_0 = 0.  Splitting each
recurrence coefficient as

    b_{n+1} = gamma_{2n+1} + gamma_{2n+2},     a_n^2 = gamma_{2n} gamma_{2n+1}

ties a system with true interval inside [0, oo) to a gamma sequence whose
odd/even split encodes a parameter choice g_n = gamma_{2n+1}/b_{n+1}; the
complementary and generalised complementary constructions act on exactly
these parameters.

Every system built from a gamma sequence, here and in ``perturb``, is the
base row ``system_from_gamma``, or its minimal branch, of the gamma moved by
a word in the shift S, (S g)_k = g_{k+1}, and the pair swap W, (W g)_k =
g_{k+1} for odd k and g_{k-1} for even k ("SW" moves g to S(W g)), whose
offsets ``_row`` gives as (i, j, k, l) in

    b_m = gamma_{2m+i} + gamma_{2m+j},     a_n^2 = gamma_{2n+k} gamma_{2n+l},

and b_1 = gamma_r on the minimal branch.  ``_gamma_system`` builds each row
as two pair rules (``CoeffStream.from_pairs``) over the gamma's one cache
``GammaSeq._pair``: every row shares it, and a fault, which is not cached,
keeps the class, message and index of ``GammaSeq.at`` on every read.

``kernel_identity_check`` decides each of its items by comparing both
sides at one point x = 2^B past the height of their difference
(``systems._relations_hold``), which is an exact equality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
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
)
from .scalars import ZERO, Rat, coerce_exact, exact_tuple, format_scalar
from .streams import CoeffStream
from .systems import ThreeTermSystem, _Evaluation, _order, _relations_hold, _steps

INFINITY = None  # open right endpoint sentinel for (a, oo) interval checks


def _checked(gamma: CoeffStream, k: int):
    """gamma[k], or NonPositiveGamma(k) if gamma_1 < 0 or gamma_k <= 0 for k >= 2, read
    off the numerator: the exact type keeps denominators positive."""
    v = gamma[k]
    if k == 1:
        if v.numerator < 0:
            raise NonPositiveGamma(1, f"gamma_1 = {v} is negative")
    elif v.numerator <= 0:
        raise NonPositiveGamma(k, f"gamma_{k} = {v} is not positive")
    return v


def _checked_pair(gamma: CoeffStream, k: int) -> tuple[int, int]:
    v = _checked(gamma, k)
    return v.numerator, v.denominator


@dataclass(frozen=True, eq=False)
class GammaSeq:
    """gamma_1, gamma_2, ... with gamma_1 >= 0 and gamma_n > 0 for n >= 2.

    Positivity is validated on access so closed-form streams are usable.
    ``_pair(k)`` is ``at(k)`` as (numerator, denominator) Python ints from
    one cache built over the stream, not ``self``, so no reference cycle
    forms; a fault is not cached, so it is raised again on each read.
    """

    gamma: CoeffStream
    _pair: object = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_pair", cache(partial(_checked_pair, self.gamma)))

    def at(self, k: int):
        return _checked(self.gamma, k)

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
    derived fact g_0 = 0.  Entries are ints, rationals or 'p/q' strings,
    held on the exact type; a float raises InvalidRationalLiteral.
    """

    g: tuple

    def __post_init__(self):
        object.__setattr__(self, "g", exact_tuple(self.g))
        if not self.g:
            raise ParameterOutOfRange("empty parameter sequence")
        if not (0 <= self.g[0] < 1):
            raise ParameterOutOfRange(f"g_0 = {self.g[0]} outside [0, 1)")
        for n, v in enumerate(self.g[1:], start=1):
            if not 0 < v < 1:
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


# -- gamma decomposition --------------------------------------------------------


def gamma_from_system(sys: ThreeTermSystem, gamma1, N: int) -> GammaSeq:
    """Recover gamma_1..gamma_{2N+2} from b and a2 given the split of b_1.

    gamma_2 = b_1 - gamma_1, then alternately gamma_{2n+1} = a_n^2/gamma_{2n}
    and gamma_{2n+2} = b_{n+1} - gamma_{2n+1}.  PositivityBreak(k) signals
    that the zero-argument ratios are not a chain sequence for this choice
    of leading parameter; only an even entry can break, as a_n^2 > 0
    (``a2_at``) and gamma_{2n} > 0.  The data are read lazily, one step at
    a time, so the error names the first failing index.  A negative N is a
    ValueError; gamma_1 is an int, a rational or a 'p/q' string.
    """
    _order(N)
    gamma1 = coerce_exact(gamma1)
    b1 = sys.b_at(1)
    if not (0 <= gamma1 < b1):
        raise InvalidGamma1(f"gamma_1 = {format_scalar(gamma1)} outside [0, {format_scalar(b1)})")
    g = [gamma1, b1 - gamma1]
    for n in range(1, N + 1):
        odd = sys.a2_at(n) / g[-1]
        even = sys.b_at(n + 1) - odd
        if not even > 0:
            raise PositivityBreak(2 * n + 2, f"gamma_{2*n+2} = {even} is not positive")
        g.extend([odd, even])
    return GammaSeq.from_values(g)


def _row_pairs(g, i: int, j: int, k: int, l: int, b1: int | None):
    """The entries of one row as unchecked pair rules over ``g``, a reader of
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


_INDEX_MAPS = {"S": lambda k: k + 1, "W": lambda k: k + 1 if k % 2 else k - 1}


@cache
def _row(word: str, minimal_branch: bool = False) -> tuple:
    """Offsets (i, j, k, l, b1) of the base row of (word) g.  Both index maps commute
    with adding 2m, so the base offsets go through them, first letter first."""
    idx = (-1, 0, 0, 1, 2)  # b = gamma_{2m-1} + gamma_{2m}, a2 = gamma_{2n} gamma_{2n+1}, b_1
    for letter in word:
        idx = [_INDEX_MAPS[letter](k) for k in idx]
    return (*sorted(idx[:2]), *sorted(idx[2:4]), idx[4] if minimal_branch else None)


def _gamma_system(gamma: GammaSeq, offsets: tuple) -> ThreeTermSystem:
    """The system b_m = gamma_{2m+i} + gamma_{2m+j}, a_n^2 = gamma_{2n+k} gamma_{2n+l}
    for offsets (i, j, k, l, b1); b1 = r replaces b_1 with gamma_r.
    Its streams are the pair rules of ``_row_pairs`` over the gamma's cache
    ``GammaSeq._pair``, which every row of the gamma shares."""
    diag, sub = _row_pairs(gamma._pair, *offsets)
    return ThreeTermSystem(CoeffStream.from_pairs(diag), CoeffStream.from_pairs(sub))


def system_from_gamma(gamma: GammaSeq, minimal_branch: bool = False) -> ThreeTermSystem:
    """The system with b_n = gamma_{2n-1} + gamma_{2n}, a_n^2 = gamma_{2n} gamma_{2n+1}.

    With ``minimal_branch`` the leading split is folded out (b_1 = gamma_2),
    which is the convention forced by the even/odd split of a symmetric
    family; it coincides with the default exactly when gamma_1 = 0.
    """
    return _gamma_system(gamma, _row("", minimal_branch))


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
    return _gamma_system(gamma, _row("S"))


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
    P = _Evaluation(_steps(*base._block_pairs(_order(n) + 1)))
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
    comes at the first b outside the interval.  The endpoints are ints,
    rationals or 'p/q' strings.
    """
    a = coerce_exact(a)
    if b is not INFINITY:
        b = coerce_exact(b)
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
