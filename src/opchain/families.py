"""Closed-form families: Laguerre, its shifted companion, a finite
inverse-Laguerre class, and the Christoffel-pair coefficient relations.

All parameters are exact rationals, so family identities (gamma recovery,
kernel shifts, complementary systems) are testable with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import GammaSeq
from .errors import (
    AlphaOutOfRange,
    DegreeBeyondFamily,
    NonPositiveInput,
    ZeroDenominator,
)
from .scalars import Rat, coerce_exact, exact_tuple, parse_rational
from .streams import CoeffStream
from .systems import ThreeTermSystem


def _alpha_pair(alpha):
    """Numerator and denominator of an exact alpha > -1.

    The closed forms build each entry as one rational from these integers,
    e.g. b_n = 2n + alpha - 1 = ((2n - 1) q + p) / q for alpha = p/q.
    """
    alpha = coerce_exact(alpha)
    if not alpha > -1:
        raise AlphaOutOfRange(f"alpha = {alpha} must exceed -1")
    return alpha.numerator, alpha.denominator


def laguerre_system(alpha) -> ThreeTermSystem:
    """Monic generalized Laguerre recurrence: b_n = 2n + alpha - 1,
    a_n^2 = n(n + alpha), valid for alpha > -1."""
    p, q = _alpha_pair(alpha)
    return ThreeTermSystem(
        CoeffStream.from_fn(lambda n: Rat((2 * n - 1) * q + p, q)),
        CoeffStream.from_fn(lambda n: Rat(n * (n * q + p), q)),
    )


def e_family_system(alpha) -> ThreeTermSystem:
    """The companion family with b_n = 2n + alpha and a_n^2 = (n+1)(n+alpha).

    Equivalently the gamma_1 = 1 system of ``laguerre_gamma(alpha, 1)``; its
    polynomials are the order-1 associated Laguerre family with alpha
    shifted down by one.
    """
    p, q = _alpha_pair(alpha)
    return ThreeTermSystem(
        CoeffStream.from_fn(lambda n: Rat(2 * n * q + p, q)),
        CoeffStream.from_fn(lambda n: Rat((n + 1) * (n * q + p), q)),
    )


def laguerre_gamma(alpha, gamma1: int) -> GammaSeq:
    """Closed-form gamma sequence of the Laguerre chain.

    gamma1 = 0: gamma_{2n} = n + alpha, gamma_{2n+1} = n  (the minimal
    split of ``laguerre_system``).
    gamma1 = 1: gamma_{2n} = n + alpha, gamma_{2n+1} = n + 1  (the split of
    ``e_family_system`` with leading parameter 1).

    Both must agree exactly with the generic recovery from the respective
    system, which the test-suite asserts.
    """
    p, q = _alpha_pair(alpha)
    if gamma1 not in (0, 1):
        raise ValueError("gamma1 must be 0 or 1")
    shift = gamma1  # odd entries: n (+1 on the shifted branch)

    def fn(k: int):
        if k == 1:
            return Rat(gamma1)
        if k % 2 == 0:
            return Rat(k // 2 * q + p, q)
        return Rat((k - 1) // 2 + shift)

    return GammaSeq.from_fn(fn)


# -- finite inverse-Laguerre class ------------------------------------------------


@dataclass(frozen=True)
class RRParams:
    """Parameter p of the finite family; n_max is the largest degree whose
    monic recurrence data exists (no vanishing denominator, positive a_n^2).

    The scan that finds n_max keeps the monic data it computes: b_1..b_{n_max}
    and a_1^2..a_{n_max-1}^2, and ``stop_error``, the error of step n_max
    (None when the scan hits its cap of 4096 steps).
    """

    p: object
    n_max: int = field(init=False)
    b: tuple = field(init=False, repr=False, compare=False)
    a2: tuple = field(init=False, repr=False, compare=False)
    stop_error: Exception | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = coerce_exact(self.p)
        b, a2 = [], []
        A_prev = stop_error = None
        for n in range(4096):
            try:
                A, B, C = _rr_raw(p, n)
            except ZeroDenominator as exc:
                stop_error = exc
                break
            if n >= 1:
                bn, a2n = monicize_step(A, B, C, A_prev)
                if not a2n > 0:
                    stop_error = DegreeBeyondFamily(f"a_{n}^2 = {a2n} is not positive")
                    break
                a2.append(a2n)
            else:
                bn = -B / A
            b.append(bn)
            A_prev = A
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n_max", len(b))
        object.__setattr__(self, "b", tuple(b))
        object.__setattr__(self, "a2", tuple(a2))
        object.__setattr__(self, "stop_error", stop_error)


def _rr_raw(p, n: int):
    """Raw recurrence pieces (A_n, B_n, C_n) of the non-monic form
    N_{n+1} = (A_n x + B_n) N_n - C_n N_{n-1}."""
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


def rr_system(params: RRParams) -> ThreeTermSystem:
    """Finite-stream system serving degrees up to n_max."""
    return ThreeTermSystem.from_values(params.b, params.a2)


#: Closed-form families by name: (parameter, constructor, default gamma_1).
FAMILIES = {
    "laguerre": ("alpha", laguerre_system, 0),
    "e_family": ("alpha", e_family_system, 0),
    "laguerre_assoc1": ("alpha", e_family_system, 1),
    "routh_romanovski": ("p", lambda p: rr_system(RRParams(p)), 0),
}


def closed_form(name: str, value) -> ThreeTermSystem:
    """The ``FAMILIES`` entry ``name`` at its parameter literal ``value``,
    e.g. ``closed_form("laguerre", "7/3")``."""
    return FAMILIES[name][1](parse_rational(value))


# -- Christoffel-pair coefficient relations ------------------------------------------


@dataclass(frozen=True)
class LSequence:
    """l_0 = 1 < l_n together with the positive Christoffel constant k.

    The l_n and k are ints, rationals or 'p/q' strings, held on the exact
    type; a float raises InvalidRationalLiteral.
    """

    l: tuple
    k: object

    def __post_init__(self):
        object.__setattr__(self, "l", exact_tuple(self.l))
        object.__setattr__(self, "k", coerce_exact(self.k))
        if not self.l or self.l[0] != 1:
            raise NonPositiveInput("l_0 must be exactly 1")
        for n, v in enumerate(self.l[1:], start=1):
            if not v > 1:
                raise NonPositiveInput(f"l_{n} = {v} must exceed 1")
        if not self.k > 0:
            raise NonPositiveInput("k must be positive")

    def __len__(self):
        return len(self.l)

    def __getitem__(self, n: int):
        return self.l[n]


def l_from_gamma(gamma_phi1, k) -> LSequence:
    """Solve 4 k g_{n+1} = (l_n - 1)(l_{n-1} + 1) forward from l_0 = 1.

    ``gamma_phi1`` lists the symmetric coefficients for indices 2, 3, ...
    (the index-1 relation is boundary-ambiguous and not served).  All inputs
    must be positive, which forces every l_n > 1.
    """
    k = coerce_exact(k)
    if not k > 0:
        raise NonPositiveInput("k must be positive")
    l = [Rat(1)]
    for i, g in enumerate(gamma_phi1, start=1):
        g = coerce_exact(g)
        if not g > 0:
            raise NonPositiveInput(f"coefficient at index {i + 1} must be positive")
        l.append(1 + 4 * k * g / (l[-1] + 1))
    return LSequence(tuple(l), k)


def gamma_phi2_from_l(l: LSequence) -> list:
    """The partner coefficients 4 k g_{n+1} = (l_n - 1)(l_{n+1} + 1).

    Returns values for indices 2, 3, ..., len(l)-1; like ``l_from_gamma``
    the boundary index 1 is not served.
    """
    return [
        (l[n] - 1) * (l[n + 1] + 1) / (4 * l.k)
        for n in range(1, len(l) - 1)
    ]
