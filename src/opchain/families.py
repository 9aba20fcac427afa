"""Closed-form families: Laguerre, its shifted companion, a finite
inverse-Laguerre class, and the Christoffel-pair coefficient relations.

The finite class, ``routh_romanovski``, is orthogonal for the weight
x^(-p) e^(-1/x) on (0, inf), with moments mu_k/mu_0 = 1/((p-2)...(p-k-1)):

    b_{n+1} = p/((p-2n)(p-2n-2)),  a_n^2 = n(p-n)/((p-2n)^2((p-2n)^2-1)).

It serves the steps n < n_max <= 4096: n_max is the first step at which a
factor p-2n, p-2n-1, p-2n-2 or p-n-1 vanishes or a_n^2 <= 0, and 4096 if
none below it does.

Each closed form is a pair rule (``CoeffStream.from_pairs``) of reduced pairs built
from the integers of its exact parameter, so family identities (gamma recovery,
kernel shifts, complementary systems) are testable with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chains import GammaSeq
from .errors import AlphaOutOfRange, NonPositiveInput
from .scalars import Rat, coerce_exact, exact_tuple, parse_rational
from .streams import CoeffStream
from .systems import ThreeTermSystem


def _alpha_pair(alpha):
    """Numerator and denominator of an exact alpha > -1.

    The closed forms build each entry as one pair from these integers,
    e.g. b_n = 2n + alpha - 1 = ((2n - 1) q + p) / q for alpha = p/q; a pair
    (k q + p, q) with k an integer is reduced, since gcd(k q + p, q) = gcd(p, q).
    """
    alpha = coerce_exact(alpha)
    if not alpha > -1:
        raise AlphaOutOfRange(f"alpha = {alpha} must exceed -1")
    return alpha.numerator, alpha.denominator


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den as a reduced pair with a positive denominator, as ``Rat`` keeps it."""
    c = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // c, den // c


def laguerre_system(alpha) -> ThreeTermSystem:
    """Monic generalized Laguerre recurrence: b_n = 2n + alpha - 1,
    a_n^2 = n(n + alpha), valid for alpha > -1."""
    p, q = _alpha_pair(alpha)
    return ThreeTermSystem(
        CoeffStream.from_pairs(lambda n: ((2 * n - 1) * q + p, q)),
        CoeffStream.from_pairs(lambda n: _reduced(n * (n * q + p), q)),
    )


def e_family_system(alpha) -> ThreeTermSystem:
    """The companion family with b_n = 2n + alpha and a_n^2 = (n+1)(n+alpha).

    Equivalently the gamma_1 = 1 system of ``laguerre_gamma(alpha, 1)``; its
    polynomials are the order-1 associated Laguerre family with alpha
    shifted down by one.
    """
    p, q = _alpha_pair(alpha)
    return ThreeTermSystem(
        CoeffStream.from_pairs(lambda n: (2 * n * q + p, q)),
        CoeffStream.from_pairs(lambda n: _reduced((n + 1) * (n * q + p), q)),
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
    # gamma_{2n+1} = n + gamma1 holds at n = 0 as well
    return GammaSeq(CoeffStream.from_pairs(
        lambda k: ((k - 1) // 2 + gamma1, 1) if k % 2 else (k // 2 * q + p, q)))


# -- finite inverse-Laguerre class ------------------------------------------------


def _rr_ends(p, n: int) -> bool:
    """Whether step n ends the finite family: a factor p - 2n, p - 2n - 1,
    p - 2n - 2 or p - n - 1 vanishes or, for n >= 1, a_n^2 <= 0."""
    if 0 in (p - 2 * n, p - 2 * n - 1, p - 2 * n - 2, p - n - 1):
        return True
    return n >= 1 and not (p - n) * ((p - 2 * n) ** 2 - 1) > 0


def _rr_window(p) -> int:
    """n_max: the first step n <= 4095 that ends the family, else 4096.

    ``_rr_ends`` can change only at n = 1 and at the roots r of its factors,
    so the first step that ends the family is 0, 1, floor(r) or floor(r) + 1.
    """
    roots = (p / 2 - 1, (p - 1) / 2, p / 2, (p + 1) / 2, p - 1, p)
    steps = {0, 1, *(math.floor(r) + d for r in roots for d in (0, 1))}
    return min((n for n in steps if 0 <= n < 4096 and _rr_ends(p, n)), default=4096)


def rr_system(p) -> ThreeTermSystem:
    """The finite class of the module docstring at parameter p: lazy pair
    rules that stop at b_{n_max} and a_{n_max-1}^2, evaluated only where read."""
    p = coerce_exact(p)
    n_max = _rr_window(p)
    P, Q = p.numerator, p.denominator

    def b(n):
        return _reduced(P * Q, (P - 2 * (n - 1) * Q) * (P - 2 * n * Q))

    def a2(n):
        d = P - 2 * n * Q
        return _reduced(n * (P - n * Q) * Q ** 3, d * d * (d * d - Q * Q))

    return ThreeTermSystem(CoeffStream.from_pairs(b, stop=n_max),
                           CoeffStream.from_pairs(a2, stop=max(n_max - 1, 0)))


#: Closed-form families by name: (parameter, constructor, default gamma_1).
FAMILIES = {
    "laguerre": ("alpha", laguerre_system, 0),
    "e_family": ("alpha", e_family_system, 0),
    "laguerre_assoc1": ("alpha", e_family_system, 1),
    "routh_romanovski": ("p", rr_system, 0),
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
