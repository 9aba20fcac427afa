"""Families generated by the pairwise swap of a gamma sequence.

Swapping each pair (gamma_{2k-1}, gamma_{2k}) of the symmetric recurrence
coefficients produces a perturbed symmetric family whose even/odd split
yields two new systems: the "tilde" family attached to the complementary
chain sequence (requires gamma_1 > 0) and its kernel companion.  Running
the same tilde recurrence from index zero gives the "hat" family of the
generalised complementary chain sequence, co-recursive with tilde.  The
constructions on the associated polynomials give the Q and U families.
Each is the base row of g moved by a word in ``chains``' shift S and pair
swap W: hat W, tilde kernel SW and Q SS, with tilde (W) and U (S) on the
minimal branch.  So tilde/tilde kernel is the classical even/odd split of
W g, and the co-recursive pairs (tilde/hat, U/kernel) differ only in b_1.

Every identity in this module is checked exactly; reports carry the first
violated index, instead of a boolean lost to tolerance.
``swap_split_check`` and ``quasi_holds`` decide each item by comparing
both sides at one point x = 2^B past the height of their difference
(``systems._relations_hold``).  ``quasi_sides`` states the
quasi-orthogonality identity as its two polynomials.
"""

from __future__ import annotations

from .chains import (GammaSeq, IdentityReport, _INDEX_MAPS, _gamma_system, _row, kernel_system,
                     system_from_gamma)
from .errors import DegenerateFavard, Gamma1Zero
from .poly import Polynomial
from .systems import (
    ThreeTermSystem,
    _Evaluation,
    _associated_block,
    _order,
    _pairs,
    _relations_hold,
    _steps,
    associated_sequence,
    monic_sequence,
)


def tilde_system(gamma: GammaSeq) -> ThreeTermSystem:
    """System of the complementary chain sequence: b_1 = gamma_1,
    b_m = gamma_{2m-1} + gamma_{2m} for m >= 2, a_n^2 = gamma_{2n-1} gamma_{2n+2}.

    gamma_1 = 0 is a hard error: the construction's hypothesis fails and the
    leading polynomial x - gamma_1 would degenerate to x.
    """
    if gamma._pair(1)[0] == 0:
        raise Gamma1Zero("tilde construction requires gamma_1 > 0")
    return _gamma_system(gamma, _row("W", minimal_branch=True))


def hat_system(gamma: GammaSeq) -> ThreeTermSystem:
    """Same recurrence as tilde but started one step earlier, so
    b_m = gamma_{2m-1} + gamma_{2m} for all m >= 1.

    gamma_1 = 0 is DegenerateFavard: the first subdiagonal entry
    a_1^2 = gamma_1 gamma_4 would vanish.
    """
    if gamma._pair(1)[0] == 0:
        raise DegenerateFavard("hat system has a_1^2 = gamma_1*gamma_4 = 0")
    return _gamma_system(gamma, _row("W"))


def tilde_kernel_system(gamma: GammaSeq) -> ThreeTermSystem:
    """Kernel companion of the swapped family:
    b_m = gamma_{2m-1} + gamma_{2m+2}, a_n^2 = gamma_{2n+1} gamma_{2n+2}."""
    return _gamma_system(gamma, _row("SW"))


def kernel_invariance_condition(gamma: GammaSeq, N: int) -> bool:
    """True iff gamma_{2n+1} - gamma_{2n-1} = gamma_{2n+2} - gamma_{2n} for n <= N.

    When the increments match to N, the kernel system and the swapped
    family's kernel companion have identical recurrence coefficients up to
    index N.
    """
    return all(
        gamma.at(2 * n + 1) - gamma.at(2 * n - 1) == gamma.at(2 * n + 2) - gamma.at(2 * n)
        for n in range(1, _order(N) + 1)
    )


def q_system(gamma: GammaSeq) -> ThreeTermSystem:
    """The associated polynomials of the base family, Q_n = z_{n+1}:
    b_m = gamma_{2m+1} + gamma_{2m+2}, a_n^2 = gamma_{2n+2} gamma_{2n+3}."""
    return _gamma_system(gamma, _row("SS"))


def u_system(gamma: GammaSeq) -> ThreeTermSystem:
    """The family co-recursive with the kernel system: b_1 = gamma_3,
    b_m = gamma_{2m} + gamma_{2m+1} for m >= 2, a_n^2 = gamma_{2n+1} gamma_{2n+2}.

    A gamma_3 or gamma_4 that is not positive raises NonPositiveGamma here,
    at construction: then a_1^2 <= 0 and the recurrence defines no
    orthogonal family."""
    gamma._pair(3), gamma._pair(4)
    return _gamma_system(gamma, _row("S", minimal_branch=True))


# -- identity checks -------------------------------------------------------------


def swap_split_check(gamma: GammaSeq, N: int,
                     tilde_gamma: GammaSeq | None = None) -> IdentityReport:
    """Even/odd split of the swapped symmetric family S, of coefficients nu = W g.

    even_part(S_{2n}) must equal the tilde polynomial and odd_part(S_{2n+1})
    the tilde-kernel polynomial, exactly, for n <= N.  Both identities hold
    for every gamma with gamma_1 > 0, so a negative control must
    desynchronise one ingredient: ``tilde_gamma`` feeds the tilde family
    from a different sequence.

    S is run through its parity parts E_n(x^2) = S_{2n} and
    x O_n(x^2) = S_{2n+1}, which obey E_n = y O_{n-1} - nu_{2n} E_{n-1} and
    O_n = E_n - nu_{2n+1} O_{n-1} in y = x^2: the symmetric recurrence
    restated, not the split under test.  Every item compares two values at
    one exact point (``systems._relations_hold``).
    """
    # nu_1..nu_{2N+2}, read first: a fault there is raised before the tilde family's
    nu = [gamma._pair(_INDEX_MAPS["W"](k)) for k in range(1, 2 * _order(N) + 3)]
    # raises Gamma1Zero when gamma_1 = 0
    even_sys = tilde_system(tilde_gamma if tilde_gamma is not None else gamma)
    odd_sys = tilde_kernel_system(gamma)
    # U_k = S_k / x^(k mod 2) in y: step k multiplies by y when k is even,
    # by 1 when k is odd, and U_1 = U_0 = 1
    U = _Evaluation(((k % 2 == 0, (0, 1) if k % 2 == 0 else (-1, 1), s)
                     for k, s in enumerate(((0, 1), *nu[1:2 * N + 1]), 1)))
    P = _Evaluation(_steps(*even_sys._block_pairs(N)))
    K = _Evaluation(_steps(*odd_sys._block_pairs(N)))
    relations = []
    for n in range(0, N + 1):
        relations.append([((1, 1), 0, U, 2 * n), ((-1, 1), 0, P, n)])
        relations.append([((1, 1), 0, U, 2 * n + 1), ((-1, 1), 0, K, n)])
    held = iter(_relations_hold(relations))
    items = []
    for n in range(0, N + 1):
        items.append(("even_part(S_2n) == P_n", n, next(held)))
        items.append(("odd_part(S_2n+1) == K_n", n, next(held)))
    return IdentityReport(tuple(items))


def quasi_sides(gamma_lhs: GammaSeq, gamma_rhs: GammaSeq, n: int):
    """Both sides (lhs, rhs) of the order-2 quasi-orthogonality identity

        x^2 Q_n - gamma_2 * x * (K1_{n+1} + gamma_{2n+3} K1_n)
          = P_{n+2} + (gamma_{2n+3} + gamma_{2n+4}) P_{n+1}
            + gamma_{2n+2} gamma_{2n+3} P_n

    where K1 is the associated sequence of the kernel system and P the
    minimal-branch base family.  The left side is the combination that is
    quasi-orthogonal of order 2.  With ``gamma_lhs`` and ``gamma_rhs`` the
    same sequence the identity holds exactly: lhs == rhs.  The sides are
    separately parameterised so negative controls can corrupt one side
    only; ``lhs - rhs`` is then the difference polynomial.
    """
    Q = monic_sequence(q_system(gamma_lhs), n)
    K1 = associated_sequence(kernel_system(gamma_lhs), n + 1)
    P = monic_sequence(system_from_gamma(gamma_rhs, minimal_branch=True), n + 2)
    x = Polynomial.x()
    g, h = gamma_lhs.at, gamma_rhs.at
    lhs = (x * x) * Q[n] - (x * (K1[n + 1] + K1[n].scale(g(2 * n + 3)))).scale(g(2))
    rhs = (P[n + 2]
           + P[n + 1].scale(h(2 * n + 3) + h(2 * n + 4))
           + P[n].scale(h(2 * n + 2) * h(2 * n + 3)))
    return lhs, rhs


def quasi_holds(gamma_lhs: GammaSeq, gamma_rhs: GammaSeq, n: int) -> list[bool]:
    """[lhs == rhs of ``quasi_sides(gamma_lhs, gamma_rhs, m)`` for m = 1..n],
    each decided at one exact point (``systems._relations_hold``) over one
    evaluation each of Q, K1 and P.  For n >= 1 it raises what the m = n call does."""
    Q = _Evaluation(_steps(*q_system(gamma_lhs)._block_pairs(n)))
    # index k holds z_{k+1}, so K1_m is K1's entry m - 1
    K1 = _Evaluation(_steps(*_associated_block(kernel_system(gamma_lhs), n + 1)))
    P = _Evaluation(_steps(*system_from_gamma(gamma_rhs, minimal_branch=True)._block_pairs(n + 2)))
    g, h = gamma_lhs.at, gamma_rhs.at
    relations = []
    for m in range(1, n + 1):  # rhs - lhs
        c2, c3, c1, c0 = _pairs((g(2), g(2) * g(2 * m + 3), h(2 * m + 3) + h(2 * m + 4),
                                 h(2 * m + 2) * h(2 * m + 3)))
        relations.append([((-1, 1), 2, Q, m), (c2, 1, K1, m), (c3, 1, K1, m - 1),
                          ((1, 1), 0, P, m + 2), (c1, 0, P, m + 1), (c0, 0, P, m)])
    return _relations_hold(relations)
