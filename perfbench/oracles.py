"""Reference values computed without opchain's code paths.

Everything here works on plain ``fractions.Fraction`` values and lists of
coefficients (ascending degree), so an oracle never shares the polynomial
arithmetic, recurrence kernel or moment routine it is checking.  Closed
forms are taken from the definitions in the library's docstrings.
"""

from __future__ import annotations

from fractions import Fraction

# -- recurrence data from a plain gamma list (g[k] is gamma_k, g[0] unused) --


def system_coeffs(variant: str, g: list, n: int) -> tuple[list, list]:
    """b_1..b_n and a2_1..a2_{n-1} of a gamma-built system, by closed form.

    Index 0 of both returned lists is a placeholder so that b[m] is b_m.
    """
    def b(m):
        if variant == "base":
            return g[2 * m - 1] + g[2 * m]
        if variant == "tilde":
            return g[1] if m == 1 else g[2 * m - 1] + g[2 * m]
        if variant == "hat":
            return g[2 * m - 1] + g[2 * m]
        if variant == "tilde_kernel":
            return g[2 * m - 1] + g[2 * m + 2]
        if variant == "q":
            return g[2 * m + 1] + g[2 * m + 2]
        if variant == "u":
            return g[3] if m == 1 else g[2 * m] + g[2 * m + 1]
        raise ValueError(variant)

    def a2(k):
        if variant == "base":
            return g[2 * k] * g[2 * k + 1]
        if variant in ("tilde", "hat"):
            return g[2 * k - 1] * g[2 * k + 2]
        if variant in ("tilde_kernel", "u"):
            return g[2 * k + 1] * g[2 * k + 2]
        if variant == "q":
            return g[2 * k + 2] * g[2 * k + 3]
        raise ValueError(variant)

    return [None] + [b(m) for m in range(1, n + 1)], [None] + [a2(k) for k in range(1, n)]


def laguerre_coeffs(alpha: Fraction, n: int) -> tuple[list, list]:
    """b_m = 2m + alpha - 1, a_m^2 = m(m + alpha)."""
    return ([None] + [2 * m + alpha - 1 for m in range(1, n + 1)],
            [None] + [m * (m + alpha) for m in range(1, n)])


def e_family_coeffs(alpha: Fraction, n: int) -> tuple[list, list]:
    """b_m = 2m + alpha, a_m^2 = (m + 1)(m + alpha)."""
    return ([None] + [2 * m + alpha for m in range(1, n + 1)],
            [None] + [(m + 1) * (m + alpha) for m in range(1, n)])


def family_coeffs(name: str, alpha: Fraction, n: int) -> tuple[list, list]:
    if name == "laguerre":
        return laguerre_coeffs(alpha, n)
    return e_family_coeffs(alpha, n)


def laguerre_gamma(alpha: Fraction, gamma1: int, upto: int) -> list:
    """gamma_1..gamma_upto: gamma_1 = gamma1, gamma_2m = m + alpha,
    gamma_{2m+1} = m + gamma1."""
    out = [Fraction(gamma1)]
    for k in range(2, upto + 1):
        out.append(Fraction(k, 2) + alpha if k % 2 == 0 else Fraction((k - 1) // 2 + gamma1))
    return out


def rising_factorial(a: Fraction, k: int) -> Fraction:
    """(a)_k = a (a+1) ... (a+k-1); the Laguerre moment mu_k/mu_0 for a = alpha+1."""
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


# -- own polynomial and recurrence arithmetic ---------------------------------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def monic_family(b: list, a2: list, n: int, start: int = 0) -> list:
    """P_0..P_n (start=0) or z_0..z_n (start=1, the associated numerators) of
    P_{k+1} = (x - b_{k+1}) P_k - a2_k P_{k-1}, as coefficient lists."""
    if start == 0:
        prev, cur, k0, out = [], [Fraction(1)], 1, [[Fraction(1)]]
    else:
        prev, cur, k0, out = [], [Fraction(1)], 2, [[], [Fraction(1)]]
    for k in range(k0, n + 1):
        nxt = [Fraction(0)] + cur                       # x * cur
        for i, c in enumerate(cur):
            nxt[i] -= b[k] * c
        if k - 1 >= 1 and prev:
            for i, c in enumerate(prev):
                nxt[i] -= a2[k - 1] * c
        prev, cur = cur, _trim(nxt)
        out.append(cur)
    return out[: n + 1]


def eval_recurrence(b: list, a2: list, n: int, x: Fraction) -> Fraction:
    """P_n(x) by the scalar three-term recurrence (no polynomials formed)."""
    prev, cur = Fraction(0), Fraction(1)
    for k in range(1, n + 1):
        prev, cur = cur, (x - b[k]) * cur - (a2[k - 1] * prev if k >= 2 else 0)
    return cur


def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def moments_walk(b: list, a2: list, K: int) -> list:
    """mu_0..mu_K (normalised, mu_0 = 1) as e_1^T J^k e_1, by one walk of a
    row vector over the tridiagonal monic Jacobi matrix (unit superdiagonal,
    a2 on the subdiagonal).  ``b`` and ``a2`` need K//2 + 2 entries."""
    size = K // 2 + 2
    row = [Fraction(1)] + [Fraction(0)] * (size - 1)
    out = [Fraction(1)]
    for _ in range(K):
        new = []
        for j in range(size):
            v = row[j] * b[j + 1]
            if j >= 1:
                v += row[j - 1]
            if j + 1 < size:
                v += row[j + 1] * a2[j + 1]
            new.append(v)
        row = new
        out.append(row[0])
    return out


def even_odd_split(g: list, N: int) -> tuple[list, list]:
    """Even and odd parts of the pairwise-swapped symmetric family.

    S_n = x S_{n-1} - nu_n S_{n-2} with nu_{2j} = gamma_{2j-1} and
    nu_{2j+1} = gamma_{2j+2}; returns (even_part(S_2m), odd_part(S_2m+1))
    for m = 0..N, which the paper's split theorem equates with the tilde
    and tilde-kernel families.
    """
    nu = [None] + [g[k - 1] if k % 2 == 0 else g[k + 1] for k in range(1, 2 * N + 2)]
    prev, cur, S = [], [Fraction(1)], [[Fraction(1)]]
    for k in range(1, 2 * N + 2):
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(prev):
            nxt[i] -= nu[k] * c
        prev, cur = cur, _trim(nxt)
        S.append(cur)
    return ([S[2 * m][0::2] for m in range(N + 1)],
            [S[2 * m + 1][1::2] for m in range(N + 1)])


def bit_height(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    best = 0
    for v in values:
        f = Fraction(v)
        best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best
