import math
import random

import pytest

from opchain import (
    GammaSeq,
    Polynomial,
    Rat,
    associated_sequence,
    hat_system,
    kernel_invariance_condition,
    kernel_system,
    laguerre_gamma,
    laguerre_system,
    monic_sequence,
    q_system,
    swap_split_check,
    symmetric_sequence,
    system_from_gamma,
    systems_agree,
    tilde_kernel_system,
    tilde_system,
    truncate,
    u_system,
)
from opchain.chains import _gamma_system
from opchain.errors import (
    DegenerateFavard,
    Gamma1Zero,
    NonPositiveA2,
    NonPositiveGamma,
    OpchainError,
)
from opchain.perturb import quasi_holds, quasi_sides
from opchain.streams import CoeffStream
from opchain.systems import _pairs, _recurrence
from opchain.verify import _bumped, random_gamma

from reference import evaluate, even_part, odd_part, swapped_nu


def P(*coeffs):
    return Polynomial(coeffs)


G1234 = GammaSeq.from_values([1, 2, 3, 4])
G16 = GammaSeq.from_values([1, 2, 3, 4, 5, 6])


# -- gamma offsets ------------------------------------------------------------

# gamma_k = the k-th prime separates every offset row; gamma_k = k cannot,
# since there gamma_{2m-1} + gamma_{2m+2} = gamma_{2m} + gamma_{2m+1}
PRIMES = GammaSeq.from_values([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])


@pytest.mark.parametrize("build, b, a2", [
    (system_from_gamma, [5, 12, 24, 36], [15, 77, 221]),
    (lambda g: system_from_gamma(g, minimal_branch=True), [3, 12, 24, 36], [15, 77, 221]),
    (kernel_system, [8, 18, 30, 42], [35, 143, 323]),
    (tilde_system, [2, 12, 24, 36], [14, 65, 209]),
    (hat_system, [5, 12, 24, 36], [14, 65, 209]),
    (tilde_kernel_system, [9, 18, 30, 46], [35, 143, 323]),
    (q_system, [12, 24, 36, 52], [77, 221, 437]),
    (u_system, [5, 18, 30, 42], [35, 143, 323]),
], ids=["base", "base_minimal", "kernel", "tilde", "hat", "tilde_kernel", "q", "u"])
def test_gamma_offsets_on_primes(build, b, a2):
    s = build(PRIMES)
    assert s.b.window(1, 4) == b
    assert s.a2.window(1, 3) == a2


# -- every row is the base row of a moved gamma -------------------------------

# the operators on sequences, (S g)_k = g_{k+1} and (W g)_k = g_{k+1} for odd k,
# g_{k-1} for even k; a word is the composition it spells, rightmost first
_MOVES = {"S": lambda at: lambda k: at(k + 1),
          "W": lambda at: lambda k: at(k + 1 if k % 2 else k - 1)}


def _moved(gamma, word):
    at = gamma.at
    for letter in reversed(word):
        at = _MOVES[letter](at)
    return GammaSeq.from_fn(at)


# row: (constructor, word, minimal branch)
_WORD_ROWS = {
    "base": (system_from_gamma, "", False),
    "kernel": (kernel_system, "S", False),
    "tilde": (tilde_system, "W", True),
    "hat": (hat_system, "W", False),
    "tilde_kernel": (tilde_kernel_system, "SW", False),
    "q": (q_system, "SS", False),
    "u": (u_system, "S", True),
}


@pytest.mark.parametrize("row", sorted(_WORD_ROWS))
def test_each_row_is_the_base_row_of_its_word(row):
    make, word, minimal = _WORD_ROWS[row]
    rng = random.Random(2026)
    gammas = [random_gamma(rng, 100) for _ in range(5)]
    gammas += [laguerre_gamma(alpha, 1) for alpha in (Rat(-1, 2), Rat(0), Rat(7, 3))]
    for gamma in gammas:
        want = system_from_gamma(_moved(gamma, word), minimal_branch=minimal)
        assert systems_agree(make(gamma), want, 40)


def test_q_family_is_the_base_familys_associated_polynomials():
    # Q_n = z_{n+1} of the base family (either branch: z never reads b_1);
    # hat's z_{n+1} agrees only until a_1^2 enters, at n = 2
    gamma = random_gamma(random.Random(2027), 40)
    Q = monic_sequence(q_system(gamma), 12)
    base_z = associated_sequence(system_from_gamma(gamma), 13)
    hat_z = associated_sequence(hat_system(gamma), 13)
    assert all(Q[n] == base_z[n + 1] for n in range(13))
    assert [Q[n] == hat_z[n + 1] for n in range(13)] == [True, True] + [False] * 11


# -- the pairwise swap --------------------------------------------------------

def test_swapped_nu_basic():
    assert swapped_nu(G1234, 2).window(1, 4) == [2, 1, 4, 3]


def test_swapped_nu_fixed_point_on_equal_pairs():
    g = GammaSeq.from_values([1, 1, 2, 2, 3, 3])
    assert swapped_nu(g, 3).window(1, 6) == [1, 1, 2, 2, 3, 3]


def test_swapped_nu_rationals():
    g = GammaSeq.from_values([1, Rat(3, 2), 2, Rat(5, 2), 3, Rat(7, 2)])
    assert swapped_nu(g, 3).window(1, 6) == [Rat(3, 2), 1, Rat(5, 2), 2, Rat(7, 2), 3]


# -- tilde family -----------------------------------------------------------------

def test_tilde_worked_case():
    t = tilde_system(G1234)
    assert monic_sequence(t, 1)[1] == P(-1, 1)
    assert monic_sequence(t, 2)[2] == P(3, -8, 1)


def test_tilde_closed_form_on_shifted_tail():
    # gamma_1 = 1 tail: coefficients 2n + alpha + 2 and n(n + alpha + 1)
    for alpha in (Rat(0), Rat(1, 2)):
        t = tilde_system(laguerre_gamma(alpha, 1))
        assert monic_sequence(t, 1)[1] == P(-1, 1)
        for n in range(1, 10):
            assert t.b_at(n + 1) == 2 * n + alpha + 2
            assert t.a2_at(n) == n * (n + alpha + 1)


def test_tilde_requires_positive_leading_gamma():
    with pytest.raises(Gamma1Zero):
        tilde_system(laguerre_gamma(0, 0))


# -- hat family ------------------------------------------------------------------------

def test_hat_worked_case():
    h = hat_system(G1234)
    assert monic_sequence(h, 1)[1] == P(-3, 1)
    assert monic_sequence(h, 2)[2] == P(17, -10, 1)


def test_hat_of_shifted_tail_is_next_laguerre():
    for alpha in (Rat(0), Rat(1, 2)):
        h = hat_system(laguerre_gamma(alpha, 1))
        assert systems_agree(h, laguerre_system(alpha + 1), 20)


def test_hat_against_shifted_family_both_routes():
    # equal recurrence data to order 20 is equal P_0..P_20: the verify line
    # reads the data, the polynomials say the same
    for alpha in (Rat(0), Rat(1, 2), Rat(7, 3)):
        hat = hat_system(laguerre_gamma(alpha, 1))
        got = monic_sequence(hat, 20)
        for shift, want in ((1, True), (2, False)):
            ref = laguerre_system(alpha + shift)
            assert systems_agree(hat, ref, 20) is want
            assert (got == monic_sequence(ref, 20)) is want


def test_hat_degenerate_leading_entry():
    with pytest.raises(DegenerateFavard, match=r"a_1\^2 = gamma_1\*gamma_4 = 0"):
        hat_system(laguerre_gamma(0, 0))
    # the hat row itself still reads b = 1, 3 and a_1^2 = 0; a_1^2 never
    # multiplies anything nonzero, so P_2 = (x - 3)(x - 1) with no correction
    # term, but every reader of the block rejects the zero
    row = _gamma_system(laguerre_gamma(0, 0), (-1, 0, -1, 2, None))
    assert _recurrence(_pairs(row.b.window(1, 2)), _pairs(row.a2.window(1, 1)))[1] == P(3, -4, 1)
    with pytest.raises(NonPositiveA2, match=r"a2\[1\] = 0 is not positive"):
        monic_sequence(row, 2)


@pytest.mark.parametrize("index", [3, 4])
def test_u_system_rejects_zero_gamma_at_construction(index):
    vals = [1, 2, 3, 4, 5, 6]
    vals[index - 1] = 0
    with pytest.raises(NonPositiveGamma, match=f"gamma_{index} = 0"):
        u_system(GammaSeq.from_values(vals))


def test_co_recursive_shift():
    assert monic_sequence(tilde_system(G1234), 1)[1] \
        == monic_sequence(hat_system(G1234), 1)[1] + Polynomial([G1234.at(2)])


def test_tilde_and_hat_share_the_recurrence_tail():
    rng = random.Random(13)
    gamma = random_gamma(rng, 30)
    t, h = tilde_system(gamma), hat_system(gamma)
    for n in range(2, 12):
        assert t.b_at(n) == h.b_at(n)
    for n in range(1, 12):
        assert t.a2_at(n) == h.a2_at(n)


# -- tilde kernel ------------------------------------------------------------------------

def test_tilde_kernel_first_step():
    assert monic_sequence(tilde_kernel_system(G16), 1)[1] == P(-5, 1)
    assert monic_sequence(tilde_kernel_system(G16), 0)[0] == P(1)


def test_kernel_invariance_condition_cases():
    assert kernel_invariance_condition(laguerre_gamma(0, 0), 20)
    assert kernel_invariance_condition(laguerre_gamma(Rat(1, 2), 1), 20)
    broken = GammaSeq.from_values([1, 2, 3, 4, 5, 7, 7, 8, 9, 10])
    assert not kernel_invariance_condition(broken, 3)
    constant = GammaSeq.from_values([Rat(5, 3)] * 12)
    assert kernel_invariance_condition(constant, 5)


def test_invariance_condition_forces_equal_kernels():
    rng = random.Random(17)
    a = Rat(rng.randint(1, 9), 4)
    c = Rat(rng.randint(1, 9), 4)
    step = Rat(3, 7)
    vals = [(a if k % 2 else c) + ((k - 1) // 2) * step for k in range(1, 40)]
    gamma = GammaSeq.from_values(vals)
    N = 15
    assert kernel_invariance_condition(gamma, N)
    assert systems_agree(tilde_kernel_system(gamma), kernel_system(gamma), N)


# -- unified recurrence --------------------------------------------------------------------

def _unified_coefficients(gamma, variant, N):
    """The paper's (xi_1..xi_N, eta_2..eta_N), N >= 2, of the recurrence
    T_n = (x - xi_n) T_{n-1} - eta_n T_{n-2}, from the b and a2 of the base
    system (') and the kernel system ('').  eta_1 multiplies T_{-1} = 0.

    TildeP: xi_1 = gamma_1, xi_m = b'_m, eta_2 = gamma_1 gamma_4 and
    eta_{n+1} = a''_{n-1}^2 a''_n^2 / a'_n^2.  TildeK: xi_1 = gamma_1 + gamma_4,
    xi_m = b'_m + b'_{m+1} - b''_m and eta_m = a''_{m-1}^2.
    """
    base, ker = system_from_gamma(gamma), kernel_system(gamma)
    if variant == "TildeP":
        xi = [gamma.at(1)] + [base.b[m] for m in range(2, N + 1)]
        eta = [gamma.at(1) * gamma.at(4)] + [ker.a2[n - 1] * ker.a2[n] / base.a2[n]
                                             for n in range(2, N)]
    else:
        xi = [gamma.at(1) + gamma.at(4)] + [base.b[m] + base.b[m + 1] - ker.b[m]
                                            for m in range(2, N + 1)]
        eta = [ker.a2[m - 1] for m in range(2, N + 1)]
    return xi, eta


# G16 holds gamma_1..gamma_6: xi and eta to N = 3 for TildeP, whose eta are
# gamma_1 gamma_4 and gamma_3 gamma_6; to N = 2 for TildeK, which reads b'_{N+1}
@pytest.mark.parametrize("variant, row, N, pinned", [
    ("TildeP", tilde_system, 3, ([1, 7, 11], [4, 18])),
    ("TildeK", tilde_kernel_system, 2, ([5, 9], [12])),
], ids=["TildeP", "TildeK"])
def test_unified_recurrence_is_the_perturbed_row(variant, row, N, pinned):
    # the unified recurrence is the row's own (b, a2), entry for entry, so
    # its polynomials are the row's at every degree
    assert _unified_coefficients(G16, variant, N) == row(G16).block(N) == pinned
    rng = random.Random(23)
    gammas = [random_gamma(rng, 82) for _ in range(5)]
    gammas += [laguerre_gamma(alpha, 1) for alpha in (Rat(-1, 2), Rat(0), Rat(7, 3))]
    for gamma in gammas:
        assert _unified_coefficients(gamma, variant, 40) == row(gamma).block(40)


def _unified_sequence(xi, eta):
    """T_0..T_N of T_n = (x - xi_n) T_{n-1} - eta_n T_{n-2}."""
    return [P(1)] + _recurrence(_pairs(xi), _pairs(eta))


def test_unified_coefficients_values():
    xi, eta = _unified_coefficients(G16, "TildeP", 3)
    assert eta == [4, 18]  # gamma_1*gamma_4 and gamma_3*gamma_6
    xi_k, eta_k = _unified_coefficients(G16, "TildeK", 2)
    assert xi_k[0] == 5 and eta_k == [12]  # gamma_1 + gamma_4 and a''_1^2


def test_unified_reproduces_tilde():
    rng = random.Random(21)
    gamma = random_gamma(rng, 36)
    T = _unified_sequence(*_unified_coefficients(gamma, "TildeP", 15))
    ref = monic_sequence(tilde_system(gamma), 15)
    assert len(T) == 16 and all(T[m] == ref[m] for m in range(16))
    assert T[2] == monic_sequence(tilde_system(gamma), 2)[2]


def test_unified_reproduces_tilde_kernel():
    rng = random.Random(22)
    gamma = random_gamma(rng, 36)
    T = _unified_sequence(*_unified_coefficients(gamma, "TildeK", 15))
    ref = monic_sequence(tilde_kernel_system(gamma), 15)
    assert len(T) == 16 and all(T[m] == ref[m] for m in range(16))


# -- q and u families ------------------------------------------------------------------------

def test_q_first_steps():
    assert monic_sequence(q_system(G16), 1)[1] == P(-7, 1)
    assert monic_sequence(q_system(G16), 0)[0] == P(1)


def test_q_on_laguerre_tail():
    q = q_system(laguerre_gamma(0, 0))  # gamma_3 = 1, gamma_4 = 2
    assert monic_sequence(q, 1)[1] == P(-3, 1)


def test_u_first_data():
    u = u_system(G16)
    assert monic_sequence(u, 1)[1] == P(-3, 1)
    assert u.b_at(2) == 9      # gamma_4 + gamma_5
    assert u.a2_at(1) == 12    # gamma_3 * gamma_4


def test_u_q_ladder_identity():
    rng = random.Random(23)
    gamma = random_gamma(rng, 36)
    U = monic_sequence(u_system(gamma), 11)
    Q = monic_sequence(q_system(gamma), 10)
    x = Polynomial.x()
    for n in range(11):
        assert x * Q[n] == U[n + 1] + U[n].scale(gamma.at(2 * n + 3))


def test_u_value_at_origin_is_alternating_product():
    rng = random.Random(24)
    gamma = random_gamma(rng, 30)
    U = monic_sequence(u_system(gamma), 8)
    for n in range(8):
        expected = Rat(-1) ** (n + 1) * math.prod(gamma.at(2 * j + 3) for j in range(n + 1))
        assert evaluate(U[n + 1], Rat(0)) == expected


def test_u_is_co_recursive_with_kernel():
    rng = random.Random(25)
    gamma = random_gamma(rng, 30)
    U = monic_sequence(u_system(gamma), 9)
    K = monic_sequence(kernel_system(gamma), 9)
    K1 = associated_sequence(kernel_system(gamma), 9)
    for n in range(10):
        assert U[n] == K[n] + K1[n].scale(gamma.at(2))


# -- quasi-orthogonality ------------------------------------------------------------------------

def test_quasi_orthogonality_laguerre():
    g = laguerre_gamma(0, 0)
    lhs, rhs = quasi_sides(g, g, 1)
    assert lhs == rhs and (lhs - rhs).is_zero()


def test_quasi_orthogonality_random():
    rng = random.Random(26)
    for _ in range(4):
        gamma = random_gamma(rng, 30)
        for n in range(1, 9):
            lhs, rhs = quasi_sides(gamma, gamma, n)
            assert lhs == rhs


def test_quasi_orthogonality_detects_one_sided_corruption():
    # the right side collapses to x*P_{n+1}, so the highest two gammas
    # (2n+3, 2n+4) cancel identically; gamma_{2n+2} survives in b_{n+1}
    # and a one-sided bump there must surface as a nonzero difference
    rng = random.Random(27)
    gamma = random_gamma(rng, 30)
    n = 3
    vals = gamma.window(1, 30)
    vals[2 * n + 1] = vals[2 * n + 1] + 1  # gamma_{2n+2}
    other = GammaSeq.from_values(vals)
    lhs, _ = quasi_sides(gamma, gamma, n)
    _, rhs = quasi_sides(other, other, n)
    assert not (lhs - rhs).is_zero()


def test_quasi_orthogonality_boundary_gammas_cancel():
    # bumping gamma_{2n+4} alone changes neither side: the combination is
    # provably independent of it
    rng = random.Random(30)
    gamma = random_gamma(rng, 30)
    n = 3
    vals = gamma.window(1, 30)
    vals[2 * n + 3] = vals[2 * n + 3] + 1
    other = GammaSeq.from_values(vals)
    lhs, rhs = quasi_sides(gamma, gamma, n)
    lhs2, rhs2 = quasi_sides(other, other, n)
    assert lhs == lhs2 and rhs == rhs2


def test_quasi_holds_matches_quasi_sides():
    # one evaluation per family decides every m <= n, each side from its own
    # gamma: the same sequence, a bump at gamma_{2n+2} on the right (which
    # breaks m = n - 1 and m = n), and an unrelated right-hand sequence
    rng = random.Random(31)
    for n in range(1, 11):
        g = random_gamma(rng, 2 * n + 6)
        for h in (g, _bumped(g, 2 * n + 2, 2 * n + 6), random_gamma(rng, 2 * n + 6)):
            want = []
            for m in range(1, n + 1):
                lhs, rhs = quasi_sides(g, h, m)
                want.append(lhs == rhs)
            assert quasi_holds(g, h, n) == want


# -- even/odd split of the swapped family -----------------------------------------------------------

def test_swap_split_worked_case():
    rep = swap_split_check(G1234, 1)
    assert rep.ok


def test_swap_split_random_depth():
    rng = random.Random(28)
    gamma = random_gamma(rng, 34)
    rep = swap_split_check(gamma, 14)
    assert rep.ok and rep.first_failure is None


def test_swap_split_disabled_lands_on_unperturbed():
    # the unswapped nu = gamma split classically: even parts give the
    # minimal-branch base family, odd parts the kernel family
    rng = random.Random(29)
    gamma = GammaSeq.from_values([0] + random_gamma(rng, 34).window(2, 34))
    N = 10
    S = symmetric_sequence(CoeffStream.from_values(gamma.window(1, 2 * N + 2)), 2 * N + 1)
    P = monic_sequence(system_from_gamma(gamma, minimal_branch=True), N)
    K = monic_sequence(kernel_system(gamma), N)
    for n in range(N + 1):
        assert even_part(S[2 * n]) == P[n]
        assert odd_part(S[2 * n + 1]) == K[n]


def _reference_split_items(gamma, N, tilde_gamma=None):
    """swap_split_check's items, from the symmetric sequence, its even and
    odd parts and the monic sequences, compared with ==."""
    S = symmetric_sequence(swapped_nu(gamma, N + 1), 2 * N + 1)
    P = monic_sequence(tilde_system(tilde_gamma if tilde_gamma is not None else gamma), N)
    K = monic_sequence(tilde_kernel_system(gamma), N)
    items = []
    for n in range(N + 1):
        items.append(("even_part(S_2n) == P_n", n, even_part(S[2 * n]) == P[n]))
        items.append(("odd_part(S_2n+1) == K_n", n, odd_part(S[2 * n + 1]) == K[n]))
    return tuple(items)


def test_swap_split_items_equal_the_polynomial_reference():
    rng = random.Random(1819)
    failed = 0
    for N in (0, 1, 2, 12):
        for gamma in (random_gamma(rng, 2 * N + 6), laguerre_gamma(Rat(7, 3), 1)):
            assert swap_split_check(gamma, N).items == _reference_split_items(gamma, N)
            vals = gamma.window(1, 2 * N + 6)
            for k in range(0, 2 * N + 4, 3):
                bad = list(vals)
                bad[k] += Rat(1, 3)
                tilde = GammaSeq.from_values(bad)
                got = swap_split_check(gamma, N, tilde_gamma=tilde).items
                assert got == _reference_split_items(gamma, N, tilde), (N, k)
                failed += sum(not ok for _, _, ok in got)
    assert failed > 50  # the corrupt runs fail items, so both outcomes are compared


def test_swap_split_fails_as_the_polynomial_reference():
    # a gamma cut short, or with one entry 0, raises the reference's error
    # at the reference's index: the reads keep their order
    def outcome(f):
        try:
            return f()
        except OpchainError as exc:
            return type(exc), getattr(exc, "index", None), str(exc)

    rng = random.Random(1820)
    for N in (1, 4):
        vals = random_gamma(rng, 2 * N + 4).window(1, 2 * N + 4)
        for k in range(len(vals)):
            for bad in (vals[:k], vals[:k] + [Rat(0)] + vals[k + 1:]):
                gamma = GammaSeq.from_values(bad)
                got = outcome(lambda: swap_split_check(gamma, N).items)
                assert got == outcome(lambda: _reference_split_items(gamma, N)), (N, k)


def test_swap_split_rejects_zero_gamma1():
    with pytest.raises(Gamma1Zero):
        swap_split_check(laguerre_gamma(0, 0), 5)


# -- zero sums ------------------------------------------------------------------------------

def test_zero_sums_match_traces_exactly():
    # the sum of the zeros of P_n is the trace of the order-n block:
    # gamma_2 + ... + gamma_2n for the minimal-branch base family and
    # gamma_1 + gamma_3 + ... + gamma_2n for tilde, equal when gamma_1 = gamma_2
    rng = random.Random(24)
    cases = [laguerre_gamma(0, 1), GammaSeq.from_values([2, 2] + list(range(2, 20)))]
    cases += [random_gamma(rng, 20) for _ in range(3)]
    for gamma in cases:
        base = system_from_gamma(gamma, minimal_branch=True)
        for n in range(1, 9):
            tail = sum(gamma.window(3, 2 * n), Rat(0))
            assert sum(truncate(base, n).diag) == gamma.at(2) + tail
            assert sum(truncate(tilde_system(gamma), n).diag) == gamma.at(1) + tail
