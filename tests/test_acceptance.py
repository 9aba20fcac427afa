"""Acceptance criteria.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output).  Every algebraic criterion runs on the
exact backend with zero tolerance; the stated float tolerances appear only
where zeros are bracketed numerically.
"""

import math
import random
from contextlib import contextmanager

import pytest

from opchain import (
    GammaSeq,
    Rat,
    chain_at,
    complementary,
    convergent,
    gamma_from_system,
    generalised_complementary,
    kernel_system,
    laguerre_gamma,
    laguerre_system,
    laurent_expand,
    lu_factor,
    minimal_parameters,
    moments,
    monic_sequence,
    parameters_from_gamma,
    symmetric_sequence,
    system_from_gamma,
    systems_agree,
    tilde_kernel_system,
    tilde_system,
    truncate,
    ul_product,
    zeros,
)
from opchain.errors import Gamma1Zero, NotAChainSequence, StreamExhausted
from opchain.perturb import quasi_sides
from opchain.verify import random_gamma, run_suite

from reference import (
    ZeroDenominator,
    darboux_pivot_check,
    even_part,
    interlace_check,
    odd_part,
    rr_raw_step,
    swapped_nu,
    value_gamma,
)

ALPHAS = (Rat(-1, 2), Rat(0), Rat(1), Rat(7, 3))


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {cid:2d}] FAIL  {description}")
        raise
    print(f"[criterion {cid:2d}] PASS  {description}")


def seeded_gammas(seed, count, length):
    rng = random.Random(seed)
    return [random_gamma(rng, length) for _ in range(count)]


def test_criterion_1_laguerre_closed_forms():
    with criterion(1, "gamma recovery and minimal parameters, exact, n<=50"):
        for alpha in ALPHAS:
            sys = laguerre_system(alpha)
            g = gamma_from_system(sys, Rat(0), 50)
            assert g.at(1) == 0
            for n in range(1, 51):
                assert g.at(2 * n) == n + alpha
                assert g.at(2 * n + 1) == n
            m = minimal_parameters(chain_at(sys, Rat(0), 50), 50)
            for n in range(51):
                assert m[n] == Rat(n) / (2 * n + alpha + 1)


def test_criterion_2_kernel_is_shifted_laguerre():
    with criterion(2, "kernel system equals the alpha+1 family, exact, n<=50"):
        for alpha in ALPHAS:
            ker = kernel_system(laguerre_gamma(alpha, 0))
            assert systems_agree(ker, laguerre_system(alpha + 1), 50)
            assert ker.a2_at(50) == laguerre_system(alpha + 1).a2_at(50)


def test_criterion_3_swap_split():
    with criterion(3, "even/odd split of the swapped family, 25 samples, n<=15"):
        for gamma in seeded_gammas(101, 25, 34):
            S = symmetric_sequence(swapped_nu(gamma, 16), 31)
            P = monic_sequence(tilde_system(gamma), 15)
            K = monic_sequence(tilde_kernel_system(gamma), 15)
            for n in range(16):
                assert even_part(S[2 * n]) == P[n]
                assert odd_part(S[2 * n + 1]) == K[n]


def test_criterion_4_generalised_complementary():
    with criterion(4, "GCC parameters k'=1-g (n<=30) and hat = shifted family (n<=20)"):
        for gamma in seeded_gammas(202, 25, 64):
            g = parameters_from_gamma(gamma, 30)
            kprime = generalised_complementary(g).parameters
            for n in range(31):
                assert kprime[n] == 1 - g[n]
        from opchain import hat_system
        for alpha in ALPHAS:
            hat = hat_system(laguerre_gamma(alpha, 1))
            ref = monic_sequence(laguerre_system(alpha + 1), 20)
            got = monic_sequence(hat, 20)
            assert all(got[n] == ref[n] for n in range(21))


def test_criterion_5_kernel_invariance():
    with criterion(5, "matching increments fix the kernel coefficients; mutation breaks"):
        from opchain import kernel_invariance_condition
        N = 30
        for alpha in ALPHAS:
            for g1 in (0, 1):
                gamma = laguerre_gamma(alpha, g1)
                assert kernel_invariance_condition(gamma, N)
                assert systems_agree(tilde_kernel_system(gamma), kernel_system(gamma), N)
        rng = random.Random(303)
        for _ in range(10):
            a = Rat(rng.randint(1, 40), rng.randint(1, 8))
            c = Rat(rng.randint(1, 40), rng.randint(1, 8))
            step = Rat(rng.randint(1, 16), rng.randint(1, 8))
            vals = [(a if k % 2 else c) + ((k - 1) // 2) * step
                    for k in range(1, 2 * N + 7)]
            gamma = GammaSeq.from_values(vals)
            assert kernel_invariance_condition(gamma, N)
            assert systems_agree(tilde_kernel_system(gamma), kernel_system(gamma), N)
            mutated = list(vals)
            mutated[7] = mutated[7] + 1  # break one even entry
            bad = GammaSeq.from_values(mutated)
            assert not kernel_invariance_condition(bad, N)
            assert not systems_agree(tilde_kernel_system(bad), kernel_system(bad), N)


def test_criterion_6_quasi_orthogonality():
    with criterion(6, "quasi-orthogonality identity exact (n<=10, 25 samples) "
                      "+ corruption detected"):
        gammas = seeded_gammas(404, 25, 64)
        for gamma in gammas:
            for n in range(1, 11):
                lhs, rhs = quasi_sides(gamma, gamma, n)
                assert lhs == rhs
        gamma = gammas[0]
        n = 10
        vals = gamma.window(1, 64)
        vals[2 * n + 1] = vals[2 * n + 1] + Rat(1, 3)  # bump gamma_{2n+2}
        other = GammaSeq.from_values(vals)
        lhs, _ = quasi_sides(gamma, gamma, n)
        _, rhs = quasi_sides(other, other, n)
        assert not (lhs - rhs).is_zero()


def test_criterion_7_lu_darboux():
    with criterion(7, "L.U = J exact (n<=25), pivots = even gammas, U.L = kernel "
                      "matrix off the boundary"):
        from opchain import e_family_system, rr_system
        cases = [
            (laguerre_system(Rat(0)), 25),
            (laguerre_system(Rat(1)), 25),
            (laguerre_system(Rat(7, 3)), 25),
            (e_family_system(Rat(0)), 25),
            (e_family_system(Rat(1, 2)), 25),
            (rr_system(10), 3),
        ]
        for sys, n in cases:
            J = truncate(sys, n)
            f = lu_factor(J, Rat(0))
            assert f.product() == J and f.reconstruct() == J
            assert darboux_pivot_check(sys, Rat(0), n)
            gamma = gamma_from_system(sys, Rat(0), n)
            ul = ul_product(f)
            K = truncate(kernel_system(gamma), n)
            assert ul.diag[:-1] == K.diag[:-1]
            assert ul.sub == K.sub
            assert ul.diag[-1] == gamma.at(2 * n)
            assert K.diag[-1] == gamma.at(2 * n) + gamma.at(2 * n + 1)


def test_criterion_8_zeros_and_traces():
    with criterion(8, "zeros 2 +/- sqrt(2) @1e-10; sums vs traces; kernel interlacing"):
        lag = laguerre_system(0)
        z = zeros(lag, 2, 1e-12)
        assert abs(z[0] - (2 - math.sqrt(2))) <= 1e-10
        assert abs(z[1] - (2 + math.sqrt(2))) <= 1e-10
        gamma = laguerre_gamma(0, 0)
        tol = 1e-12
        for n in range(1, 9):
            zz = zeros(lag, n, tol)
            tr = truncate(lag, n).trace()
            assert abs(sum(zz) - float(tr)) <= n * tol
            assert tr == sum(gamma.window(2, 2 * n), Rat(0))
            kz = zeros(laguerre_system(1), n, tol)
            assert interlace_check(zz, kz, 1e-9).interlaced


def test_criterion_9_moments_and_convergents():
    with criterion(9, "Laurent expansion of convergents = matrix-power moments; k!"):
        systems = [
            laguerre_system(0),
            laguerre_system(1),
            system_from_gamma(value_gamma(lambda k: Rat(k))),
            system_from_gamma(seeded_gammas(505, 1, 40)[0]),
        ]
        for sys in systems:
            for n in range(1, 9):
                num, den = convergent(sys, n)
                series = laurent_expand(num, den, 2 * n)
                assert list(series.coeffs) == [moments(sys, k) for k in range(2 * n)]
        fact = 1
        for k in range(11):
            if k:
                fact *= k
            assert moments(laguerre_system(0), k) == fact


def test_criterion_10_negative_controls():
    with criterion(10, "hard errors and corruption hooks all fire"):
        with pytest.raises(Gamma1Zero):
            tilde_system(laguerre_gamma(0, 0))
        with pytest.raises(NotAChainSequence) as exc:
            from opchain import ChainSequence
            minimal_parameters(ChainSequence.from_values([Rat(2)]), 1)
        assert exc.value.index == 1
        with pytest.raises(ZeroDenominator) as exc:
            rr_raw_step(Rat(10), 4)
        assert exc.value.index == 4
        from opchain import rr_system
        with pytest.raises(StreamExhausted) as exc:
            rr_system(10).b_at(5)
        assert exc.value.index == 5
        for suite in ("theorem33", "gccs", "kernel_invariance", "quasi_orth",
                      "lu", "laguerre", "moments"):
            reports = run_suite(suite, seed=1, samples=3, corrupt=True)
            assert not all(r.ok for r in reports), suite
            clean = run_suite(suite, seed=1, samples=3)
            assert all(r.ok for r in clean), suite
