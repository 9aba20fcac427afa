import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opchain import (
    GammaSeq,
    Polynomial,
    Rat,
    associated_sequence,
    ThreeTermSystem,
    convergent,
    kernel_identity_check,
    kernel_system,
    laguerre_system,
    laurent_expand,
    moments,
    monic_sequence,
    symmetric_sequence,
    system_from_gamma,
    systems_agree,
)
from opchain.errors import DegreeViolation, NonPositiveGamma, OpchainError, StreamExhausted
from opchain.streams import CoeffStream
from opchain.systems import block_heights, moment_height
from opchain.verify import random_gamma

from reference import even_part, odd_part, swapped_nu


def P(*coeffs):
    return Polynomial(coeffs)


LAG0 = laguerre_system(0)


# -- monic recurrence -------------------------------------------------------

def test_monic_initial_condition():
    assert monic_sequence(LAG0, 0)[0] == P(1)


def test_monic_degree_one():
    assert monic_sequence(LAG0, 1)[1] == P(-1, 1)


def test_monic_degree_two():
    # (x-3)(x-1) - 1*1
    assert monic_sequence(LAG0, 2)[2] == P(2, -4, 1)


def test_monic_sequence_is_monic_of_full_degree():
    rng = random.Random(3)
    for _ in range(5):
        sys = system_from_gamma(random_gamma(rng, 25))
        for n, p in enumerate(monic_sequence(sys, 10)):
            assert p.degree == n and p.is_monic()


# -- second solution -------------------------------------------------------------

def test_associated_initial():
    assert associated_sequence(LAG0, 1)[1] == P(1)


def test_associated_degree_two():
    assert associated_sequence(LAG0, 2)[2] == P(-3, 1)


def test_associated_degree_three():
    # (x-5)(x-3) - 4
    assert associated_sequence(LAG0, 3)[3] == P(11, -8, 1)


def test_associated_monic_one_degree_down():
    rng = random.Random(4)
    sys = system_from_gamma(random_gamma(rng, 25))
    from opchain import associated_sequence
    for n, z in enumerate(associated_sequence(sys, 10)):
        if n == 0:
            assert z.is_zero()
        else:
            assert z.degree == n - 1 and z.is_monic()


# -- symmetric recurrence ------------------------------------------------------------

def test_symmetric_swapped_worked_case():
    nu = CoeffStream.from_values([2, 1, 4, 3])
    assert symmetric_sequence(nu, 2)[2] == P(-1, 0, 1)
    assert symmetric_sequence(nu, 3)[3] == P(0, -5, 0, 1)
    assert symmetric_sequence(nu, 4)[4] == P(3, 0, -8, 0, 1)


def test_symmetric_first_coefficient_inert():
    # nu_1 multiplies S_{-1} = 0
    assert symmetric_sequence(CoeffStream.from_values([99]), 1)[1] == P(0, 1)
    assert symmetric_sequence(CoeffStream.from_values([99]), 0)[0] == P(1)


def test_symmetric_split_with_zero_leading_gamma():
    # S built from nu = gamma splits into the base and kernel families
    rng = random.Random(11)
    for _ in range(5):
        gamma = GammaSeq.from_values([0] + random_gamma(rng, 26).window(2, 26))
        S = symmetric_sequence(gamma.gamma, 11)
        Pseq = monic_sequence(system_from_gamma(gamma), 5)
        K = monic_sequence(kernel_system(gamma), 5)
        for n in range(6):
            assert even_part(S[2 * n]) == Pseq[n]
            if 2 * n + 1 <= 11:
                assert odd_part(S[2 * n + 1]) == K[n]


# -- kernel system --------------------------------------------------------------------

def test_kernel_of_laguerre_is_shifted():
    from opchain import laguerre_gamma
    for alpha in (0, 1):
        gamma = laguerre_gamma(alpha, 0)
        assert systems_agree(kernel_system(gamma), laguerre_system(alpha + 1), 20)


def test_kernel_small_case():
    g = GammaSeq.from_values([1, 2, 3, 4, 5, 6])
    k = kernel_system(g)
    assert k.b_at(1) == 5
    assert k.a2_at(1) == 12
    assert k.b_at(2) == 9


def test_kernel_rejects_nonpositive_gamma():
    g = GammaSeq.from_values([1, 2, 0, 4, 5, 6])
    with pytest.raises(NonPositiveGamma):
        kernel_system(g).b_at(1)


def test_kernel_identities_laguerre():
    from opchain import laguerre_gamma
    rep = kernel_identity_check(laguerre_gamma(0, 0), 6)
    assert rep.ok


def test_kernel_identity_smallest_case():
    # x * K_0 = P_1 + gamma_2 * P_0 needs the minimal branch b_1 = gamma_2
    g = GammaSeq.from_values([Rat(1, 2), 2, 3, 4])
    rep = kernel_identity_check(g, 0)
    assert rep.ok


def test_kernel_identities_random_and_corrupted():
    rng = random.Random(8)
    for _ in range(3):
        assert kernel_identity_check(random_gamma(rng, 46), 20).ok
    gamma = random_gamma(rng, 46)
    vals = gamma.window(1, 46)
    vals[3] = vals[3] + 1  # corrupt gamma_4 on the kernel side only
    bad = kernel_identity_check(gamma, 20, kernel_gamma=GammaSeq.from_values(vals))
    assert not bad.ok
    name, idx = bad.first_failure
    assert idx == 2  # gamma_4 first enters the kernel recurrence at degree 2


# -- moments -----------------------------------------------------------------------------

def test_moments_factorial_oracle():
    # integral of x^k e^-x over [0, oo) is k!
    fact = 1
    for k in range(8):
        if k:
            fact *= k
        assert moments(LAG0, k) == fact


def test_moment_zero_is_normalised():
    rng = random.Random(5)
    sys = system_from_gamma(random_gamma(rng, 10))
    assert moments(sys, 0) == 1


# -- convergents and expansion at infinity -------------------------------------------------

def test_convergent_first():
    num, den = convergent(LAG0, 1)
    assert num == P(1) and den == P(-1, 1)


def test_convergent_second():
    num, den = convergent(LAG0, 2)
    assert num == P(-3, 1) and den == P(2, -4, 1)


def test_convergent_zeroth():
    num, den = convergent(LAG0, 0)
    assert num.is_zero() and den == P(1)


def test_laurent_geometric_series():
    series = laurent_expand(P(1), P(-1, 1), 3)
    assert series.coeffs == (1, 1, 1)
    assert series.order == 3


def test_laurent_zero_numerator():
    assert laurent_expand(Polynomial.zero(), P(0, 1), 5).coeffs == (0,) * 5


def test_laurent_matches_factorials():
    num, den = convergent(LAG0, 2)
    assert laurent_expand(num, den, 4).coeffs == (1, 1, 2, 6)


def test_laurent_requires_proper_ratio():
    with pytest.raises(DegreeViolation):
        laurent_expand(P(0, 1), P(0, 1), 3)
    with pytest.raises(DegreeViolation):
        laurent_expand(P(1), P(2, 2), 3)  # not monic


def test_moment_matching_through_order_2n():
    rng = random.Random(6)
    for sys in (LAG0, system_from_gamma(random_gamma(rng, 25))):
        for n in range(1, 11):
            num, den = convergent(sys, n)
            series = laurent_expand(num, den, 2 * n)
            assert list(series.coeffs) == [moments(sys, k) for k in range(2 * n)]


def _outcome(f):
    """f()'s value, or the type, index and message of the error it raised."""
    try:
        return f()
    except OpchainError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


_signed = st.fractions(min_value=-40, max_value=40, max_denominator=60)
_positive = st.fractions(min_value=Fraction(1, 60), max_value=40, max_denominator=60)


@st.composite
def _convergent_systems(draw):
    """A system with signed b, as values or as rules; now and then the data
    stop short of the order, or one a2 is <= 0."""
    n = draw(st.integers(0, 25))
    length = max(n - draw(st.sampled_from([0, 0, 0, 1, 2])), 0)
    b = draw(st.lists(_signed, min_size=length, max_size=length))
    a2 = draw(st.lists(_positive, min_size=length, max_size=length))
    if length and draw(st.sampled_from([False, False, True])):
        a2[draw(st.integers(0, length - 1))] = draw(st.sampled_from([Fraction(0), Fraction(-1, 3)]))
    if draw(st.booleans()):
        return ThreeTermSystem.from_values(b, a2), n

    def rule(vals):
        def at(k):
            if k > len(vals):
                raise StreamExhausted(k, f"rule ends at {len(vals)}")
            return vals[k - 1]
        return CoeffStream.from_fn(at)

    return ThreeTermSystem(rule(b), rule(a2)), n


@settings(max_examples=150, deadline=None)
@given(_convergent_systems())
def test_convergent_is_the_top_of_both_sequences(case):
    # read off one evaluation at x = 2^B, it must be the sequences' own top
    # polynomials, and fail with their error at their index
    sys, n = case
    got = _outcome(lambda: convergent(sys, n))
    want = _outcome(lambda: (associated_sequence(sys, n)[n], monic_sequence(sys, n)[n]))
    assert got == want


def test_evaluation_point_is_above_the_height_of_the_difference():
    # 2^b - x, coefficients (2^b, -1), vanishes at x = 2^b, so B = b would
    # call it zero: the point must lie past the height of the difference
    from opchain.systems import _Evaluation, _relations_hold, _steps

    F = _Evaluation(_steps([(0, 1)], []))  # P_0 = 1, P_1 = x
    for b in (1, 2, 7, 64, 300):
        assert _relations_hold([[((2 ** b, 1), 0, F, 0), ((-1, 1), 0, F, 1)]]) == [False]
        assert _relations_hold([[((2 ** b, 1), 0, F, 0), ((-1, 1), 1, F, 0)]]) == [False]
        assert _relations_hold([[((2 ** b, 3), 0, F, 0), ((-1, 3), 0, F, 1)]]) == [False]
    assert _relations_hold([[((1, 1), 0, F, 1), ((-1, 1), 1, F, 0)]]) == [True]


# -- stream discipline ----------------------------------------------------------------------

def test_finite_stream_never_extends_silently():
    sys = ThreeTermSystem.from_values([1, 3], [1])
    assert monic_sequence(sys, 2)[2] == P(2, -4, 1)
    with pytest.raises(StreamExhausted):
        monic_sequence(sys, 3)


# -- deep sizes against a plain Fraction reference ---------------------------------------------

def _frac(v):
    return Fraction(int(v.numerator), int(v.denominator))


def _ref_recurrence(d, s, k0, n, first):
    """Coefficient lists ``first`` = [T_{k0-2}, T_{k0-1}], then
    T_k = (x - d_k) T_{k-1} - s_k T_{k-2} for k0 <= k <= n."""
    seq = [list(t) for t in first]
    for k in range(k0, n + 1):
        prev, cur = seq[-2], seq[-1]
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(cur):
            nxt[i] -= d[k] * c
        for i, c in enumerate(prev):
            nxt[i] -= s[k] * c
        seq.append(nxt)
    return seq


def _ref_moments(b, a2, K):
    """(1,1) entries of J^0 .. J^K for the untruncated (K+1) x (K+1) Jacobi
    matrix, walked densely."""
    size = K + 1
    J = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        J[i][i] = b[i + 1]
        if i + 1 < size:
            J[i][i + 1] = Fraction(1)
            J[i + 1][i] = a2[i + 1]
    row = [Fraction(1)] + [Fraction(0)] * K
    out = [row[0]]
    for _ in range(K):
        row = [sum(row[i] * J[i][j] for i in range(size) if row[i]) for j in range(size)]
        out.append(row[0])
    return out


def _full_walk_moment(sys, k):
    """mu_k / mu_0 walked on rationals over every row of the ceil(k/2)+1
    block at every step, reading the same block as ``moments``."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    size = (k + 1) // 2 + 1
    b, a2 = sys.block(size)
    a2 = a2 + [0]
    row = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for _ in range(k):
        r = [0, *row, 0]
        row = [r[j] + r[j + 1] * b[j] + r[j + 2] * a2[j] for j in range(size)]
    return row[0]


def _outcome(read):
    try:
        return read()
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "index", None))


def _moment_systems():
    rng = random.Random(77)
    for i in range(3):
        yield f"random gamma {i}", system_from_gamma(random_gamma(rng, 60))
    yield "random kernel", kernel_system(random_gamma(rng, 60))
    for alpha in (Rat(-1, 2), Rat(0), Rat(7, 3)):
        yield f"laguerre {alpha}", laguerre_system(alpha)
    b = [Rat(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(12)]
    a2 = [Rat(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(11)]
    # the block of k = 21, 22 is the whole vector; k = 23 reads past b
    yield "values to the edge", ThreeTermSystem.from_values(b, a2)
    yield "a2 one short", ThreeTermSystem.from_values(b, a2[:10])
    yield "a2 not positive at 7", ThreeTermSystem.from_values(b, a2[:6] + [Rat(-1, 3)] + a2[7:])


_MOMENT_SYSTEMS = list(_moment_systems())


@pytest.mark.parametrize("label, sys", _MOMENT_SYSTEMS, ids=[label for label, _ in _MOMENT_SYSTEMS])
def test_band_walk_matches_the_full_walk(label, sys):
    for k in range(-1, 42):
        want = _outcome(lambda: _full_walk_moment(sys, k))
        got = _outcome(lambda: moments(sys, k))
        assert got == want, (label, k)
        assert type(got) is tuple or type(got) is Rat, (label, k)


def _whole_block_height(sys, k):
    """H of the walk of ``moments(sys, k)``, from the whole block at once: the
    bits of L, the lcm of its denominators, plus those of the tallest entry of L*J."""
    size = (k + 1) // 2 + 1
    entries = [pair for part in sys._block_pairs(size) for pair in part]
    L = math.lcm(*[q for _, q in entries])
    return L.bit_length() + max(abs(p * (L // q)).bit_length() for p, q in entries)


@pytest.mark.parametrize("label, sys", _MOMENT_SYSTEMS, ids=[label for label, _ in _MOMENT_SYSTEMS])
def test_moment_height_reads_as_the_walk(label, sys):
    # the same reads and the same first fault as ``moments``, at every order;
    # the last height is the whole block's H, and none before it exceeds it
    for k in range(-1, 42):
        got = _outcome(lambda: list(moment_height(sys, k)))
        want = _outcome(lambda: moments(sys, k))
        if type(want) is not Rat:
            assert got == want, (label, k)
            continue
        assert all(type(h) is int for h in got), (label, k)
        assert got[-1] == _whole_block_height(sys, k), (label, k)
        assert max(got) == got[-1], (label, k)


def test_moment_height_is_that_of_the_walks_integers():
    # Laguerre alpha = 0 at k = 4 reads b = 1, 3, 5 and a2 = 1, 4: L = 1
    assert list(moment_height(LAG0, 4)) == [1] * 5 + [1 + 3]
    # L = lcm(2, 3, 5) = 30, L*J holds 15, 10 and 6; the lcms run 2, 6, 30
    heights = moment_height(ThreeTermSystem.from_values(["1/2", "1/3"], ["1/5"]), 2)
    assert list(heights) == [2, 3, 5, 5 + 4]
    # distinct denominators make L, and so the walk, tall where no entry is
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    sys = ThreeTermSystem.from_values([Rat(1, p) for p in primes], [1] * 10)
    assert list(moment_height(sys, 20))[-1] > math.prod(primes).bit_length()


def test_moment_height_reads_the_block_before_its_first_height():
    # a fault anywhere in the block comes before any height, as in ``moments``
    sys = ThreeTermSystem.from_values(["1/2", "1/3", "1/5"], ["1/7", "-1"])
    heights = moment_height(sys, 4)
    with pytest.raises(OpchainError) as exc:
        next(heights)
    assert _outcome(lambda: moments(sys, 4)) == (type(exc.value).__name__, str(exc.value), 2)


def test_block_heights_are_the_blocks_from_the_top():
    sys = ThreeTermSystem.from_values(["1/2", "-3", "5/7"], ["4", "1/9"])
    # a_2^2 = 1/9, a_1^2 = 4, then b_3 = 5/7, b_2 = -3, b_1 = 1/2
    assert list(block_heights(sys, 3)) == [1 + 4, 3 + 1, 3 + 3, 2 + 1, 1 + 2]
    b, a2 = sys.block(3)
    assert sorted(block_heights(sys, 3)) == sorted(
        v.numerator.bit_length() + v.denominator.bit_length() for v in a2 + b)
    assert list(block_heights(sys, 0)) == list(block_heights(sys, -1)) == []


def test_block_heights_raise_none_of_the_blocks_errors():
    # past a finite stream, and over an a2 that is not positive, the block
    # raises; the heights read what there is
    sys = ThreeTermSystem.from_values(["1", "2"], ["-1"])
    with pytest.raises(OpchainError):
        sys.block(5)
    assert list(block_heights(sys, 5)) == [1 + 1, 2 + 1, 1 + 1]
    # a closed form is read from its top entry, the tallest, and no further
    # than the consumer takes
    assert next(block_heights(LAG0, 10 ** 9)) == ((10 ** 9 - 1) ** 2).bit_length() + 1


def _ref_laurent(num, den, order):
    """num/den at infinity by long division, x^-1 first (den monic, deg num <
    deg den): shift the remainder by x, take its x^deg(den) coefficient as the
    next term and subtract that multiple of den."""
    deg = len(den) - 1
    rem, out = list(num) + [Fraction(0)] * (deg - len(num)), []
    for _ in range(order):
        rem = [Fraction(0)] + rem
        q = rem[deg]
        rem = [r - q * c for r, c in zip(rem, den)][:deg]
        out.append(q)
    return out


def _compare_deep_with_reference(seed):
    rng = random.Random(seed)
    gamma = random_gamma(rng, 128)
    n = rng.randint(40, 60)
    sys = system_from_gamma(gamma)
    top = max(n, 40) + 1
    b = [None] + [_frac(sys.b_at(k)) for k in range(1, top + 1)]
    a2 = [Fraction(0)] + [_frac(sys.a2_at(k)) for k in range(1, top + 1)]
    lag = [Fraction(0)] + a2[:-1]  # s_k = a2_{k-1}; s_1 multiplies zero
    one, zero = [Fraction(1)], []
    nu = [None] + [_frac(v) for v in gamma.window(1, n + 1)]
    refs = {
        "monic": (monic_sequence(sys, n), _ref_recurrence(b, lag, 1, n, [zero, one])[1:]),
        "associated": (associated_sequence(sys, n), _ref_recurrence(b, lag, 2, n, [zero, one])),
        "symmetric": (symmetric_sequence(gamma.gamma, n),
                      _ref_recurrence([Fraction(0)] * (n + 1), nu, 1, n, [zero, one])[1:]),
    }
    for name, (got, want) in refs.items():
        assert len(got) == n + 1, name
        for k, (p, w) in enumerate(zip(got, want)):
            assert [_frac(c) for c in p.coeffs] == w, (name, k)
            assert p.den > 0 and math.gcd(p.den, *p.nums) == 1, (name, k)
    mus = [moments(sys, k) for k in range(41)]
    assert [_frac(m) for m in mus] == _ref_moments(b, a2, 40)
    m = 20
    num, den = refs["associated"][0][m], refs["monic"][0][m]
    series = laurent_expand(num, den, 2 * m)
    want = _ref_laurent(refs["associated"][1][m], refs["monic"][1][m], 2 * m)
    assert [_frac(c) for c in series.coeffs] == want
    assert want == [_frac(v) for v in mus[:2 * m]]


@pytest.mark.parametrize("seed", [202, 203])
def test_deep_sequences_match_a_fraction_reference(seed):
    _compare_deep_with_reference(seed)


def _random_rational(rng):
    return Fraction(rng.randint(-99, 99), rng.randint(1, 40))


def _laurent_cases():
    """(name, num, den, order) with den monic and deg num < deg den; the
    numerators and denominators are not convergents of any system."""
    rng = random.Random(31)
    den = [_random_rational(rng) for _ in range(6)] + [Fraction(1)]
    cases = [("zero numerator", [], den, 9), ("order 0", den[:3], den, 0),
             ("order < gap", [Fraction(3, 7)], den, 4),
             ("order > 2 deg", den[:5], den, 2 * 6 + 5)]
    for gap in range(1, 7):  # deg num = 6 - gap
        num = [_random_rational(rng) for _ in range(6 - gap)] + [Fraction(rng.choice((-5, 2)), 3)]
        cases.append((f"gap {gap}", num, den, 14))
    for k in range(6):  # mixed signs and degrees
        deg = rng.randint(1, 9)
        d = [_random_rational(rng) for _ in range(deg)] + [Fraction(1)]
        num = [_random_rational(rng) for _ in range(rng.randint(1, deg))]
        cases.append((f"mixed {k}", num, d, 2 * deg + 3))
    return cases


@pytest.mark.parametrize("case", _laurent_cases(), ids=lambda c: c[0])
def test_laurent_matches_long_division(case):
    _, num, den, order = case
    series = laurent_expand(Polynomial(num), Polynomial(den), order)
    assert [_frac(c) for c in series.coeffs] == _ref_laurent(num, den, order)
    assert series.order == order
    assert all(type(c) is Rat for c in series.coeffs)


# -- the recurrence kernel against its padded form --------------------------------

def _padded_recurrence(diag, sub):
    """The kernel with all three terms at every entry, over vectors padded
    with zeros: what ``_recurrence`` computes without skipping the products
    known to be zero."""
    prev, pden, cur, cden = (), 1, (1,), 1
    out = []
    for (dn, dd), (sn, sd) in zip(diag, ((0, 1), *sub)):
        sd *= pden
        den = math.lcm(cden * dd, sd)
        ms = sn * (den // sd)
        mx = den // cden
        md = dn * (mx // dd)
        low = prev + (0,) * (len(cur) + 1 - len(prev))
        nxt = [mx * u - md * v - ms * w for u, v, w in zip((0, *cur), (*cur, 0), low)]
        g = math.gcd(den, *nxt)
        if g != 1:
            nxt = [c // g for c in nxt]
            den //= g
        prev, pden, cur, cden = cur, cden, tuple(nxt), den
        out.append(Polynomial._raw(cur, den))
    return out


def _kernel_blocks():
    """(label, diag, sub) blocks as the kernel's callers pass them."""
    from opchain import perturb

    rng = random.Random(1717)

    def pair(p, q):
        v = Fraction(p, q)
        return v.numerator, v.denominator

    for n in (0, 1, 2, 3, 9, 45):
        gamma = random_gamma(rng, 2 * n + 8)
        yield (f"gamma row n={n}", *system_from_gamma(gamma)._block_pairs(n))
        yield (f"kernel row n={n}", *kernel_system(gamma)._block_pairs(n))
        for v in ("tilde", "hat", "q", "u"):
            yield (f"{v} n={n}", *getattr(perturb, f"{v}_system")(gamma)._block_pairs(n))
        nu = swapped_nu(gamma, n)
        yield f"swapped nu n={n}", [(0, 1)] * n, [nu._pair(k) for k in range(2, n + 1)]
        diag = [pair(rng.randint(-50, 50), rng.randint(1, 9)) if rng.random() < 0.5 else (0, 1)
                for _ in range(n)]
        sub = [pair(rng.randint(1, 50), rng.randint(1, 9)) for _ in range(n - 1)]
        yield f"partly zero diagonal n={n}", diag, sub


_KERNEL_BLOCKS = list(_kernel_blocks())


@pytest.mark.parametrize("label, diag, sub", _KERNEL_BLOCKS,
                         ids=[label for label, _, _ in _KERNEL_BLOCKS])
def test_recurrence_equals_the_padded_kernel(label, diag, sub):
    from opchain.systems import _recurrence

    got, want = _recurrence(diag, sub), _padded_recurrence(diag, sub)
    assert len(got) == len(diag)
    for k, (p, w) in enumerate(zip(got, want), 1):
        assert (p.nums, p.den) == (w.nums, w.den), (label, k)
        assert all(type(c) is int for c in p.nums), (label, k)


def test_kernel_blocks_cover_zero_and_nonzero_diagonal_entries():
    mixed = [d for label, d, _ in _KERNEL_BLOCKS if label == "partly zero diagonal n=45"][0]
    assert any(p == 0 for p, _ in mixed) and any(p != 0 for p, _ in mixed)


# -- kernel identities against the polynomial arithmetic -----------------------------

def _reference_kernel_items(gamma, n, kernel_gamma=None):
    """kernel_identity_check's items, each side built with +, -, scale, x *
    and compared with ==."""
    P = monic_sequence(system_from_gamma(gamma, minimal_branch=True), n + 1)
    K = monic_sequence(kernel_system(kernel_gamma if kernel_gamma is not None else gamma), n)
    x = Polynomial.x()
    items = [("x*K = P(+1) + gamma_even*P", m,
              x * K[m] == P[m + 1] + P[m].scale(gamma.at(2 * m + 2))) for m in range(n + 1)]
    items += [("K = P - gamma_odd*K(-1)", m,
               K[m] == P[m] - K[m - 1].scale(gamma.at(2 * m + 1))) for m in range(1, n + 1)]
    return tuple(items)


def test_kernel_identity_items_equal_the_arithmetic_reference():
    from opchain import laguerre_gamma

    rng = random.Random(1718)
    failed = 0
    for n in (0, 1, 2, 12):
        gammas = [random_gamma(rng, 2 * n + 6), laguerre_gamma(Rat(7, 3), 0)]
        for gamma in gammas:
            assert kernel_identity_check(gamma, n).items == _reference_kernel_items(gamma, n)
            vals = gamma.window(1, 2 * n + 6)
            for k in range(1, 2 * n + 4, 3):
                bad = list(vals)
                bad[k] += Rat(1, 3)
                ker = GammaSeq.from_values(bad)
                got = kernel_identity_check(gamma, n, kernel_gamma=ker).items
                assert got == _reference_kernel_items(gamma, n, ker), (n, k)
                failed += sum(not ok for _, _, ok in got)
    assert failed > 50  # the corrupt runs fail items, so both outcomes are compared
