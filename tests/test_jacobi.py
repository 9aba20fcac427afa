import bisect
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from opchain import (
    BidiagonalFactors,
    GammaSeq,
    Rat,
    ThreeTermSystem,
    TridiagonalMatrix,
    gamma_from_system,
    kernel_system,
    laguerre_gamma,
    laguerre_system,
    lu_factor,
    system_from_gamma,
    truncate,
    ul_product,
    zeros,
    zeros_with_brackets,
)
from opchain import jacobi, perturb
from opchain.errors import (
    FloatOverflow,
    InvalidRationalLiteral,
    LengthMismatch,
    NonPositiveA2,
    PivotBreakdown,
)
from opchain.verify import random_gamma

from reference import darboux_pivot_check, interlace_check

LAG0 = laguerre_system(0)


# -- truncation ---------------------------------------------------------------

def test_truncate_laguerre():
    J = truncate(LAG0, 3)
    assert J.diag == (1, 3, 5) and J.sub == (1, 4)


def test_truncate_single_entry():
    J = truncate(LAG0, 1)
    assert J.diag == (1,) and J.sub == ()


def test_trace_is_diagonal_sum():
    assert truncate(LAG0, 4).trace() == 1 + 3 + 5 + 7


def test_dense_form():
    # [[1, 1, 0], [1, 3, 1], [0, 4, 5]]: the unit superdiagonal is implied
    J = truncate(LAG0, 3)
    assert (J.n, J.diag, J.sub) == (3, (1, 3, 5), (1, 4))


def test_shape_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        TridiagonalMatrix((1, 2), (1, 2, 3))


def test_matrix_entries_are_exact():
    # a float entry would carry float64 into lu_factor and its printed factors
    with pytest.raises(InvalidRationalLiteral):
        TridiagonalMatrix((Rat(1, 2), 3), (1.0,))
    J = TridiagonalMatrix((1, "3/2"), ("1/2",))
    assert (J.diag, J.sub) == ((1, Rat(3, 2)), (Rat(1, 2),))
    assert all(type(v) is Rat for v in J.diag + J.sub)


def test_factor_entries_are_exact():
    # a float entry would print as a decimal and fail later, in a sum
    # the caller never passed
    with pytest.raises(InvalidRationalLiteral):
        BidiagonalFactors((0.5,), (1, 2))
    with pytest.raises(InvalidRationalLiteral):
        BidiagonalFactors((Rat(1, 2),), (1, 2), 0.25)
    f = BidiagonalFactors(("1/2",), (1, "3/2"), "1/4")
    assert (f.l_sub, f.u_diag, f.gamma1) == ((Rat(1, 2),), (1, Rat(3, 2)), Rat(1, 4))
    assert all(type(v) is Rat for v in f.l_sub + f.u_diag + (f.gamma1,))
    assert f.to_json() == {"L_sub": ["1/2"], "U_diag": ["1", "3/2"]}


def test_factor_lengths_are_checked():
    # without the check these constructed, and product() or ul_product then
    # raised a bare IndexError
    for l_sub, u_diag in (((1, 2, 3), (1,)), ((), ()), ((1,), (1,)), ((), (1, 2))):
        with pytest.raises(LengthMismatch, match="length n-1"):
            BidiagonalFactors(l_sub, u_diag)
    assert BidiagonalFactors((), (5,)).product() == TridiagonalMatrix((5,), ())


# -- LU ------------------------------------------------------------------------

def test_lu_laguerre_multiply_back():
    J = truncate(LAG0, 3)
    f = lu_factor(J, Rat(0))
    assert f.u_diag == (1, 2, 3) and f.l_sub == (1, 2)
    assert f.product() == J
    assert f.reconstruct() == J


def test_lu_rejects_a_float_gamma1():
    with pytest.raises(InvalidRationalLiteral, match="float 0.5 is not exact"):
        lu_factor(truncate(LAG0, 3), 0.5)
    assert lu_factor(truncate(LAG0, 3), "0").u_diag == (1, 2, 3)


def test_lu_rejects_empty_matrix():
    with pytest.raises(ValueError, match="n = 0"):
        lu_factor(truncate(LAG0, 0))


def test_lu_with_positive_split():
    # recovery for gamma = (1,2,3,4): pivots are the even entries and
    # L.U reproduces J once the corner split is added back
    sys = system_from_gamma(GammaSeq.from_values([1, 2, 3, 4]))
    J = truncate(sys, 2)
    f = lu_factor(J, Rat(1))
    g = gamma_from_system(sys, Rat(1), 1)
    assert g.window(1, 4) == [1, 2, 3, 4]
    assert f.u_diag == (2, 4) and f.l_sub == (3,)
    assert f.reconstruct() == J
    assert f.product().diag[0] == J.diag[0] - 1  # bare L.U differs only in the corner


def test_lu_pivot_breakdown():
    with pytest.raises(PivotBreakdown) as exc:
        lu_factor(truncate(LAG0, 2), Rat(1))  # gamma_1 = b_1
    assert exc.value.index == 1


def test_lu_pivots_equal_gamma_recovery():
    rng = random.Random(31)
    gamma = random_gamma(rng, 30)
    sys = system_from_gamma(gamma)
    assert darboux_pivot_check(sys, Rat(0), 12)
    assert darboux_pivot_check(sys, gamma.at(1), 12)
    J = truncate(sys, 12)
    assert lu_factor(J, Rat(0)).product() == J
    assert lu_factor(J, gamma.at(1)).reconstruct() == J


def test_lu_of_swapped_family_has_odd_pivots():
    # the complementary family's matrix factors with the odd gammas as
    # pivots and the shifted evens below
    from opchain import tilde_system
    gamma = GammaSeq.from_values(list(range(1, 13)))
    f = lu_factor(truncate(tilde_system(gamma), 4), Rat(0))
    assert f.u_diag == (1, 3, 5, 7)
    assert f.l_sub == (4, 6, 8)


# -- UL (reversed product) ----------------------------------------------------------

def test_ul_matches_kernel_except_boundary():
    gamma = laguerre_gamma(0, 0)
    f = lu_factor(truncate(LAG0, 3), Rat(0))
    ul = ul_product(f)
    K = truncate(kernel_system(gamma), 3)
    assert ul.diag[:2] == K.diag[:2] == (2, 4)
    assert ul.sub == K.sub
    assert ul.diag[2] == 3          # gamma_6
    assert K.diag[2] == 3 + 3       # gamma_6 + gamma_7


def test_ul_single_entry():
    f = lu_factor(truncate(LAG0, 1), Rat(0))
    assert ul_product(f).diag == (1,)  # gamma_2


def test_lu_then_ul_shifts_the_recovery():
    # the reversed product is the kernel matrix, whose own recovery with
    # leading split gamma_2 is the original sequence shifted by one
    rng = random.Random(32)
    gamma = random_gamma(rng, 30)
    sys = system_from_gamma(gamma)
    ker = kernel_system(gamma_from_system(sys, Rat(0), 12))
    shifted = gamma_from_system(ker, gamma_from_system(sys, Rat(0), 1).at(2), 10)
    base = gamma_from_system(sys, Rat(0), 12)
    assert all(shifted.at(k) == base.at(k + 1) for k in range(1, 20))


# -- zeros --------------------------------------------------------------------------

def test_zeros_quadratic():
    z = zeros(LAG0, 2, 1e-12)
    assert abs(z[0] - (2 - 2 ** 0.5)) < 1e-10
    assert abs(z[1] - (2 + 2 ** 0.5)) < 1e-10


def test_zeros_single():
    assert zeros(LAG0, 1, 1e-12) == [1.0]


def test_zero_sum_matches_trace():
    for n in range(1, 9):
        z = zeros(LAG0, n, 1e-12)
        assert abs(sum(z) - float(truncate(LAG0, n).trace())) <= n * 1e-12
        assert all(z[i] < z[i + 1] for i in range(n - 1))
        assert all(v > 0 for v in z)


def test_zero_brackets_reported():
    rows = zeros_with_brackets(LAG0, 3, 1e-10)
    assert all(w <= 1e-10 for _, w in rows)


def test_zeros_reject_nonpositive_subdiagonal():
    # a2 = 10^-400 is positive, so the block accepts it, but it is 0.0 in float64
    sys = ThreeTermSystem.from_values([1, 2], [Rat(1, 10**400)])
    with pytest.raises(NonPositiveA2, match="must be positive for spectra"):
        zeros(sys, 2, 1e-10)


@pytest.mark.parametrize("sign", [1, -1])
def test_zeros_near_float_max_raise_overflow(sign):
    # the zeros are +-(1e308 -+ 1e150): the data fit in float64, but a
    # bisection midpoint 0.5 * (a + b) overflows to an infinite end
    sys = ThreeTermSystem.from_values([sign * 10**308] * 2, [10**300])
    with pytest.raises(FloatOverflow, match="bisection midpoint"):
        zeros_with_brackets(sys, 2, 1e-10)


# Reference: the indexed pivot loop and tuple-membership bisection that
# the paired loop in jacobi replaced, with a count at every midpoint.  The
# pivots are the same float operations in the same order, and the library
# replays this bisection's decisions, so results must agree bit for bit.

def _reference_count_below(diag, sub2, x):
    count = 0
    q = 1.0
    for i in range(len(diag)):
        q = (diag[i] - x) - (sub2[i - 1] / q if i else 0.0)
        if abs(q) < 1e-300:
            q = -1e-300
        if q < 0:
            count += 1
    return count


def _reference_zeros_with_brackets(sys, n, tol, count=_reference_count_below):
    diag = [float(sys.b_at(k)) for k in range(1, n + 1)]
    sub2 = [float(sys.a2_at(k)) for k in range(1, n)]
    radius = [(sub2[i - 1] ** 0.5 if i >= 1 else 0.0)
              + (sub2[i] ** 0.5 if i < n - 1 else 0.0) for i in range(n)]
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    out = []
    for j in range(n):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if count(diag, sub2, mid) > j:
                b = mid
            else:
                a = mid
        out.append((0.5 * (a + b), b - a))
    out.sort()
    return out


def _hex_rows(rows):
    return [(v.hex(), w.hex()) for v, w in rows]


def _wilkinson(m, scale):
    """W_{2m+1}^+ times scale: diagonal |m - k|, unit couplings; its top
    eigenvalues come in pairs that agree to about 1e-13 for m = 10."""
    diag = [abs(m - k) * scale for k in range(2 * m + 1)]
    return ThreeTermSystem.from_values(diag, [scale * scale] * (2 * m))


def _reference_cases():
    rng = random.Random(606)
    for i in range(4):
        n = rng.randint(30, 40)
        yield f"random_gamma[{i}] n={n}", system_from_gamma(random_gamma(rng, 2 * n + 2)), n
    for alpha in (Rat(0), Rat(7, 3), Rat(-1, 2), Rat(24)):
        for n in (*range(1, 9), 35):
            yield f"laguerre alpha={alpha} n={n}", laguerre_system(alpha), n
    for n in (3, 6):
        yield f"zero diagonal n={n}", ThreeTermSystem.from_values([0] * n, [1] * (n - 1)), n
    for variant in ("tilde", "hat", "q", "u"):
        for n in (1, 2, 23, 60):
            gamma = random_gamma(rng, 2 * n + 8)
            yield f"{variant} n={n}", getattr(perturb, f"{variant}_system")(gamma), n
    for i in range(3):
        n = rng.randint(8, 16)
        b = [Rat(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 999)) for _ in range(n)]
        a2 = [Rat(rng.randint(1, 999)) * Rat(10) ** rng.randint(-20, 20) for _ in range(n - 1)]
        yield f"wide scales[{i}] n={n}", ThreeTermSystem.from_values(b, a2), n
    for m, scale in ((10, Rat(1)), (7, Rat(10 ** 6, 7)), (4, Rat(1, 10 ** 5))):
        yield f"wilkinson m={m} scale={scale}", _wilkinson(m, scale), 2 * m + 1


@pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-12, 5e-324, 1e-300, 10.0])
def test_zeros_bit_identical_to_reference(tol):
    for label, sys, n in _reference_cases():
        assert _hex_rows(zeros_with_brackets(sys, n, tol)) == \
            _hex_rows(_reference_zeros_with_brackets(sys, n, tol)), label


def test_zeros_bit_identical_to_reference_at_extreme_scales():
    # The zeros reach 1e150: at both tols the seed widths are set by the
    # ulps of the estimates and of the Gershgorin bound, not by tol.
    for scale in (Rat(10 ** 120), Rat(10 ** 150, 7)):
        for m in (4, 10):
            sys = _wilkinson(m, scale)
            for tol in (1e-10, 1e100):
                assert _hex_rows(zeros_with_brackets(sys, 2 * m + 1, tol)) == \
                    _hex_rows(_reference_zeros_with_brackets(sys, 2 * m + 1, tol)), (scale, m, tol)


def _nonmonotone_count(diag, sub2, x):
    """The reference count, one too high on every third 1/64-wide cell of
    the axis: deliberately not monotone in x."""
    count = _reference_count_below(diag, sub2, x)
    return count + (math.floor(64 * x) % 3 == 0 and count < len(diag))


def test_zeros_fall_back_to_counting_every_midpoint(monkeypatch):
    # A count that breaks monotonicity voids every certificate: the call
    # must return what the plain bisection returns with that same count.
    def count_below(pairs, x):
        return _nonmonotone_count([d for d, _ in pairs], [s for _, s in pairs[1:]], x)

    monkeypatch.setattr(jacobi, "_count_below", count_below)
    for label, sys, n in list(_reference_cases())[:4]:
        want = _reference_zeros_with_brackets(sys, n, 1e-10, _nonmonotone_count)
        assert want != _reference_zeros_with_brackets(sys, n, 1e-10), label
        assert _hex_rows(zeros_with_brackets(sys, n, 1e-10)) == _hex_rows(want), label


def _without_seeds(monkeypatch):
    """Leave the certificates unseeded, so that the bisection counts its
    own midpoints."""
    monkeypatch.setattr(jacobi, "_zero_estimates", lambda diag, sub2: None)


def _passes(monkeypatch) -> list:
    """The points of every pivot pass from now on."""
    passes = []

    def counted(pairs, x, f=jacobi._count_below):
        passes.append(x)
        return f(pairs, x)

    monkeypatch.setattr(jacobi, "_count_below", counted)
    return passes


@pytest.mark.parametrize("n", [10, 30])
def test_no_seeds_within_a_few_halvings_of_tol(monkeypatch, n):
    # At tol 10 the Gershgorin bracket of Laguerre alpha = 0 is 2 (n = 10)
    # and 4 (n = 30) halvings wide; the seeds took 20 and 60 passes there,
    # the bisection alone 3 and 18.
    want = _reference_zeros_with_brackets(LAG0, n, 10.0)
    passes = _passes(monkeypatch)
    assert _hex_rows(zeros_with_brackets(LAG0, n, 10.0)) == _hex_rows(want)
    seeded = len(passes)
    _without_seeds(monkeypatch)
    passes.clear()
    assert _hex_rows(zeros_with_brackets(LAG0, n, 10.0)) == _hex_rows(want)
    assert seeded <= len(passes)


@pytest.mark.parametrize("sys, most", [
    (LAG0, 11),
    (system_from_gamma(random_gamma(random.Random(5), 12)), 14),
])
def test_unseeded_bisection_within_four_halvings_of_tol(monkeypatch, sys, most):
    # With the Gershgorin bracket 4 halvings above tol, so unseeded, the
    # bisection alone takes at most five counts a zero.
    diag, sub2 = ([p / q for p, q in w] for w in sys._block_pairs(5))
    radius = [(sub2[i - 1] ** 0.5 if i else 0.0) + (sub2[i] ** 0.5 if i < 4 else 0.0)
              for i in range(5)]
    lo = min(d - r for d, r in zip(diag, radius))
    hi = max(d + r for d, r in zip(diag, radius))
    tol = (hi - lo) / 16
    want = _reference_zeros_with_brackets(sys, 5, tol)
    passes = _passes(monkeypatch)
    assert _hex_rows(zeros_with_brackets(sys, 5, tol)) == _hex_rows(want)
    assert len(passes) <= most


def test_seeded_zeros_pass_count(monkeypatch):
    # Seeded from the QL estimates, these cases take about 2 pivot passes
    # per zero at tol 1e-10 (the two seed counts and a few midpoints);
    # unseeded, about 33.  The tight tols hold only with the 4 ulp(t) term
    # of the seed width: without it both seeds of a zero near 0 can fall on
    # one side of it.
    passes = _passes(monkeypatch)
    for tol, most in ((1e-10, 3), (1e-14, 5.5), (1e-300, 10)):
        passes.clear()
        zeros_found = 0
        for _, sys, n in list(_reference_cases())[:4]:
            zeros_found += len(zeros_with_brackets(sys, n, tol))
        assert len(passes) <= most * zeros_found, tol


# Estimates that place the seed counts badly, or not at all.
_SEED_STUBS = {
    "none": lambda v: None,
    "nan": lambda v: [math.nan] * len(v),
    "inf": lambda v: [(-1) ** k * math.inf for k in range(len(v))],
    "equal": lambda v: [v[len(v) // 2]] * len(v),
    "shuffled": lambda v: random.Random(len(v)).sample(v, len(v)),
    "off by 1e-3": lambda v: [x + 1e-3 for x in v],
}


@pytest.mark.parametrize("tol", [1e-10, 5e-324])
@pytest.mark.parametrize("stub", list(_SEED_STUBS))
def test_zeros_do_not_depend_on_the_seeds(monkeypatch, stub, tol):
    # The estimates only choose where counts are taken; the counts decide.
    def estimates(diag, sub2, f=jacobi._zero_estimates):
        values = f(diag, sub2)
        assert values is not None
        return _SEED_STUBS[stub](values)

    monkeypatch.setattr(jacobi, "_zero_estimates", estimates)
    for label, sys, n in _reference_cases():
        assert _hex_rows(zeros_with_brackets(sys, n, tol)) == \
            _hex_rows(_reference_zeros_with_brackets(sys, n, tol)), label


def _raise_zero_division(diag, sub2):
    raise ZeroDivisionError("float division by zero")


@pytest.mark.parametrize("solve", [
    _raise_zero_division,
    lambda diag, sub2: None,  # too many iterations
    lambda diag, sub2: [math.nan] * len(diag),
    lambda diag, sub2: [*diag[1:], math.inf],
])
def test_failed_ql_solve_leaves_the_zeros_unseeded(monkeypatch, solve):
    monkeypatch.setattr(jacobi, "_tqlrat", solve)
    for label, sys, n in list(_reference_cases())[:12]:
        diag, sub2 = ([p / q for p, q in w] for w in sys._block_pairs(n))
        assert jacobi._zero_estimates(diag, sub2) is None
        assert _hex_rows(zeros_with_brackets(sys, n, 1e-10)) == \
            _hex_rows(_reference_zeros_with_brackets(sys, n, 1e-10)), label


@pytest.mark.parametrize("diag, sub2", [
    ([1e308, 1e308], [1e300]),
    ([-1e308, 1e308], [1e300]),
    ([0.0] * 5, [1e300] * 4),
    ([0.0] * 5, [1e-300] * 4),
])
def test_ql_estimates_never_raise(diag, sub2):
    values = jacobi._zero_estimates(diag, sub2)
    assert values is None or (len(values) == len(diag) and all(map(math.isfinite, values)))


def test_ql_estimates_are_near_the_zeros():
    # includes scales where a product of three entries would overflow
    extreme = [(f"wilkinson m={m} scale={scale}", _wilkinson(m, scale), 2 * m + 1)
               for scale in (Rat(10 ** 120), Rat(10 ** 150, 7)) for m in (4, 10)]
    for label, sys, n in [*_reference_cases(), *extreme]:
        diag, sub2 = ([p / q for p, q in w] for w in sys._block_pairs(n))
        want = [v for v, _ in _reference_zeros_with_brackets(sys, n, 1e-300)]
        got = jacobi._zero_estimates(diag, sub2)
        assert got is not None, label
        got.sort()
        scale = max(abs(v) for v in want) + max(sub2, default=0.0) ** 0.5
        assert all(abs(a - b) <= 1e-13 * scale for a, b in zip(got, want)), label


def test_ql_estimates_on_a_tiny_matrix(monkeypatch):
    # With a norm t near 1e-150 the split threshold (2^-52 t)^2 would
    # underflow to 0; unscaled, the estimates missed the zeros 0, +-1e-150
    # and +-sqrt(3) 1e-150 by up to 5e-151, and the seeds stopped bracketing.
    sys = ThreeTermSystem.from_values([0] * 5, [Rat(1, 10 ** 300)] * 4)
    want = [-math.sqrt(3) * 1e-150, -1e-150, 0.0, 1e-150, math.sqrt(3) * 1e-150]
    got = sorted(jacobi._zero_estimates([0.0] * 5, [1e-300] * 4))
    t = max(want) + 1e-150
    assert all(abs(a - b) <= 1e-13 * t for a, b in zip(got, want)), got
    passes = _passes(monkeypatch)
    zeros_with_brackets(sys, 5, 1e-160)
    assert len(passes) <= 3 * 5
    # At tol 1e-170 the zero at 0 lies 1e-166 from its estimate; only the
    # 4 ulp(t) term of the seed width puts both seeds around it.
    passes.clear()
    zeros_with_brackets(sys, 5, 1e-170)
    assert len(passes) <= 60
    monkeypatch.undo()
    for tol in (1e-160, 1e-170, 5e-324):
        assert _hex_rows(zeros_with_brackets(sys, 5, tol)) == \
            _hex_rows(_reference_zeros_with_brackets(sys, 5, tol)), tol


def test_seed_points_outside_the_bracket_are_not_counted(monkeypatch):
    counted = []
    monkeypatch.setattr(jacobi, "_count_below", lambda pairs, x: counted.append(x) or 0)
    pairs = [(1.0, 0.0), (2.0, 1.0)]
    estimates = [math.nan, math.inf, -math.inf, -1.0, 5.0, 1.0, 4.0]
    assert jacobi._seed_counts(pairs, estimates, 0.0, 4.0, 1e-10, jacobi._Certificates(2))
    assert counted == [1.0 - 1e-10 / 128, 1.0 + 1e-10 / 128, 4.0 - 1e-10 / 128]


@st.composite
def _tridiagonals(draw):
    """(system, n): random rational data at scales 1e-8..1e8, or Wilkinson-
    type matrices, alone or glued by a weak coupling, whose eigenvalues come
    in close pairs."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 24))
        b = [Rat(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(1, 999)))
             for _ in range(n)]
        a2 = [Rat(draw(st.integers(1, 999))) * Rat(10) ** draw(st.integers(-8, 8))
              for _ in range(n - 1)]
        return ThreeTermSystem.from_values(b, a2), n
    m = draw(st.integers(1, 8))
    scale = Rat(10) ** draw(st.integers(-5, 5))
    copies = draw(st.integers(1, 3))
    glue = Rat(draw(st.integers(1, 999))) * Rat(10) ** draw(st.integers(-30, 0))
    b = [abs(m - k) * scale for _ in range(copies) for k in range(2 * m + 1)]
    a2 = []
    for c in range(copies):
        a2 += [scale * scale] * (2 * m) + ([glue * scale * scale] if c + 1 < copies else [])
    return ThreeTermSystem.from_values(b, a2), len(b)


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(), st.sampled_from([1e-3, 1e-10, 1e-12, 1e-14, 5e-324]))
def test_seeded_zeros_bit_identical_to_reference(case, tol):
    sys, n = case
    assert _hex_rows(zeros_with_brackets(sys, n, tol)) == \
        _hex_rows(_reference_zeros_with_brackets(sys, n, tol))


class _SortedCertificates:
    """Reference store: every (x, count) of a call in one list ascending in
    x, searched by bisection."""

    def __init__(self):
        self.xs = []
        self.counts = []

    def add(self, x, count):
        i = bisect.bisect_right(self.xs, x)
        counts = self.counts
        if (i and counts[i - 1] > count) or (i < len(counts) and counts[i] < count):
            return False
        self.xs.insert(i, x)
        counts.insert(i, count)
        return True

    def bracket(self, j):
        i = bisect.bisect_right(self.counts, j)
        return (self.xs[i - 1] if i else -math.inf,
                self.xs[i] if i < len(self.xs) else math.inf)


def _certificate_sequences():
    """(n, [(x, count), ...]): counts of a random staircase at points on a
    coarse grid (so x repeats, with equal and with different counts) and
    off it, one in six of them moved by -1, +1 or +2 (order violations)."""
    rng = random.Random(1606)
    for _ in range(60):
        n = rng.randint(1, 10)
        steps = sorted(rng.uniform(-4, 4) for _ in range(n))
        seq = []
        for _ in range(rng.randint(1, 80)):
            x = rng.randint(-10, 10) / 2 if rng.random() < 0.6 else rng.uniform(-5, 5)
            count = bisect.bisect_left(steps, x)
            if rng.random() < 1 / 6:
                count = min(n, max(0, count + rng.choice((-1, 1, 2))))
            seq.append((x, count))
        yield n, seq


def test_count_indexed_certificates_answer_as_the_sorted_store():
    refused = accepted = 0
    for n, seq in _certificate_sequences():
        store, ref = jacobi._Certificates(n), _SortedCertificates()
        for x, count in seq:
            ok = ref.add(x, count)
            assert store.add(x, count) == ok, (n, seq)
            refused += not ok
            accepted += ok
            for j in range(n + 1):
                assert store.bracket(j) == ref.bracket(j), (n, seq, j)
    assert refused > 100 and accepted > 1000  # both branches are exercised


def test_zeros_pivot_floor_branch():
    # The Gershgorin bracket is [-2, 2], so the first midpoint is 0 and the
    # first pivot q_1 = b_1 - 0 is exactly zero: it is floored to -1e-300,
    # counted below, and the next division stays finite.
    sys = ThreeTermSystem.from_values([0, 0, 0], [1, 1])
    assert _hex_rows(zeros_with_brackets(sys, 3, 1e-10)) == [
        ("-0x1.6a09e667e0000p+0", "0x1.0000000000000p-34"),
        ("-0x1.0000000000000p-35", "0x1.0000000000000p-34"),
        ("0x1.6a09e667e0000p+0", "0x1.0000000000000p-34"),
    ]


def test_zeros_invalid_tolerance():
    with pytest.raises(ValueError):
        zeros(LAG0, 2, 0.0)


# -- interlacing -------------------------------------------------------------------------

def test_interlace_simple():
    assert interlace_check([1.0, 3.0], [2.0, 4.0], 1e-12).interlaced


def test_interlace_disjoint_blocks():
    v = interlace_check([1.0, 2.0], [5.0, 6.0], 1e-12)
    assert not v.interlaced and v.witness == 1


def test_interlace_kernel_zeros():
    xs = zeros(LAG0, 3, 1e-12)
    ys = zeros(laguerre_system(1), 3, 1e-12)
    assert interlace_check(xs, ys, 1e-9).interlaced


def test_interlace_length_mismatch():
    with pytest.raises(LengthMismatch):
        interlace_check([1.0], [1.0, 2.0], 1e-12)
