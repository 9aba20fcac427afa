import pytest

from opchain import (
    LSequence,
    Polynomial,
    Rat,
    chain_at,
    e_family_system,
    gamma_from_system,
    gamma_phi2_from_l,
    kernel_system,
    l_from_gamma,
    laguerre_gamma,
    laguerre_system,
    minimal_parameters,
    moments,
    monic_sequence,
    rr_system,
    systems_agree,
)
from opchain.errors import (
    AlphaOutOfRange,
    InvalidRationalLiteral,
    NonPositiveInput,
    StreamExhausted,
)
from opchain.families import closed_form
from opchain.streams import CoeffStream
from opchain.systems import _pairs

from reference import (
    DegreeBeyondFamily,
    ZeroDenominator,
    monicize_step,
    rr_raw,
    rr_raw_step,
)


def P(*coeffs):
    return Polynomial(coeffs)


# -- Laguerre -----------------------------------------------------------------

def test_laguerre_streams():
    sys = laguerre_system(0)
    assert [sys.b_at(n) for n in (1, 2, 3)] == [1, 3, 5]
    assert [sys.a2_at(n) for n in (1, 2, 3)] == [1, 4, 9]


def test_laguerre_chain_closed_form():
    sys = laguerre_system(0)
    d = chain_at(sys, Rat(0), 6)
    for n in range(1, 7):
        assert d.at(n) == Rat(n * n, (2 * n - 1) * (2 * n + 1))


def test_laguerre_minimal_parameter_closed_form():
    for alpha in (Rat(-1, 2), Rat(0), Rat(1), Rat(7, 3)):
        sys = laguerre_system(alpha)
        m = minimal_parameters(chain_at(sys, Rat(0), 12), 12)
        assert all(m[n] == Rat(n) / (2 * n + alpha + 1) for n in range(13))


def test_alpha_domain():
    with pytest.raises(AlphaOutOfRange):
        laguerre_system(-2)
    with pytest.raises(AlphaOutOfRange):
        e_family_system(Rat(-1))


def test_laguerre_gamma_matches_recovery():
    for alpha in (Rat(-1, 2), Rat(0), Rat(1), Rat(7, 3)):
        closed = laguerre_gamma(alpha, 0)
        recovered = gamma_from_system(laguerre_system(alpha), Rat(0), 50)
        assert closed.window(1, 102) == recovered.window(1, 102)
    closed1 = laguerre_gamma(0, 1)
    recovered1 = gamma_from_system(e_family_system(0), Rat(1), 50)
    assert closed1.window(1, 102) == recovered1.window(1, 102)


# alpha > -1 of each sign, an integer, a fraction, and one of 400 digits
_ALPHAS = (Rat(-1, 2), Rat(0), Rat(1), Rat(7, 3), Rat(int("7" * 400), 3**41))


@pytest.mark.parametrize("alpha", _ALPHAS, ids=["-1/2", "0", "1", "7/3", "400 digits"])
def test_closed_forms_equal_the_rational_formulas(alpha):
    # each entry is one rational built from alpha's integers; it must be the
    # value, and the type, of the rational formula it stands for
    rules = (
        (laguerre_system, lambda n: 2 * n + alpha - 1, lambda n: n * (n + alpha)),
        (e_family_system, lambda n: 2 * n + alpha, lambda n: (n + 1) * (n + alpha)),
    )
    for make, b, a2 in rules:
        sys_ = make(alpha)
        got = [(sys_.b_at(n), sys_.a2_at(n)) for n in range(1, 61)]
        assert got == [(b(n), a2(n)) for n in range(1, 61)]
        assert all(type(v) is Rat for pair in got for v in pair)
        assert sys_._block_pairs(60) == (_pairs(map(b, range(1, 61))),
                                         _pairs(map(a2, range(1, 60))))
    for gamma1 in (0, 1):
        got = laguerre_gamma(alpha, gamma1).window(1, 120)
        want = [Rat(gamma1)] + [Rat(k, 2) + alpha if k % 2 == 0 else Rat((k - 1) // 2 + gamma1)
                                for k in range(2, 121)]
        assert got == want
        assert all(type(v) is Rat for v in got)


def test_kernel_shift_identity():
    for alpha in (Rat(-1, 2), Rat(0), Rat(7, 3)):
        assert systems_agree(kernel_system(laguerre_gamma(alpha, 0)),
                             laguerre_system(alpha + 1), 25)


# -- companion family ------------------------------------------------------------

def test_companion_streams():
    sys = e_family_system(0)
    assert [sys.b_at(n) for n in (1, 2, 3)] == [2, 4, 6]
    assert sys.a2_at(1) == 2
    half = e_family_system(Rat(1, 2))
    assert half.b_at(1) == Rat(5, 2) and half.b_at(2) == Rat(9, 2)
    assert half.a2_at(1) == 3


# -- finite inverse-Laguerre class ---------------------------------------------------

def test_rr_window_p10():
    sys = rr_system(10)
    assert (sys.b.stop, sys.a2.stop) == (4, 3)


def test_rr_first_monic_coefficient():
    sys = rr_system(10)
    assert sys.b_at(1) == Rat(1, 8)  # p/((p-0)(p-2)) = 10/80
    assert rr_raw_step(Rat(10), 0) == (sys.b_at(1), 0)  # a_0^2 multiplies P_{-1}


def test_rr_zero_denominator_at_boundary():
    # p - (2n+2) = 0 at step 4: the raw route refuses there, and the streams
    # end at b_4 and a_3^2
    with pytest.raises(ZeroDenominator, match="^vanishing factor at step n = 4$") as exc:
        rr_raw_step(Rat(10), 4)
    assert exc.value.index == 4
    sys = rr_system(10)
    assert (sys.b.stop, sys.a2.stop) == (4, 3)


def test_rr_beyond_window():
    sys = rr_system(10)
    steps = [rr_raw_step(Rat(10), n) for n in range(4)]
    assert sys.block(4) == ([b for b, _ in steps], [a2 for _, a2 in steps[1:]])
    with pytest.raises(StreamExhausted, match=r"index 5 outside \[1, 4\]"):
        sys.b_at(5)
    with pytest.raises(StreamExhausted, match=r"index 4 outside \[1, 3\]"):
        sys.a2_at(4)


def test_monicize_step_already_monic_family():
    beta, c = Rat(5, 3), Rat(2, 7)
    b, a2 = monicize_step(Rat(1), -beta, c, Rat(1))
    assert b == beta and a2 == c


def test_rr_monic_polynomials_match_raw_recurrence():
    # raw route: N_{m+1} = (A_m x + B_m) N_m - C_m N_{m-1}; monic route must
    # equal N_m / (A_0 ... A_{m-1}) exactly
    x = Polynomial.x()
    prev, cur = Polynomial.zero(), Polynomial.one()
    lead = Rat(1)
    monic = monic_sequence(rr_system(10), 4)
    for m in range(4):
        A, B, C = rr_raw(Rat(10), m)
        nxt = (x.scale(A) + Polynomial([B])) * cur - prev.scale(C)
        prev, cur = cur, nxt
        lead = lead * A
        assert monic[m + 1] == cur.scale(1 / lead)


def _outcome(p, n):
    """``rr_raw_step(p, n)``, or its error as (type, message, index)."""
    try:
        return rr_raw_step(p, n)
    except (DegreeBeyondFamily, ZeroDenominator) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def _stream_step(sys, n):
    """(b_{n+1}, a_n^2) read from the streams, a_0^2 = 0."""
    return sys.b_at(n + 1), sys.a2_at(n) if n else 0


def test_rr_scan_matches_direct_route():
    # the closed forms serve b_1..b_{n_max} and a_1^2..a_{n_max-1}^2: each
    # step below n_max equals the raw route's, which refuses at exactly
    # n_max, for a vanishing factor or for a_n^2 <= 0
    ps = sorted({Rat(num, den) for den in (1, 2, 3, 4, 5, 7) for num in range(-30, 61)})
    assert len(ps) == 391
    # p = 8189..8195 stop around the cap of 4096, and p = 8189/2..8195/2 at
    # half of it
    edges = [Rat(k, d) for d in (2, 1) for k in range(8189, 8196)]
    stops, n_maxes = set(), []
    for p in ps + edges:
        sys = rr_system(p)
        n_max = sys.b.stop
        assert sys.a2.stop == max(n_max - 1, 0)
        n_maxes.append(n_max)
        for n in range(n_max):
            assert _outcome(p, n) == _stream_step(sys, n), (p, n)
        if n_max < 4096:
            stop = _outcome(p, n_max)
            assert stop[0] in (DegreeBeyondFamily, ZeroDenominator), (p, stop)
            stops.add(stop[0])
    assert stops == {ZeroDenominator, DegreeBeyondFamily}
    assert n_maxes[-14:] == [2047, 2047, 2048, 2047, 2048, 2048, 2049,
                             4094, 4094, 4095, 4095, 4096, 4096, 4096]


def test_rr_scan_cap_agrees_with_system():
    # no step below the cap of 4096 ends these families, so the streams stop
    # at the cap; the raw route is read at steps 1, 2 and 4095 of the tall p
    for p, steps in ((Rat(10**5), range(4096)), (Rat(int("9" * 4300)), (0, 1, 2, 4095))):
        sys = rr_system(p)
        assert (sys.b.stop, sys.a2.stop) == (4096, 4095)
        for n in steps:
            assert _outcome(p, n) == _stream_step(sys, n), (n,)
        with pytest.raises(StreamExhausted):
            sys.b_at(4097)
        with pytest.raises(StreamExhausted):
            sys.a2_at(4096)


@pytest.mark.parametrize("p", ["30", "61/2", "100/3", "41"])
def test_rr_moments_closed_form(p):
    # the weight x^(-p) e^(-1/x) on (0, inf) has mu_k/mu_0 = Gamma(p-k-1)/Gamma(p-1)
    # = 1/((p-2)(p-3)...(p-k-1)); the walk of moments(sys, k) reads the block
    # of size (k+1)//2 + 1, served for every k <= 2 n_max - 2
    sys = closed_form("routh_romanovski", p)
    p = Rat(p)
    want = Rat(1)
    for k in range(2 * sys.b.stop - 1):
        assert moments(sys, k) == want, k
        want /= p - k - 2
    assert k >= 26
    with pytest.raises(StreamExhausted):
        moments(sys, k + 1)


def test_rr_rules_evaluate_only_what_is_read(monkeypatch):
    # the window comes from the roots of the factors, not from a scan of the
    # entries: an order-2 block of a 4300-digit p evaluates b_1, b_2 and a_1^2
    reads, from_fn = [], CoeffStream.from_fn

    def spy(fn, stop=None):
        seen = []
        reads.append(seen)
        return from_fn(lambda n: seen.append(n) or fn(n), stop)

    monkeypatch.setattr(CoeffStream, "from_fn", spy)
    sys = closed_form("routh_romanovski", "9" * 4300)
    assert (sys.b.stop, sys.a2.stop, reads) == (4096, 4095, [[], []])
    sys.block(2)
    assert reads == [[1, 2], [1]]


def test_rr_subdiagonal_positive_inside_window():
    sys = rr_system(10)
    assert sys.a2.stop == 3
    assert all(sys.a2[n] > 0 for n in range(1, 4))


# -- Christoffel-pair relations -------------------------------------------------------

def test_forward_solve_first_step():
    l = l_from_gamma([1], 1)
    assert l[1] == 3  # 1 + 4*1*1/(1+1)


def test_forward_solve_rejects_degenerate():
    with pytest.raises(NonPositiveInput):
        l_from_gamma([0], 1)
    with pytest.raises(NonPositiveInput):
        l_from_gamma([1], 0)


def test_partner_coefficients_basic():
    l = LSequence((Rat(1), Rat(3), Rat(5)), Rat(1))
    assert gamma_phi2_from_l(l) == [3]  # (3-1)(5+1)/4


def test_l_sequence_entries_are_exact():
    # a float l_n or k would make gamma_phi2_from_l compute in float64
    with pytest.raises(InvalidRationalLiteral):
        LSequence((1, 1.5, Rat(5, 2)), Rat(1, 2))
    with pytest.raises(InvalidRationalLiteral):
        LSequence((1, Rat(3, 2), Rat(5, 2)), 0.5)
    l = LSequence((1, "3/2", 3), "1/2")
    assert (l.l, l.k) == ((1, Rat(3, 2), 3), Rat(1, 2))
    assert all(type(v) is Rat for v in (*l.l, l.k))
    assert gamma_phi2_from_l(l) == [1]  # (3/2 - 1)(3 + 1)/(4 * 1/2)


def test_partner_equals_source_for_constant_l():
    c = Rat(7, 2)
    l = LSequence((Rat(1),) + (c,) * 8, Rat(2))
    phi2 = gamma_phi2_from_l(l)
    # source coefficients via the defining relation at the same indices
    phi1 = [(l[n] - 1) * (l[n - 1] + 1) / (4 * l.k) for n in range(1, len(l))]
    # shifted factors coincide from the second served index on
    assert phi2[1:] == phi1[2:]


def test_periodic_pattern_swaps_adjacent_pairs():
    # l follows a,b,b,a,a,b,b,a,... so the two defining relations produce
    # coefficient streams that are pairwise swaps of one another
    a, b, k = Rat(3), Rat(5), Rat(1)
    pattern = [a, b, b, a]
    l_vals = [Rat(1)] + [pattern[(n - 1) % 4] for n in range(1, 13)]
    l = LSequence(tuple(l_vals), k)
    phi1 = {n + 1: (l[n] - 1) * (l[n - 1] + 1) / (4 * k) for n in range(1, len(l) - 1)}
    phi2 = {n + 1: v for n, v in zip(range(1, len(l) - 1), gamma_phi2_from_l(l))}
    # indices pair up as (3,4), (5,6), ... wherever both sides are defined
    for base in range(3, 11, 2):
        assert phi2[base] == phi1[base + 1]
        assert phi2[base + 1] == phi1[base]


def test_round_trip_through_l():
    phi1 = [Rat(3, 2), Rat(2), Rat(5, 2), Rat(3), Rat(7, 2)]
    l = l_from_gamma(phi1, Rat(1, 2))
    for n in range(1, len(l)):
        assert (l[n] - 1) * (l[n - 1] + 1) == 4 * Rat(1, 2) * phi1[n - 1]
