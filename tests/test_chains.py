import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opchain import (
    ChainSequence,
    GammaSeq,
    ParameterSeq,
    Rat,
    INFINITY,
    chain_at,
    complementary,
    e_family_system,
    gamma_from_system,
    generalised_complementary,
    laguerre_system,
    minimal_parameters,
    parameters_from_gamma,
    system_from_gamma,
    systems_agree,
    true_interval_predicate,
    wall_sppcs_test,
)
from opchain.errors import (
    InvalidGamma1,
    InvalidRationalLiteral,
    LengthMismatch,
    NotAChainSequence,
    NotMinimal,
    ParameterOutOfRange,
    PoleAtB,
)
from opchain.verify import random_gamma

from reference import chain_at_via_polynomials, value_rule

LAG0 = laguerre_system(0)
LAG_HALF = laguerre_system(Rat(-1, 2))


def const_chain(value, length):
    return ChainSequence.from_values([value] * length)


# -- minimal parameters ----------------------------------------------------

def test_minimal_constant_quarter():
    m = minimal_parameters(const_chain(Rat(1, 4), 3), 3)
    assert m.g == (0, Rat(1, 4), Rat(1, 3), Rat(3, 8))
    assert m.minimal


def test_minimal_laguerre_closed_form():
    m = minimal_parameters(chain_at(LAG0, Rat(0), 3), 3)
    assert m.g == (0, Rat(1, 3), Rat(2, 5), Rat(3, 7))


def test_minimal_rejects_non_chain():
    with pytest.raises(NotAChainSequence) as exc:
        minimal_parameters(ChainSequence.from_values([Rat(2)]), 1)
    assert exc.value.index == 1


def test_minimal_reconstructs_chain():
    rng = random.Random(1)
    for _ in range(5):
        gamma = GammaSeq.from_values([0] + random_gamma(rng, 22).window(2, 22))
        d = chain_at(system_from_gamma(gamma), Rat(0), 10)
        m = minimal_parameters(d, 10)
        for n in range(1, 11):
            assert (1 - m[n - 1]) * m[n] == d.at(n)


@given(st.lists(st.fractions(min_value=Fraction(1, 32), max_value=Fraction(31, 32),
                             max_denominator=32), min_size=1, max_size=8))
def test_minimal_parameters_bounded_by_any_parameter_seq(gs):
    # build a chain from an arbitrary parameter sequence starting at g_0 = 0
    g = [Rat(0)] + [Rat(f.numerator, f.denominator) for f in gs]
    d = ChainSequence.from_values([(1 - g[n - 1]) * g[n] for n in range(1, len(g))])
    m = minimal_parameters(d, len(g) - 1)
    assert tuple(m.g) == tuple(g)


# -- gamma recovery -----------------------------------------------------------

def test_gamma_recovery_laguerre():
    g = gamma_from_system(LAG0, Rat(0), 4)
    assert g.window(1, 9) == [0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_gamma_recovery_e_family():
    g = gamma_from_system(e_family_system(0), Rat(1), 3)
    assert g.window(1, 6) == [1, 1, 2, 2, 3, 3]


def test_gamma_recovery_rejects_leading_split():
    with pytest.raises(InvalidGamma1):
        gamma_from_system(LAG0, Rat(1), 3)  # gamma_1 = b_1
    with pytest.raises(InvalidGamma1):
        gamma_from_system(LAG0, Rat(-1), 3)


def test_gamma_recovery_coerces_gamma1():
    # a 'p/q' string and an int are taken as the rational they name
    want = gamma_from_system(LAG0, Rat(0), 3).window(1, 8)
    assert gamma_from_system(LAG0, "0", 3).window(1, 8) == want
    assert gamma_from_system(LAG0, 0, 3).window(1, 8) == want
    assert gamma_from_system(e_family_system(0), "1/2", 2).at(2) == Rat(3, 2)


def test_gamma_round_trip():
    rng = random.Random(2)
    for _ in range(5):
        gamma = random_gamma(rng, 22)
        sys = system_from_gamma(gamma)
        back = gamma_from_system(sys, gamma.at(1), 10)
        assert back.window(1, 22) == gamma.window(1, 22)
        assert systems_agree(system_from_gamma(back), sys, 10)


def test_system_from_gamma_small():
    sys = system_from_gamma(GammaSeq.from_values([1, 2, 3, 4]))
    assert sys.b_at(1) == 3 and sys.b_at(2) == 7 and sys.a2_at(1) == 6


# -- chain sequences at a point ---------------------------------------------------

def test_chain_at_origin_laguerre():
    d = chain_at(LAG0, Rat(0), 3)
    assert d.d.window(1, 3) == [Rat(1, 3), Rat(4, 15), Rat(9, 35)]


def test_chain_and_parameter_values():
    d = chain_at(LAG0, Rat(0), 3)
    m = minimal_parameters(d, 3)
    assert d.d.window(1, 3) == [Rat(1, 3), Rat(4, 15), Rat(9, 35)]
    assert m.g == (0, Rat(1, 3), Rat(2, 5), Rat(3, 7))
    assert m.minimal


def test_chain_at_pole():
    with pytest.raises(PoleAtB) as exc:
        chain_at(LAG0, Rat(1), 2)
    assert exc.value.index == 1


def test_chain_at_coerces_t_once():
    want = chain_at(LAG0, Rat(1, 2), 3).d.window(1, 3)
    assert want == [Rat(4, 5), Rat(16, 45), Rat(4, 13)]
    assert chain_at(LAG0, "1/2", 3).d.window(1, 3) == want
    assert chain_at(LAG0, 0, 3).d.window(1, 3) == chain_at(LAG0, Rat(0), 3).d.window(1, 3)


def test_chain_at_rejects_a_float_t_by_its_own_value():
    with pytest.raises(InvalidRationalLiteral, match=r"^float 0\.5 is not exact$"):
        chain_at(LAG0, 0.5, 3)
    with pytest.raises(InvalidRationalLiteral):
        chain_at(LAG0, "1/2x", 3)


def test_chain_at_matches_raw_ratio():
    d = chain_at(LAG0, Rat(0), 5)
    for n in range(1, 6):
        assert d.at(n) == LAG0.a2_at(n) / (LAG0.b_at(n) * LAG0.b_at(n + 1))


def test_chain_via_polynomials_equals_direct():
    for t in (Rat(-1), Rat(0)):
        lhs = chain_at_via_polynomials(LAG0, t, 3)
        rhs = chain_at(LAG0, t, 3)
        assert lhs.d.window(1, 3) == rhs.d.window(1, 3)


def test_chain_via_polynomials_empty():
    assert chain_at_via_polynomials(LAG0, Rat(-1), 0).d.window(1, 0) == []


def test_chain_via_polynomials_random_system():
    rng = random.Random(9)
    gamma = random_gamma(rng, 30)
    sys = system_from_gamma(gamma)
    for t in (Rat(-3, 7), Rat(1000)):  # left and right of every zero
        assert (chain_at_via_polynomials(sys, t, 8).d.window(1, 8)
                == chain_at(sys, t, 8).d.window(1, 8))


# -- complementary constructions ---------------------------------------------------

def test_complementary_laguerre():
    m = minimal_parameters(chain_at(LAG0, Rat(0), 3), 3)
    comp = complementary(m)
    assert comp.parameters.g == (0, Rat(2, 3), Rat(3, 5), Rat(4, 7))
    assert comp.d.window(1, 3) == [Rat(2, 3), Rat(1, 5), Rat(8, 35)]


def test_complementary_self_complementary_tail():
    m = ParameterSeq((Rat(0),) + (Rat(1, 2),) * 4)
    comp = complementary(m)
    assert comp.d.window(1, 4) == [Rat(1, 2), Rat(1, 4), Rat(1, 4), Rat(1, 4)]
    assert comp.parameters.g == (0,) + (Rat(1, 2),) * 4


def test_complementary_requires_minimal():
    with pytest.raises(NotMinimal):
        complementary(ParameterSeq((Rat(1, 3), Rat(1, 2))))


def test_complementary_is_an_involution():
    m = minimal_parameters(chain_at(LAG0, Rat(0), 6), 6)
    comp = complementary(m)
    k = minimal_parameters(comp, 6)
    assert k.g == comp.parameters.g  # forward recurrence recovers the attached parameters
    back = complementary(k)
    assert back.parameters.g == m.g
    d = chain_at(LAG0, Rat(0), 6)
    assert back.d.window(1, 6) == d.d.window(1, 6)


def test_generalised_complementary_worked_case():
    gamma = GammaSeq.from_values([1, 1, 2, 2, 3, 3, 4, 4])
    g = parameters_from_gamma(gamma, 3)
    assert g[0] == Rat(1, 2)
    theta = generalised_complementary(g)
    assert theta.at(1) == Rat(1, 4)
    for n in range(1, 4):
        expected = (gamma.at(2 * n - 1) * gamma.at(2 * n + 2)
                    / ((gamma.at(2 * n - 1) + gamma.at(2 * n))
                       * (gamma.at(2 * n + 1) + gamma.at(2 * n + 2))))
        assert theta.at(n) == expected


def test_generalised_complementary_of_minimal_is_complementary():
    m = minimal_parameters(chain_at(LAG0, Rat(0), 4), 4)
    a = generalised_complementary(m)
    b = complementary(m)
    assert a.d.window(1, 4) == b.d.window(1, 4)
    assert a.parameters.g == b.parameters.g


def test_parameter_bounds_rejected():
    with pytest.raises(ParameterOutOfRange):
        ParameterSeq((Rat(1),))  # g_0 = 1
    with pytest.raises(ParameterOutOfRange):
        ParameterSeq((Rat(0), Rat(1), Rat(1, 2)))  # interior entry = 1
    with pytest.raises(ParameterOutOfRange, match=r"g_2 = 1 outside \(0, 1\)"):
        ParameterSeq((0, "1/2", 1))  # final entry = 1


def test_parameter_entries_are_exact():
    # a float entry would let wall_sppcs_test decide its verdict on floats
    with pytest.raises(InvalidRationalLiteral):
        ParameterSeq((0, 0.25))
    m = ParameterSeq((0, "1/4"))
    assert m.g == (0, Rat(1, 4)) and all(type(v) is Rat for v in m.g)


def test_parameter_sandwich_on_shifted_family():
    # the gamma_1 = 1 split of the shifted family has g_n = 1/2 exactly
    sys = e_family_system(0)
    g = parameters_from_gamma(gamma_from_system(sys, Rat(1), 8), 8)
    assert all(v == Rat(1, 2) for v in g.g)
    d = chain_at(sys, Rat(0), 80)
    m = minimal_parameters(d, 8)
    for k in range(9):
        assert m[k] <= g[k]


# -- window classification -------------------------------------------------------------

def test_wall_unique_for_negative_alpha():
    m = minimal_parameters(chain_at(LAG_HALF, Rat(0), 50), 50)
    v = wall_sppcs_test(m, 50)
    assert v.kind == "UniqueByWall" and v.up_to == 50


def test_wall_complement_for_alpha_zero():
    m = minimal_parameters(chain_at(LAG0, Rat(0), 50), 50)
    v = wall_sppcs_test(m, 50)
    assert v.kind == "ComplementIsSPPCS"
    assert v.up_to == 50 and v.witness is None


def test_wall_window_longer_than_parameters():
    m = ParameterSeq((Rat(0), Rat(1, 3), Rat(2, 5), Rat(3, 7)))
    assert wall_sppcs_test(m, 3).up_to == 3
    with pytest.raises(LengthMismatch, match="window N = 4 needs m_0..m_4, got 4"):
        wall_sppcs_test(m, 4)


def test_wall_inconclusive():
    v = wall_sppcs_test(ParameterSeq((Rat(0), Rat(3, 5))), 1)
    assert v.kind == "Inconclusive" and v.witness == 1


# -- true interval ---------------------------------------------------------------------

def test_true_interval_laguerre_half_line():
    v = true_interval_predicate(LAG0, Rat(0), INFINITY, 20)
    assert v.passed and v.up_to == 20 and v.witness is None


def test_true_interval_coerces_endpoints():
    assert true_interval_predicate(LAG0, "0", INFINITY, 5) == \
        true_interval_predicate(LAG0, Rat(0), INFINITY, 5)
    assert true_interval_predicate(LAG0, "2", 3, 4) == \
        true_interval_predicate(LAG0, Rat(2), Rat(3), 4)


def test_true_interval_fails_on_wrong_window():
    v = true_interval_predicate(LAG0, Rat(2), Rat(3), 5)
    assert not v.passed
    assert "b_1" in v.witness  # b_1 = 1 is already outside (2, 3)


def test_verdicts_carry_witnesses():
    v = true_interval_predicate(LAG0, Rat(2), Rat(3), 4)
    assert not v.passed and v.up_to == 4 and "b_1" in v.witness
    m = minimal_parameters(chain_at(LAG0, Rat(0), 10), 10)
    w = wall_sppcs_test(m, 10)
    assert (w.kind, w.up_to, w.witness) == ("ComplementIsSPPCS", 10, None)


def test_true_interval_vacuous_window():
    v = true_interval_predicate(LAG0, Rat(0), Rat(2), 0)
    assert v.passed and v.up_to == 0


def test_true_interval_two_sided():
    # constant 1/4 chain belongs to b_n = 1/2 inside (0, 1)
    from opchain import ThreeTermSystem
    sys = ThreeTermSystem(
        value_rule(lambda n: Rat(1, 2)),
        value_rule(lambda n: Rat(1, 16)),
    )
    assert true_interval_predicate(sys, Rat(0), Rat(1), 15).passed
    assert not true_interval_predicate(sys, Rat(0), Rat(3, 5), 15).passed
