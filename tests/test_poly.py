import math
import numbers
import operator
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import opchain
from opchain import (
    GammaSeq,
    Polynomial,
    Rat,
    parse_rational,
    system_from_gamma,
)
from opchain.errors import InvalidRationalLiteral
from opchain.jacobi import lu_factor, truncate
from opchain.scalars import coerce_exact
from opchain.streams import CoeffStream
from opchain.systems import ThreeTermSystem

from reference import (
    NonEvenPolynomial,
    NonOddPolynomial,
    evaluate,
    even_part,
    odd_part,
    substitute_square,
    value_rule,
)


def P(*coeffs):
    return Polynomial(coeffs)


rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=64
).map(lambda f: Rat(f.numerator, f.denominator))

polys = st.lists(rationals, max_size=9).map(Polynomial)


# -- addition ------------------------------------------------------------

def test_add_cancels_constant():
    assert P(1, 1) + P(-1, 1) == P(0, 2)


def test_add_zero_is_identity():
    p = P(3, -8, 1)
    assert Polynomial.zero() + p == p


def test_add_hand_example():
    assert P(3, -8, 1) + P(0, 8) == P(3, 0, 1)


def test_add_trims_trailing_zeros():
    assert (P(1, 2) + P(1, -2)).degree == 0


# -- multiplication -------------------------------------------------------

def test_mul_expands():
    assert P(-1, 1) * P(-3, 1) == P(3, -4, 1)


def test_mul_one_and_zero():
    p = P(2, 0, 5)
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero()
    assert (p * Polynomial.zero()).is_zero()


# -- evaluation -------------------------------------------------------------

def test_eval_quadratic():
    assert evaluate(P(2, -4, 1), Rat(2)) == -2


def test_eval_at_zero_gives_constant():
    assert evaluate(P(7, -4, 3), Rat(0)) == 7


def test_eval_zero_polynomial():
    assert evaluate(Polynomial.zero(), Rat(5)) == 0


def test_eval_point_is_coerced_like_a_scale_factor():
    p = P(2, -4, 1)
    assert evaluate(p, "1/2") == evaluate(p, Rat(1, 2)) == Rat(1, 4)
    assert evaluate(p, 3) == evaluate(p, Rat(3)) == -1
    with pytest.raises(InvalidRationalLiteral):
        evaluate(Polynomial.zero(), "abc")
    with pytest.raises(InvalidRationalLiteral):
        evaluate(Polynomial.zero(), 0.5)


# -- even/odd extraction ------------------------------------------------------

def test_even_part_quartic():
    assert even_part(P(3, 0, -8, 0, 1)) == P(3, -8, 1)


def test_even_part_constant():
    assert even_part(P(1)) == P(1)


def test_even_part_rejects_odd_coefficient():
    with pytest.raises(NonEvenPolynomial):
        even_part(P(0, 0, 0, 1))  # x^3


def test_odd_part_cubic():
    assert odd_part(P(0, -5, 0, 1)) == P(-5, 1)


def test_odd_part_x():
    assert odd_part(P(0, 1)) == P(1)


def test_odd_part_rejects_even_coefficient():
    with pytest.raises(NonOddPolynomial):
        odd_part(P(1, 0, 1))  # x^2 + 1


# -- properties ----------------------------------------------------------------

@given(polys)
def test_even_part_inverts_square_substitution(p):
    assert even_part(substitute_square(p)) == p


@given(polys, polys, rationals)
def test_eval_is_multiplicative(p, q, x):
    assert evaluate(p * q, x) == evaluate(p, x) * evaluate(q, x)


@given(rationals, rationals)
def test_rational_addition_two_routes(a, b):
    # direct sum against explicit common-denominator arithmetic
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    assert a + b == Rat(an * bd + bn * ad, ad * bd)


# -- float rejection -----------------------------------------------------------------

def test_mixed_backend_addition_rejected():
    # a float polynomial cannot be built, so it never reaches arithmetic
    with pytest.raises(InvalidRationalLiteral):
        Polynomial([0.5, 1.0]) + P(1, 1)


def test_float_coefficient_in_rational_polynomial_rejected():
    with pytest.raises(InvalidRationalLiteral):
        Polynomial([Rat(1), 0.5])


def test_float_evaluation_point_rejected():
    with pytest.raises(InvalidRationalLiteral):
        evaluate(P(1, 1), 0.5)


def test_float_scale_factor_rejected():
    with pytest.raises(InvalidRationalLiteral):
        P(1, 1).scale(0.5)


def test_exact_scale_factor_is_not_coerced(monkeypatch):
    import opchain.poly
    p, half, triple = P(2, 4), P(1, 2), P(6, 12)
    calls = []
    monkeypatch.setattr(opchain.poly, "coerce_exact", lambda c: calls.append(c) or Rat(c))
    assert p.scale(Rat(1, 2)) == half and calls == []
    assert p.scale(3) == triple and calls == [3]  # an int is still coerced


def test_float_in_coeff_stream_rejected():
    with pytest.raises(InvalidRationalLiteral):
        CoeffStream.from_values([Rat(1), 2, 0.5])


# -- foreign integer types ------------------------------------------------------------

class _Int64:
    """A signed 64-bit integer registered as ``numbers.Integral`` whose
    arithmetic wraps, as numpy's int64 does: a stand-in that needs no numpy."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = (int(v) + 2 ** 63) % 2 ** 64 - 2 ** 63

    def __index__(self):
        return self.v

    __int__ = __index__

    def __repr__(self):
        return repr(self.v)

    def __hash__(self):
        return hash(self.v)

    def __neg__(self):
        return _Int64(-self.v)

    numerator = property(lambda self: self)
    denominator = property(lambda self: 1)


def _int64_ops():
    def arith(op, reflected):
        def f(a, b):
            if not isinstance(b, (int, _Int64)):
                return NotImplemented
            return _Int64(op(int(b), a.v) if reflected else op(a.v, int(b)))
        return f

    def compare(op):
        return lambda a, b: op(a.v, int(b)) if isinstance(b, (int, _Int64)) else NotImplemented

    for name, op in (("add", operator.add), ("sub", operator.sub),
                     ("mul", operator.mul), ("floordiv", operator.floordiv)):
        setattr(_Int64, f"__{name}__", arith(op, False))
        setattr(_Int64, f"__r{name}__", arith(op, True))
    for name in ("eq", "ne", "lt", "le", "gt", "ge"):
        setattr(_Int64, f"__{name}__", compare(getattr(operator, name)))


_int64_ops()
numbers.Integral.register(_Int64)


class _IntSub(int):
    """An int subclass that, unlike int, is its own numerator."""

    numerator = property(lambda self: self)


def test_foreign_rationals_come_back_over_python_ints():
    big = _Int64(2 ** 62)
    assert big * 2 == -2 ** 63  # the stand-in wraps
    for value, want in ((big, Rat(2 ** 62)), (Fraction(big, 3), Rat(2 ** 62, 3)),
                        (Fraction(big), Rat(2 ** 62))):
        x = coerce_exact(value)
        assert type(x) is Rat and x == want
        assert type(x.numerator) is int and type(x.denominator) is int
        assert x * 2 == want * 2
    assert Polynomial([big]).scale(2) == P(2 ** 63)


def test_systems_over_foreign_integers_do_not_wrap():
    b, a2 = [2 ** 62, 2 ** 61, 3 * 2 ** 60], [2 ** 62, 2 ** 60]
    want = lu_factor(truncate(ThreeTermSystem.from_values(b, a2), 3))
    sys = ThreeTermSystem.from_values([_Int64(v) for v in b], [_Int64(v) for v in a2])
    got = lu_factor(truncate(sys, 3))
    assert got == want
    assert all(type(v.numerator) is int for v in got.u_diag + got.l_sub)


def test_fractions_over_foreign_integers_are_coerced():
    # A Fraction keeps the integer type it was built from, so being a
    # Fraction is not enough for a reader to take it as it is.
    b, a2 = [2 ** 62, 2 ** 61, 3 * 2 ** 60], [2 ** 62, 2 ** 60]
    want = lu_factor(truncate(ThreeTermSystem.from_values(b, a2), 3))

    def wrap(vs):
        return [Fraction(_Int64(v)) for v in vs]

    assert lu_factor(truncate(ThreeTermSystem.from_values(wrap(b), wrap(a2)), 3)) == want
    big = Fraction(_Int64(2 ** 62))
    assert type(big.numerator) is _Int64  # the stand-in survives in a Fraction
    p = Polynomial([big, 1])
    assert p == P(2 ** 62, 1) and all(type(n) is int for n in p.nums + (p.den,))
    assert P(1).scale(big).scale(4) == P(2 ** 64)
    assert evaluate(P(0, 1), big) * 4 == 2 ** 64
    rule = value_rule(lambda n: Fraction(_Int64(2 ** 62), n))
    assert type(rule[1].numerator) is int and rule[1] * 4 == 2 ** 64
    assert rule._pair(3) == (2 ** 62, 3)
    values = CoeffStream.from_values([big])
    assert type(values[1].numerator) is int and values._pair(1) == (2 ** 62, 1)
    # a foreign denominator alone is caught too
    tiny = Fraction(1, _Int64(2 ** 62))
    assert type(tiny.numerator) is int and type(tiny.denominator) is _Int64
    q = Polynomial([tiny])
    assert q == P(Rat(1, 2 ** 62)) and all(type(n) is int for n in q.nums + (q.den,))
    assert type(CoeffStream.from_values([tiny])[1].denominator) is int
    # an int subclass that is its own numerator survives in a Fraction too;
    # every integer-pair reader hands out Python ints
    sub = Fraction(_IntSub(2 ** 62))
    assert type(sub.numerator) is _IntSub
    values, rule = CoeffStream.from_values([sub] * 3), value_rule(lambda n: sub)
    gammas = (GammaSeq.from_values([sub] * 8), GammaSeq(rule))
    pairs = [*map(values._pair, (1, 2, 3)), rule._pair(2), *(g._pair(3) for g in gammas)]
    for system in (ThreeTermSystem(values, rule), *map(system_from_gamma, gammas)):
        diag, sub2 = system._block_pairs(3)
        pairs += diag + sub2
    assert all(type(n) is int and type(d) is int for n, d in pairs)


def test_an_importable_gmpy2_is_not_used():
    code = """if True:
        import fractions, sys, types
        fake = types.ModuleType("gmpy2")
        fake.mpq = type("mpq", (fractions.Fraction,), {})
        sys.modules["gmpy2"] = fake
        import opchain
        assert opchain.scalars.Rat is fractions.Fraction, opchain.scalars.Rat
        assert opchain.RAT_BACKEND == "fractions", opchain.RAT_BACKEND
    """
    src = str(pathlib.Path(opchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


# -- parsing and JSON -----------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("7/3") == Rat(7, 3)
    assert parse_rational("-4") == -4
    assert parse_rational(" 2/4 ") == Rat(1, 2)


@pytest.mark.parametrize("bad", ["1/0", "1.5", "1e3", "x", "1/-2", ""])
def test_parse_rational_rejects(bad):
    with pytest.raises(InvalidRationalLiteral):
        parse_rational(bad)


def test_parse_rational_beyond_the_digit_limit():
    # CPython's limit on parsing long integers stays; past it the literal is rejected
    with pytest.raises(InvalidRationalLiteral, match=r"limit \(\d+ digits\)"):
        parse_rational("1/" + "7" * 4400)


def test_json_round_trip():
    p = P(3, -8, 1)
    assert p.to_json() == {"coeffs": ["3", "-8", "1"]}
    assert Polynomial([parse_rational(c) for c in p.to_json()["coeffs"]]) == p


def test_degree_conventions():
    assert Polynomial.zero().degree == -1
    assert P(5).degree == 0
    assert P(0, 0, Rat(1, 2)).degree == 2
    assert P(2, -4, 1).is_monic()
    assert not P(2, -4, 2).is_monic()


# -- canonical integer-vector form ------------------------------------------------------

def _frac(v):
    return Fraction(int(v.numerator), int(v.denominator))


def _ref(p):
    return [_frac(c) for c in p.coeffs]


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += sign * c
    return _trim(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _assert_canonical(p):
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.nums or p.den == 1
    assert all(type(c) is Rat for c in p.coeffs)
    assert _ref(p) == [Fraction(int(n), int(p.den)) for n in p.nums]


wide = st.fractions(max_denominator=10**9).map(lambda f: Rat(f.numerator, f.denominator))
wide_polys = st.lists(st.one_of(wide, st.just(Rat(0))), max_size=8).map(Polynomial)


@given(wide_polys, wide_polys, wide)
def test_every_operation_matches_a_fraction_list(p, q, c):
    a, b = _ref(p), _ref(q)
    results = {
        "add": (p + q, _ref_add(a, b)),
        "sub": (p - q, _ref_add(a, b, -1)),
        "neg": (p.scale(-1), [-x for x in a]),
        "mul": (p * q, _ref_mul(a, b)),
        "scale": (p.scale(c), _trim([_frac(c) * x for x in a])),
        "square": (substitute_square(p), _trim([y for x in a for y in (x, Fraction(0))])),
    }
    for name, (got, want) in results.items():
        _assert_canonical(got)
        assert _ref(got) == want, name
        assert got == Polynomial(want) and hash(got) == hash(Polynomial(want)), name
    x = _frac(c)
    assert _frac(evaluate(p, c)) == sum((v * x ** i for i, v in enumerate(a)), Fraction(0))
    assert p.degree == len(a) - 1
    assert p.is_monic() == (bool(a) and a[-1] == 1)
    assert (p == q) == (a == b)
    assert even_part(substitute_square(p)) == p
    assert odd_part(substitute_square(p) * Polynomial.x()) == p


@given(wide_polys, wide_polys, wide_polys)
def test_equal_values_by_different_routes_are_equal_and_hash_equal(p, q, r):
    left, right = (p * q) + r, r + (q * p)
    _assert_canonical(left)
    assert left == right and hash(left) == hash(right)
    assert left.nums == right.nums and left.den == right.den
    diff = (p + q) - q - p
    assert diff == Polynomial.zero() and hash(diff) == hash(Polynomial.zero())
    rebuilt = Polynomial(left.coeffs)
    assert rebuilt == left and hash(rebuilt) == hash(left)


def test_constructor_forms_share_one_canonical_vector():
    p = Polynomial(["1/2", 3, Rat(-5, 4), 0, 0])
    assert (p.nums, p.den) == ((2, 12, -5), 4)
    assert p.coeffs == (Rat(1, 2), Rat(3), Rat(-5, 4))
    assert Polynomial([Rat(2, 4), Rat(6, 2), "-10/8"]) == p
    assert Polynomial.zero().nums == () and Polynomial.zero().den == 1


# -- immutability and the combination test ----------------------------------------------

@pytest.mark.parametrize("name", ["nums", "den"])
def test_polynomial_slots_cannot_be_assigned(name):
    p = P(1, Rat(1, 2))
    with pytest.raises(AttributeError, match="immutable"):
        setattr(p, name, getattr(p, name))
    assert (p.nums, p.den) == ((2, 1), 2) and p.coeffs == (1, Rat(1, 2))


@pytest.mark.parametrize("name", ["nums", "den"])
def test_polynomial_slots_cannot_be_deleted(name):
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError, match="immutable"):
        delattr(p, name)
    assert (p.nums, p.den, p.degree) == ((1, 2), 1, 1) and p.coeffs == (1, 2)
    assert p == Polynomial([1, 2]) and hash(p) == hash(Polynomial([1, 2]))

