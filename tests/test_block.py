"""The order-n Jacobi block and every whole-window reader built on it.

The error cases pin class, message and index as they were before the
readers shared ``ThreeTermSystem.block``; a single fault in the window is
reported the same way by every reader.
"""

import pytest

from opchain import (
    GammaSeq,
    Polynomial,
    Rat,
    SymmetricSystem,
    ThreeTermSystem,
    associated_sequence,
    chain_at,
    chain_at_via_polynomials,
    laguerre_system,
    moments,
    monic_sequence,
    symmetric_sequence,
    systems_agree,
    truncate,
    unified_coefficients,
    unified_sequence,
    zeros_with_brackets,
    cli,
)
from opchain.streams import CoeffStream
from opchain.systems import _recurrence

LAG73 = laguerre_system(Rat(7, 3))


def test_block_reads_diag_then_validated_sub():
    diag, sub = LAG73.block(4)
    assert diag == [LAG73.b_at(k) for k in range(1, 5)]
    assert sub == [LAG73.a2_at(k) for k in range(1, 4)]
    assert LAG73.block(1) == ([LAG73.b_at(1)], [])
    assert LAG73.block(0) == ([], [])


def test_block_reads_b_before_a2():
    reads = []
    sys_ = ThreeTermSystem(*(
        CoeffStream.from_fn(lambda k, tag=tag: reads.append((tag, k)) or Rat(k))
        for tag in ("b", "a2")))
    sys_.block(3)
    assert reads == [("b", 1), ("b", 2), ("b", 3), ("a2", 1), ("a2", 2)]


def test_recurrence_consumes_a_block():
    # P_1 = x - d_1, P_2 = (x - d_2) P_1 - s_1
    p1, p2 = _recurrence([Rat(1), Rat(2)], [Rat(3)])
    assert p1.coeffs == (-1, 1)
    assert p2.coeffs == (-1, -3, 1)
    assert _recurrence([], []) == []


def test_readers_agree_with_the_block():
    diag, sub = LAG73.block(6)
    assert truncate(LAG73, 6).diag == tuple(diag)
    assert truncate(LAG73, 6).sub == tuple(sub)
    P = monic_sequence(LAG73, 6)
    assert P[1:] == _recurrence(diag, sub)
    z = associated_sequence(LAG73, 6)
    assert z[2:] == _recurrence(diag[1:], sub[1:])
    t = Rat(-1, 2)
    want = [s / ((t - u) * (t - v)) for s, u, v in zip(sub, diag, diag[1:])]
    assert chain_at(LAG73, t, 5).window(1, 5) == want
    assert systems_agree(LAG73, laguerre_system(Rat(7, 3)), 6)


# (class, message, index) of the first fault, one fault per system
_A2_2_ZERO = ("NonPositiveA2", "a2[2] = 0 is not positive", 2)
_SHORT_B = ("StreamExhausted", "index 3 outside [1, 2]", 3)
_FAULTY = {
    "a2_2=0": (ThreeTermSystem.from_values([1, 2, 3, 4], [1, 0, 1]), _A2_2_ZERO),
    "short b": (ThreeTermSystem.from_values([1, 2], [1, 1, 1]), _SHORT_B),
}
_READERS = {
    "monic_sequence": lambda s: monic_sequence(s, 4),
    "associated_sequence": lambda s: associated_sequence(s, 4),
    "moments": lambda s: moments(s, 6),
    "truncate": lambda s: truncate(s, 4),
    "zeros_with_brackets": lambda s: zeros_with_brackets(s, 4, 1e-10),
    "chain_at": lambda s: chain_at(s, Rat(1, 2), 3),
    "systems_agree": lambda s: systems_agree(s, s, 4),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("fault", sorted(_FAULTY))
def test_single_fault_reported_by_every_reader(fault, reader):
    sys_, (cls, message, index) = _FAULTY[fault]
    with pytest.raises(Exception) as info:
        _READERS[reader](sys_)
    assert (type(info.value).__name__, str(info.value), info.value.index) == (cls, message, index)


def test_chain_at_pole_at_b3():
    sys_ = ThreeTermSystem.from_values([1, 2, 3, 4, 5], [1, 1, 1, 1])
    with pytest.raises(Exception) as info:
        chain_at(sys_, 3, 4)
    assert (type(info.value).__name__, str(info.value), info.value.index) == (
        "PoleAtB", "t = 3 equals b_3", 3)


@pytest.mark.parametrize("variant", ["hat", "q", "tilde", "tilde_kernel", "u"])
def test_perturb_short_gamma(capsys, variant):
    code = cli.main(["perturb", "--variant", variant, "--gamma", "1,2,3,4,5", "--n", "4"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: StreamExhausted: index 6 outside [1, 5]\n")


@pytest.mark.parametrize("variant", ["TildeP", "TildeK"])
def test_unified_sequence_rejects_n_past_the_coefficients(variant):
    gamma = GammaSeq.from_values([Rat(k) for k in range(1, 13)])
    xi, eta = unified_coefficients(gamma, variant, 3)
    assert len(unified_sequence(xi, eta, 3)) == 4
    with pytest.raises(ValueError, match="n = 4 exceeds xi, eta of lengths 4, 4"):
        unified_sequence(xi, eta, 4)


_XI_ETA = unified_coefficients(GammaSeq.from_values([Rat(k) for k in range(1, 13)]),
                               "TildeK", 3)
# reader of order n, and its result at n = 0
_ORDER_READERS = {
    "block": (lambda n: LAG73.block(n), ([], [])),
    "monic_sequence": (lambda n: monic_sequence(LAG73, n), [Polynomial.one()]),
    "associated_sequence": (lambda n: associated_sequence(LAG73, n), [Polynomial.zero()]),
    "symmetric_sequence": (lambda n: symmetric_sequence(SymmetricSystem.from_values([1, 2]), n),
                           [Polynomial.one()]),
    "unified_sequence": (lambda n: unified_sequence(*_XI_ETA, n), [Polynomial.one()]),
    "truncate": (lambda n: truncate(LAG73, n).diag, ()),
    "zeros_with_brackets": (lambda n: zeros_with_brackets(LAG73, n, 1e-10), []),
    "chain_at": (lambda n: chain_at(LAG73, Rat(-1, 2), n).window(1, n), []),
    "chain_at_via_polynomials": (
        lambda n: chain_at_via_polynomials(LAG73, Rat(-1, 2), n).window(1, n), []),
    "systems_agree": (lambda n: systems_agree(LAG73, LAG73, n), True),
    "moments": (lambda n: moments(LAG73, n), 1),
}


@pytest.mark.parametrize("reader", sorted(_ORDER_READERS))
def test_one_order_rule(reader):
    read, empty = _ORDER_READERS[reader]
    assert read(0) == empty
    # moments keeps its own message for the moment order k
    message = "moment order must be >= 0" if reader == "moments" else "order n = -1 must be >= 0"
    with pytest.raises(ValueError, match=message):
        read(-1)
