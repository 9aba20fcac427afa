"""The order-n Jacobi block and every whole-window reader built on it.

The error cases pin class, message and index as they were before the
readers shared ``ThreeTermSystem.block``; a single fault in the window is
reported the same way by every reader.
"""

import random
from collections import Counter

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
    gamma_from_system,
    hat_system,
    kernel_invariance_condition,
    kernel_system,
    laguerre_system,
    maximal_parameters,
    minimal_parameters,
    moments,
    monic_sequence,
    parameters_from_gamma,
    q_system,
    symmetric_sequence,
    system_from_gamma,
    systems_agree,
    tilde_kernel_system,
    tilde_system,
    truncate,
    u_system,
    unified_coefficients,
    unified_sequence,
    zeros_with_brackets,
    cli,
)
from opchain.chains import _gamma_system
from opchain.streams import CoeffStream
from opchain.systems import _pairs, _recurrence
from opchain.verify import random_gamma

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
    p1, p2 = _recurrence([(1, 1), (2, 1)], [(3, 1)])
    assert p1.coeffs == (-1, 1)
    assert p2.coeffs == (-1, -3, 1)
    assert _recurrence([], []) == []


def test_readers_agree_with_the_block():
    diag, sub = LAG73.block(6)
    assert truncate(LAG73, 6).diag == tuple(diag)
    assert truncate(LAG73, 6).sub == tuple(sub)
    P = monic_sequence(LAG73, 6)
    assert P[1:] == _recurrence(_pairs(diag), _pairs(sub))
    z = associated_sequence(LAG73, 6)
    assert z[2:] == _recurrence(_pairs(diag[1:]), _pairs(sub[1:]))
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


G12 = GammaSeq.from_values([Rat(k) for k in range(1, 13)])
_XI_ETA = unified_coefficients(G12, "TildeK", 3)
_D = chain_at(LAG73, Rat(-1, 2), 3)
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
    # chains-layer readers of a window N
    "gamma_from_system": (lambda n: gamma_from_system(LAG73, 0, n).window(1, 2 * n + 2),
                          [0, LAG73.b_at(1)]),
    "minimal_parameters": (lambda n: minimal_parameters(_D, n).g, (0,)),
    "maximal_parameters": (lambda n: maximal_parameters(_D, n, 2).g,
                           (1 - _D.at(1) / (1 - _D.at(2)),)),
    "parameters_from_gamma": (lambda n: parameters_from_gamma(G12, n).g, (Rat(1, 3),)),
    "kernel_invariance_condition": (lambda n: kernel_invariance_condition(G12, n), True),
}


@pytest.mark.parametrize("reader", sorted(_ORDER_READERS))
def test_one_order_rule(reader):
    read, empty = _ORDER_READERS[reader]
    assert read(0) == empty
    # moments keeps its own message for the moment order k
    message = "moment order must be >= 0" if reader == "moments" else "order n = -1 must be >= 0"
    with pytest.raises(ValueError, match=message):
        read(-1)


# -- the integer-pair block of gamma-derived systems -------------------------------
#
# ``_block_pairs(n)`` of a gamma row reads each gamma once, as integer pairs;
# it must give the pairs of ``block(n)`` and, on bad data, the same first fault.

_GAMMA_ROWS = {
    "system": system_from_gamma,
    "system_minimal": lambda g: system_from_gamma(g, minimal_branch=True),
    "kernel": kernel_system,
    "tilde": tilde_system,
    "hat": hat_system,
    "tilde_kernel": tilde_kernel_system,
    "q": q_system,
    "u": u_system,
    # tilde and hat without their gamma_1 > 0 guard: a_1^2 = gamma_1 gamma_4
    "tilde_row": lambda g: _gamma_system(g, (-1, 0), (-1, 2), b1=1),
    "hat_row": lambda g: _gamma_system(g, (-1, 0), (-1, 2)),
}


def _outcome(read):
    try:
        return read()
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "index", None))


def _parity_gammas():
    rng = random.Random(12)
    out = {f"random{s}": list(random_gamma(rng, 24).gamma.window(1, 24)) for s in range(3)}
    base = out["random0"]
    out["gamma1=0"] = [Rat(0)] + base[1:]
    for length in range(1, 9):
        out[f"short{length}"] = base[:length]
    for k in range(1, 17):
        bad = list(base)
        bad[k - 1] = Rat(-k, 3) if k % 2 else Rat(0)
        out[f"bad{k}"] = bad
    return out


_PARITY_GAMMAS = _parity_gammas()


@pytest.mark.parametrize("row", sorted(_GAMMA_ROWS))
@pytest.mark.parametrize("gamma", sorted(_PARITY_GAMMAS))
def test_gamma_pairs_match_the_block(row, gamma):
    g = GammaSeq.from_values(_PARITY_GAMMAS[gamma])
    sys_ = _outcome(lambda: _GAMMA_ROWS[row](g))
    if isinstance(sys_, tuple):  # the constructor itself rejected the gamma
        return
    for n in range(9):
        want = _outcome(lambda: tuple(_pairs(w) for w in sys_.block(n)))
        got = _outcome(lambda: sys_._block_pairs(n))
        assert got == want, (row, gamma, n)
        if isinstance(got[0], list):
            assert all(type(v) is int for w in got for pair in w for v in pair)


def test_gamma_pairs_reach_every_fault_kind():
    # the parity gammas above make each row fail in each of these ways
    kinds = set()
    for row in _GAMMA_ROWS.values():
        for vals in _PARITY_GAMMAS.values():
            sys_ = _outcome(lambda: row(GammaSeq.from_values(vals)))
            if not isinstance(sys_, tuple):
                first = _outcome(lambda: sys_._block_pairs(8))[0]
                if isinstance(first, str):
                    kinds.add(first)
    assert {"NonPositiveA2", "NonPositiveGamma", "StreamExhausted"} <= kinds


def test_q_system_reads_each_gamma_once():
    vals = list(random_gamma(random.Random(5), 110).gamma.window(1, 110))
    reads = Counter()
    gamma = GammaSeq(CoeffStream.from_fn(lambda k: reads.update([k]) or vals[k - 1]))
    monic_sequence(q_system(gamma), 50)
    assert sorted(reads) == list(range(3, 103))  # b_m = gamma_{2m+1} + gamma_{2m+2}
    assert max(reads.values()) == 1
