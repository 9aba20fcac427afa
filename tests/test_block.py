"""The order-n Jacobi block and every whole-window reader built on it.

The error cases pin class, message and index as they were before the
readers shared ``ThreeTermSystem.block``; a single fault in the window is
reported the same way by every reader.
"""

import gc
import random
import weakref
from collections import Counter
from unittest.mock import patch

import pytest

from opchain import (
    GammaSeq,
    Polynomial,
    Rat,
    ThreeTermSystem,
    associated_sequence,
    chain_at,
    gamma_from_system,
    hat_system,
    kernel_identity_check,
    kernel_invariance_condition,
    kernel_system,
    laguerre_system,
    minimal_parameters,
    moments,
    monic_sequence,
    parameters_from_gamma,
    q_system,
    swap_split_check,
    symmetric_sequence,
    system_from_gamma,
    systems_agree,
    tilde_kernel_system,
    tilde_system,
    truncate,
    u_system,
    wall_sppcs_test,
    zeros_with_brackets,
    cli,
    verify,
)
from opchain.chains import WallVerdict
from opchain.chains import _gamma_system
from opchain.errors import StreamExhausted
from opchain.perturb import quasi_holds, quasi_sides
from opchain.streams import CoeffStream
from opchain.systems import _pairs, _recurrence
from opchain.verify import random_gamma

from reference import chain_at_via_polynomials

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


G12 = GammaSeq.from_values([Rat(k) for k in range(1, 13)])
_D = chain_at(LAG73, Rat(-1, 2), 3)
# reader of order n, and its result at n = 0
_ORDER_READERS = {
    "block": (lambda n: LAG73.block(n), ([], [])),
    "monic_sequence": (lambda n: monic_sequence(LAG73, n), [Polynomial.one()]),
    "associated_sequence": (lambda n: associated_sequence(LAG73, n), [Polynomial.zero()]),
    "symmetric_sequence": (lambda n: symmetric_sequence(CoeffStream.from_values([1, 2]), n),
                           [Polynomial.one()]),
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
    "parameters_from_gamma": (lambda n: parameters_from_gamma(G12, n).g, (Rat(1, 3),)),
    "kernel_invariance_condition": (lambda n: kernel_invariance_condition(G12, n), True),
    # identity checks of an order N
    "swap_split_check": (lambda n: swap_split_check(G12, n).ok, True),
    "kernel_identity_check": (lambda n: kernel_identity_check(G12, n).ok, True),
    "quasi_holds": (lambda n: quasi_holds(G12, G12, n), []),
    "wall_sppcs_test": (lambda n: wall_sppcs_test(minimal_parameters(_D, 3), n),
                        WallVerdict("Inconclusive", 0)),
}


@pytest.mark.parametrize("reader", sorted(_ORDER_READERS))
def test_one_order_rule(reader):
    read, empty = _ORDER_READERS[reader]
    assert read(0) == empty
    for n in (-1, -2):  # the order named is the caller's, not an inner read's
        # moments keeps its own message for the moment order k
        message = ("moment order must be >= 0" if reader == "moments"
                   else f"order n = {n} must be >= 0")
        with pytest.raises(ValueError, match=message):
            read(n)


# -- the integer-pair block of gamma-derived systems -------------------------------
#
# A gamma row's entries are integer-pair formulas; its streams are rational
# views of them, and ``_block_pairs(n)`` reads each gamma once, as integer
# pairs.  Both must give what the row's closed form gives when it is read
# through ``gamma.at`` as rationals, and, on bad data, the same first fault.


def _reference_row(gamma: GammaSeq, offsets) -> ThreeTermSystem:
    """b_m = gamma_{2m+i} + gamma_{2m+j} (gamma_r for b_1 when r is set) and
    a_n^2 = gamma_{2n+k} gamma_{2n+l} over ``gamma.at``, left operand first."""
    i, j, k, l, b1 = offsets

    def diag(m):
        if m == 1 and b1 is not None:
            return gamma.at(b1)
        return gamma.at(2 * m + i) + gamma.at(2 * m + j)

    return ThreeTermSystem(
        CoeffStream.from_fn(diag),
        CoeffStream.from_fn(lambda n: gamma.at(2 * n + k) * gamma.at(2 * n + l)))


# row: (constructor, offsets (i, j, k, l, b1) of the closed form in its docstring)
_GAMMA_ROWS = {
    "system": (system_from_gamma, (-1, 0, 0, 1, None)),
    "system_minimal": (lambda g: system_from_gamma(g, minimal_branch=True), (-1, 0, 0, 1, 2)),
    "kernel": (kernel_system, (0, 1, 1, 2, None)),
    "tilde": (tilde_system, (-1, 0, -1, 2, 1)),
    "hat": (hat_system, (-1, 0, -1, 2, None)),
    "tilde_kernel": (tilde_kernel_system, (-1, 2, 1, 2, None)),
    "q": (q_system, (1, 2, 2, 3, None)),
    "u": (u_system, (0, 1, 1, 2, 3)),
    # tilde and hat without their gamma_1 > 0 guard: a_1^2 = gamma_1 gamma_4
    "tilde_row": (lambda g: _gamma_system(g, (-1, 0, -1, 2, 1)), (-1, 0, -1, 2, 1)),
    "hat_row": (lambda g: _gamma_system(g, (-1, 0, -1, 2, None)), (-1, 0, -1, 2, None)),
    # a row whose a2 reaches further into the gamma than its b
    "wide_a2_row": (lambda g: _gamma_system(g, (-1, 0, 1, 4, None)), (-1, 0, 1, 4, None)),
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
    for length in range(9):
        out[f"short{length}"] = base[:length]
    for k in range(1, 17):
        bad = list(base)
        bad[k - 1] = Rat(-k, 3) if k % 2 else Rat(0)
        out[f"bad{k}"] = bad
    return out


_PARITY_GAMMAS = _parity_gammas()


def _assert_row_matches_reference(sys_, ref, label):
    """Every reader of the row gives the reference's values or its first fault."""
    for m in range(10):
        for read in ("b_at", "a2_at"):
            want = _outcome(lambda: getattr(ref, read)(m))
            assert _outcome(lambda: getattr(sys_, read)(m)) == want, (label, read, m)
        assert _outcome(lambda: sys_.a2[m]) == _outcome(lambda: ref.a2[m]), (label, m)
    for n in range(9):
        want = _outcome(lambda: ref.block(n))
        assert _outcome(lambda: sys_.block(n)) == want, (label, n)
        want = _outcome(lambda: tuple(_pairs(w) for w in ref.block(n)))
        got = _outcome(lambda: sys_._block_pairs(n))
        assert got == want, (label, n)
        if isinstance(got[0], list):
            assert all(type(v) is int for w in got for pair in w for v in pair)
        want = _outcome(lambda: _rational_associated(ref, n))
        assert _outcome(lambda: associated_sequence(sys_, n)) == want, (label, n)


@pytest.mark.parametrize("row", sorted(_GAMMA_ROWS))
@pytest.mark.parametrize("gamma", sorted(_PARITY_GAMMAS))
def test_gamma_pairs_match_the_block(row, gamma):
    g = GammaSeq.from_values(_PARITY_GAMMAS[gamma])
    make, offsets = _GAMMA_ROWS[row]
    sys_ = _outcome(lambda: make(g))
    if isinstance(sys_, tuple):  # the constructor itself rejected the gamma
        return
    _assert_row_matches_reference(sys_, _reference_row(g, offsets), (row, gamma))


def test_gamma_pairs_reach_every_fault_kind():
    # the parity gammas above make each row fail in each of these ways
    kinds = set()
    for row, _ in _GAMMA_ROWS.values():
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


# -- every integer-pair reader, on value-backed and rule-backed streams ------------
#
# A value stream splits its stored rational on read, as a rule splits the
# value it gives; either way a reader's pairs must be ``_pairs`` of the
# rationals the streams give, and a fault must be the one the rational read
# meets first.


def _rule_copy(stream: CoeffStream) -> CoeffStream:
    """The entries of a value stream as a rule, which ends where it ends."""
    vals, stop = stream.window(1, stream.stop), stream.stop

    def fn(k):
        if k > stop:
            raise StreamExhausted(k, f"index {k} outside [1, {stop}]")
        return vals[k - 1]

    return CoeffStream.from_fn(fn)


_COPIES = {"values": lambda s: s, "rule": _rule_copy}


def _rational_associated(sys_, n):
    """``associated_sequence`` over the rationals, in its read order."""
    if n == 0:
        return [Polynomial.zero()]
    diag = sys_.b.window(2, min(n, 2))
    sub = [sys_.a2_at(k) for k in range(1, min(n, 2))]
    diag += sys_.b.window(3, n)
    sub += [sys_.a2_at(k) for k in range(2, n)]
    return [Polynomial.zero(), Polynomial.one()] + _recurrence(_pairs(diag), _pairs(sub[1:]))


def _rational_symmetric(nu, n):
    return [Polynomial.one()] + _recurrence([(0, 1)] * n, _pairs(nu.window(1, n)[1:]))


def _assert_pair_readers(sys_, label):
    for n in range(9):
        want = _outcome(lambda: tuple(_pairs(w) for w in sys_.block(n)))
        assert _outcome(lambda: sys_._block_pairs(n)) == want, (label, n)
        want = _outcome(lambda: _rational_associated(sys_, n))
        assert _outcome(lambda: associated_sequence(sys_, n)) == want, (label, n)


@pytest.mark.parametrize("copy", sorted(_COPIES))
@pytest.mark.parametrize("gamma", sorted(_PARITY_GAMMAS))
def test_pair_readers_of_every_gamma_row(gamma, copy):
    g = GammaSeq(_COPIES[copy](CoeffStream.from_values(_PARITY_GAMMAS[gamma])))
    for row, (make, offsets) in sorted(_GAMMA_ROWS.items()):
        sys_ = _outcome(lambda: make(g))
        if not isinstance(sys_, tuple):  # the constructor itself rejected the gamma
            _assert_row_matches_reference(sys_, _reference_row(g, offsets), row)
    for n in range(17):
        want = _outcome(lambda: _rational_symmetric(g.gamma, n))
        assert _outcome(lambda: symmetric_sequence(g.gamma, n)) == want, n


def _value_systems():
    b = [Rat(k, 3) - 2 for k in range(1, 9)]  # negative, zero and positive b
    a2 = [Rat(k * k, 5) for k in range(1, 8)]
    out = {"full": (b, a2)}
    for k in range(1, 8):
        bad = list(a2)
        bad[k - 1] = Rat(-k, 7) if k % 2 else Rat(0)
        out[f"a2_{k}<=0"] = (b, bad)
    for m in range(8):
        out[f"short_b{m}"] = (b[:m], a2)
        out[f"short_a2{m}"] = (b, a2[:m])
    return out


_VALUE_SYSTEMS = _value_systems()


@pytest.mark.parametrize("copy", sorted(_COPIES))
@pytest.mark.parametrize("system", sorted(_VALUE_SYSTEMS))
def test_pair_readers_of_value_systems(system, copy):
    b, a2 = (CoeffStream.from_values(w) for w in _VALUE_SYSTEMS[system])
    _assert_pair_readers(ThreeTermSystem(_COPIES[copy](b), _COPIES[copy](a2)), system)


def test_pair_readers_reach_every_fault_kind():
    kinds = set()
    for b, a2 in _VALUE_SYSTEMS.values():
        first = _outcome(lambda: associated_sequence(ThreeTermSystem.from_values(b, a2), 8))[0]
        if isinstance(first, str):
            kinds.add(first)
    assert kinds == {"NonPositiveA2", "StreamExhausted"}


def test_associated_sequence_reads_each_gamma_once():
    vals = list(random_gamma(random.Random(6), 90).gamma.window(1, 90))
    reads = Counter()
    gamma = GammaSeq(CoeffStream.from_fn(lambda k: reads.update([k]) or vals[k - 1]))
    associated_sequence(system_from_gamma(gamma), 40)
    # b_2..b_40 = gamma_3 + gamma_4 .. gamma_79 + gamma_80, and a_1^2 = gamma_2 gamma_3:
    # b_1 = gamma_1 + gamma_2 is never read
    assert sorted(reads) == list(range(2, 81))
    assert max(reads.values()) == 1


@pytest.mark.parametrize("row", sorted(_GAMMA_ROWS))
def test_a_row_reads_each_gamma_once_in_its_lifetime(row):
    # every reader of one row shares its gamma reads, rational and integer alike
    vals = list(random_gamma(random.Random(7), 40).gamma.window(1, 40))
    reads = Counter()
    # tilde, hat and u check a gamma at construction, through the same pairs
    sys_ = _GAMMA_ROWS[row][0](GammaSeq.from_fn(lambda k: reads.update([k]) or vals[k - 1]))
    sys_.block(8)
    sys_._block_pairs(8)
    for m in range(1, 9):
        sys_.b_at(m)
        sys_.a2_at(m)
    monic_sequence(sys_, 8)
    associated_sequence(sys_, 8)
    assert reads and max(reads.values()) == 1, reads


class _CountingValues(CoeffStream):
    """A value stream that counts its entry reads, as rationals or as pairs."""

    __slots__ = ("reads",)

    def __getitem__(self, n):
        self.reads += 1
        return super().__getitem__(n)

    def _pair(self, n):
        self.reads += 1
        return super()._pair(n)


def _split_at(g, k):
    v = g.at(k)
    return v.numerator, v.denominator


@pytest.mark.parametrize("copy", sorted(_COPIES))
@pytest.mark.parametrize("gamma", sorted(_PARITY_GAMMAS))
def test_gamma_pair_is_at_split(gamma, copy):
    # the parts of ``at(k)`` as Python ints, or its fault with class, message and index
    vals = _PARITY_GAMMAS[gamma]
    g = GammaSeq(_COPIES[copy](CoeffStream.from_values(vals)))
    for k in range(len(vals) + 2):
        got = _outcome(lambda: g._pair(k))
        assert got == _outcome(lambda: _split_at(g, k)), (gamma, k)
        if len(got) == 2:
            assert all(type(v) is int for v in got), (gamma, k)


_STORE_CASES = [[0, Rat(1, 2), 3, 4], [Rat(-1, 2), 2], [1, 0, 3], [1, 2, Rat(-3, 2), 4, 5], []]


def test_gamma_pairs_are_stored_as_they_are_accepted():
    # nothing is read at construction, and each accepted entry is read from
    # the stream once, whatever precedes it, by ``at`` and ``_pair`` together
    for vals in _STORE_CASES:
        stream = _CountingValues(values=vals)
        stream.reads = 0
        g = GammaSeq(stream)
        assert stream.reads == 0, vals
        for k in range(len(vals) + 2):
            stream.reads = 0
            want = _outcome(lambda: _split_at(g, k))
            if len(want) == 2:
                assert [g._pair(k), g._pair(k), _split_at(g, k)] == [want] * 3, (vals, k)
                assert stream.reads == 1, (vals, k)
    reads = Counter()
    g = GammaSeq.from_fn(lambda k: reads.update([k]) or Rat(k))
    assert [g._pair(k) for k in (1, 2, 1)] == [(1, 1), (2, 1), (1, 1)]
    assert reads == Counter({1: 1, 2: 1})


def test_a_refused_gamma_index_raises_on_every_read():
    # a fault is not stored: every read meets it in the stream again, with the
    # class, message and index of ``at``, and so does every read of a row
    for vals in _STORE_CASES:
        stream = _CountingValues(values=vals)
        stream.reads = 0
        g = GammaSeq(stream)
        for k in range(len(vals) + 2):
            want = _outcome(lambda: _split_at(g, k))
            if len(want) == 3:
                for _ in range(3):
                    stream.reads = 0
                    assert _outcome(lambda: g._pair(k)) == want, (vals, k)
                    assert stream.reads == 1, (vals, k)
    g = GammaSeq.from_values(_PARITY_GAMMAS["bad5"])
    sys_ = system_from_gamma(g)
    want = _outcome(lambda: g.at(5))
    assert [_outcome(lambda: sys_.block(4)) for _ in range(3)] == [want] * 3
    assert [_outcome(lambda: kernel_system(g).block(4)) for _ in range(3)] == [want] * 3


def _read_every_row_and_check(g):
    """Read all of ``_GAMMA_ROWS``, both gamma checks and every reader of
    ``GammaSeq.at`` of ``g`` to order 8; the gccs suite runs on ``g`` alone."""
    for make, _ in _GAMMA_ROWS.values():
        sys_ = make(g)
        sys_.block(8)
        sys_._block_pairs(8)
        monic_sequence(sys_, 8)
        associated_sequence(sys_, 8)
    assert swap_split_check(g, 8).ok and kernel_identity_check(g, 8).ok
    lhs, rhs = quasi_sides(g, g, 8)
    assert lhs == rhs and all(quasi_holds(g, g, 8))
    kernel_invariance_condition(g, 8)
    parameters_from_gamma(g, 8)
    with patch.object(verify, "random_gamma", lambda rng, length: g):
        assert verify.suite_gccs(samples=1, n=8).ok  # with its closed-form line


def test_every_row_and_check_of_a_gamma_share_its_pairs():
    # across all the rows of one gamma, the split and kernel checks and the
    # readers of ``at``, each entry is read from the stream at most once
    vals = list(random_gamma(random.Random(8), 40).gamma.window(1, 40))
    reads = Counter()
    _read_every_row_and_check(GammaSeq.from_fn(lambda k: reads.update([k]) or vals[k - 1]))
    assert sorted(reads) == list(range(1, 21)) and max(reads.values()) == 1, reads


def test_a_dropped_gamma_is_freed_without_the_collector():
    # the pair cache makes no reference cycle through the gamma, so reference
    # counting frees a gamma, and its rows, once the last reference goes
    vals = list(random_gamma(random.Random(9), 40).gamma.window(1, 40))
    gc.disable()
    try:
        for make in (GammaSeq.from_values, lambda v: GammaSeq.from_fn(lambda k: v[k - 1])):
            g = make(vals)
            _read_every_row_and_check(g)
            ref = weakref.ref(g)
            del g
            assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("row", sorted(_GAMMA_ROWS))
def test_rows_index_an_admissible_stored_gamma(row):
    # once a gamma's pairs are stored, by any reader, a row reads its block
    # from them and not from the stream; a refused entry is not stored, so
    # each read of the block reads it again (bad16 has gamma_16 = 0, inside
    # the window every row's order-8 block spans)
    make, offsets = _GAMMA_ROWS[row]
    for gamma, rereads in (("random0", 0), ("bad16", 1)):
        stream = _CountingValues(values=_PARITY_GAMMAS[gamma])
        stream.reads = 0
        g = GammaSeq(stream)
        want = _outcome(lambda: tuple(_pairs(w) for w in _reference_row(g, offsets).block(8)))
        for k in range(1, 25):
            _outcome(lambda: g._pair(k))
        stream.reads = 0
        sys_ = make(g)
        for _ in range(2):
            assert _outcome(lambda: sys_._block_pairs(8)) == want
        assert stream.reads == 2 * rereads, gamma
