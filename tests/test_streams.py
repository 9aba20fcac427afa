import re

import pytest

from opchain import (
    GammaSeq,
    Rat,
    ThreeTermSystem,
    laguerre_system,
    monic_sequence,
    system_from_gamma,
)
from opchain.errors import InvalidRationalLiteral, StreamExhausted
from opchain.streams import CoeffStream


def _exhausted(stream, n):
    with pytest.raises(StreamExhausted) as info:
        stream[n]
    assert info.value.index == n
    return str(info.value)


def test_value_stream_length_is_its_stop():
    s = CoeffStream.from_values([1, 2, 3])
    assert s.stop == 3
    assert s.window(1, 3) == [1, 2, 3]
    assert _exhausted(s, 0) == "index 0 outside [1, 3]"
    assert _exhausted(s, 4) == "index 4 outside [1, 3]"


def test_rule_stream_has_no_stop():
    s = CoeffStream.from_fn(lambda n: Rat(n, 2))
    assert s.stop is None
    assert s[10**6] == Rat(10**6, 2)
    assert _exhausted(s, 0) == "index 0 outside [1, None]"


def test_empty_value_stream():
    # what `family routh_romanovski --p 0` reports
    s = CoeffStream.from_values([])
    assert s.stop == 0
    assert _exhausted(s, 1) == "index 1 outside [1, 0]"


def test_value_stream_pairs_split_its_values():
    s = CoeffStream.from_values([Rat(6, 4), -2, "3/9"])
    assert [s._pair(k) for k in (1, 2, 3)] == [(3, 2), (-2, 1), (1, 3)]
    assert all(s._pair(k) == (s[k].numerator, s[k].denominator) for k in (1, 2, 3))
    assert all(type(v) is int for k in (1, 2, 3) for v in s._pair(k))
    assert _exhausted(s, 4) == "index 4 outside [1, 3]"
    for k in (0, 4):
        with pytest.raises(StreamExhausted, match=rf"index {k} outside \[1, 3\]"):
            s._pair(k)


def test_rule_values_are_normalised_on_read():
    s = CoeffStream.from_fn(lambda n: n if n % 2 else f"{n}/4")
    assert all(type(v) is int for v in s._pair(2) + s._pair(3))
    assert s[3] == 3 and type(s[3]) is Rat
    assert s[2] == Rat(1, 2) and s._pair(2) == (1, 2)
    with pytest.raises(StreamExhausted, match=r"index 0 outside \[1, None\]"):
        s._pair(0)


def _float_rule(k):
    return 0.5


@pytest.mark.parametrize("read", [
    lambda: CoeffStream.from_fn(_float_rule)[1],
    lambda: CoeffStream.from_fn(_float_rule)._pair(1),
    # a gamma rule, read by the integer-pair block and by the streams
    lambda: monic_sequence(system_from_gamma(GammaSeq.from_fn(_float_rule)), 2),
    lambda: system_from_gamma(GammaSeq.from_fn(_float_rule)).block(2),
    # a rule of a system
    lambda: monic_sequence(ThreeTermSystem(CoeffStream.from_fn(_float_rule),
                                           laguerre_system(0).a2), 2),
    lambda: ThreeTermSystem(laguerre_system(0).b, CoeffStream.from_fn(_float_rule)).block(2),
])
def test_a_float_from_a_rule_is_rejected(read):
    with pytest.raises(InvalidRationalLiteral, match="float 0.5 is not exact"):
        read()


def test_pair_rule_stream():
    pairs = {1: (3, 2), 2: (-2, 1), 3: (0, 1)}
    s = CoeffStream.from_pairs(pairs.__getitem__)
    assert s.stop is None
    for k, pair in pairs.items():
        assert s._pair(k) is pair  # the rule's pair, handed out as it is
        assert s[k] == Rat(*pair) and type(s[k]) is Rat
    assert s.window(1, 3) == [Rat(3, 2), -2, 0]


@pytest.mark.parametrize("stream", [
    CoeffStream.from_values([1, 2]),
    CoeffStream.from_fn(lambda n: n),
    CoeffStream.from_pairs(lambda n: (n, 1)),
])
def test_index_below_one_is_exhausted_for_every_kind(stream):
    for k in (0, -1):
        want = f"index {k} outside [1, {stream.stop}]"
        assert _exhausted(stream, k) == want
        with pytest.raises(StreamExhausted, match=re.escape(want)) as info:
            stream._pair(k)
        assert info.value.index == k


@pytest.mark.parametrize("backings", [
    {}, {"values": [1], "fn": abs}, {"values": [1], "pairs": abs},
    {"fn": abs, "pairs": abs}, {"values": [1], "fn": abs, "pairs": abs},
])
def test_stream_takes_exactly_one_backing(backings):
    with pytest.raises(ValueError, match="exactly one of values/fn/pairs required"):
        CoeffStream(**backings)
