import pytest

from opchain import Rat
from opchain.errors import StreamExhausted
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
