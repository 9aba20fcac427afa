import pytest

from opchain import GammaSeq, Rat, laguerre_system, systems_agree
from opchain.errors import InvalidRationalLiteral
from opchain.serialize import gamma_from_json, system_from_json, values_to_json


def test_system_round_trip():
    sys = laguerre_system(0)
    b, a2 = sys.block(5)
    doc = {"b": ["1", "3", "5", "7", "9"], "a2": ["1", "4", "9", "16"]}
    assert (values_to_json(b), values_to_json(a2)) == (doc["b"], doc["a2"])
    back = system_from_json(doc)
    assert systems_agree(back, sys, 5)


def test_system_closed_form_tag():
    doc = {"b": ["1"], "closed_form": {"name": "laguerre", "params": {"alpha": "1/2"}}}
    back = system_from_json(doc)
    assert systems_agree(back, laguerre_system(Rat(1, 2)), 3)
    assert back.b_at(40) == 2 * 40 + Rat(1, 2) - 1  # stream reconstructed unbounded


def test_gamma_round_trip():
    g = GammaSeq.from_values([Rat(1, 3), 2, 3, Rat(7, 2)])
    doc = {"gamma": ["1/3", "2", "3", "7/2"]}
    assert values_to_json(g.window(1, 4)) == doc["gamma"]
    assert gamma_from_json(doc).window(1, 4) == g.window(1, 4)


def test_bad_scalar_strings_rejected():
    with pytest.raises(InvalidRationalLiteral):
        system_from_json({"b": ["1.5"], "a2": []})
