"""JSON wire formats.

Scalars travel as strings ('p/q' or integers) so exactness survives the
round trip; systems carry materialized coefficient windows plus an optional
closed-form tag that reconstructs unbounded streams on load.
"""

from __future__ import annotations

from .chains import ChainSequence, GammaSeq, ParameterSeq
from .errors import OpchainError
from .families import FAMILIES
from .scalars import format_scalar, parse_rational
from .systems import ThreeTermSystem


def values_to_json(values) -> list[str]:
    return [format_scalar(v) for v in values]


def _expect(value, kind: type, what: str):
    """``value`` if it has the type ``kind``, else an OpchainError naming ``what``."""
    if not isinstance(value, kind):
        raise OpchainError(f"{what}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def values_from_json(items) -> list:
    return [parse_rational(s) for s in items]


def system_to_json(sys: ThreeTermSystem, depth: int, closed_form: dict | None = None) -> dict:
    """The raw b and a2 windows, not ``sys.block``: a2 is written as it
    is, unvalidated, so an entry <= 0 that ``block`` rejects still travels."""
    doc = {
        "b": values_to_json(sys.b.window(1, depth)),
        "a2": values_to_json(sys.a2.window(1, max(depth - 1, 0))),
    }
    if closed_form is not None:
        doc["closed_form"] = closed_form
    return doc


def system_from_json(doc: dict) -> ThreeTermSystem:
    cf = _expect(doc, dict, "system document").get("closed_form")
    if cf is not None:
        name = _expect(cf, dict, "closed_form").get("name")
        if not isinstance(name, str) or name not in FAMILIES:
            raise OpchainError(f"unknown closed form {name!r}")
        param, build, _ = FAMILIES[name]
        return build(parse_rational(_expect(cf.get("params", {}), dict, "params")[param]))
    b = values_from_json(_expect(doc["b"], list, "b"))
    a2 = values_from_json(_expect(doc.get("a2", []), list, "a2"))
    return ThreeTermSystem.from_values(b, a2)


def gamma_to_json(gamma: GammaSeq, upto: int) -> dict:
    return {"gamma": values_to_json(gamma.window(1, upto))}


def gamma_from_json(doc: dict) -> GammaSeq:
    return GammaSeq.from_values(values_from_json(_expect(doc["gamma"], list, "gamma")))


def chain_to_json(chain: ChainSequence, upto: int) -> dict:
    doc = {"d": values_to_json(chain.window(1, upto))}
    if chain.parameters is not None:
        doc["parameters"] = params_to_json(chain.parameters)
    return doc


def params_to_json(ps: ParameterSeq) -> dict:
    doc = {"g": values_to_json(ps.g), "minimal": ps.minimal}
    if ps.horizon is not None:
        doc["horizon"] = ps.horizon
    return doc
