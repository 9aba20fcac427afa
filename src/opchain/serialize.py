"""JSON wire formats.

Scalars travel as strings ('p/q' or integers) so exactness survives the
round trip.  A system document holds b and a2 windows, or a closed-form
tag that reconstructs the unbounded streams on load; a gamma document
holds a gamma window.
"""

from __future__ import annotations

from .chains import GammaSeq
from .errors import OpchainError
from .families import FAMILIES, closed_form
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


def system_from_json(doc: dict) -> ThreeTermSystem:
    cf = _expect(doc, dict, "system document").get("closed_form")
    if cf is not None:
        name = _expect(cf, dict, "closed_form").get("name")
        if not isinstance(name, str) or name not in FAMILIES:
            raise OpchainError(f"unknown closed form {name!r}")
        return closed_form(name, _expect(cf.get("params", {}), dict, "params")[FAMILIES[name][0]])
    b = values_from_json(_expect(doc["b"], list, "b"))
    a2 = values_from_json(_expect(doc.get("a2", []), list, "a2"))
    return ThreeTermSystem.from_values(b, a2)


def gamma_from_json(doc: dict) -> GammaSeq:
    return GammaSeq.from_values(values_from_json(_expect(doc["gamma"], list, "gamma")))
