"""Every per-layer metric of BENCHMARK.json names a callable in opchain.

A ``.calls`` or ``.self_ms`` metric is ``<module>.<attr>[.<attr>]`` plus the
suffix; a rename in the library would otherwise surface only in a traced
benchmark run.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _layer_targets():
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        for suffix in (".calls", ".self_ms"):
            if name.endswith(suffix):
                yield name[: -len(suffix)]


def test_per_layer_names_resolve_to_callables():
    targets = list(_layer_targets())
    assert targets  # no vacuous pass
    missing = []
    for target in targets:
        module, *attrs = target.split(".")
        obj = importlib.import_module(f"opchain.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []
