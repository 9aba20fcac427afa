#!/usr/bin/env python3
"""opchain benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli_queries --seed 1 --seconds 45 --trace 0

Run from the repository root.  Every measurement happens in fresh
interpreters started from here with ``src`` on PYTHONPATH:

* one warm-up launch (compiles bytecode; not measured);
* SETUP_LAUNCHES launches that only set up: interpreter start, ``import
  opchain.cli``, op-list generation.  ``setup_s`` is the median over them
  and the measured launch;
* the measured launch.  With ``--trace 0`` it runs the workload's op list
  closed-loop for ``--seconds`` and yields the end-to-end metrics.  With
  ``--trace 1`` it runs a fixed number of ops untraced, then the same ops
  with every public ``opchain`` function wrapped, and yields the per-layer
  metrics and the tracing overhead.

The metric names and units come from BENCHMARK.json.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a summary with the environment record and the failures grouped by problem.
The full record, every failed op included, is written under
``.bench_build/perfbench/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_LAUNCHES = 12
LAUNCH_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (benchmark-local module)


def launch(workload, seed, mode, seconds=0.0) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(float(seconds)),
           "--launched-at"]
    cmd.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=LAUNCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def layer_value(name: str, doc: dict, import_ms: float):
    """Value of a per-layer metric named in BENCHMARK.json.

    The tracer keeps an entry for every function it wrapped, called or not,
    so a ``.calls`` or ``.self_ms`` name with no entry names a function that
    is gone or was not wrapped: that is an error, not a zero.
    """
    layers = doc["layers"]
    for stat in ("calls", "self_ms"):
        if name.endswith("." + stat):
            layer = name[: -len(stat) - 1]
            if layer not in layers:
                raise SystemExit(f"error: per-layer metric {name}: no traced function {layer}")
            return layers[layer][stat]
    if name.startswith("cli.exit_code."):
        return doc["exit_codes"].get(name[len("cli.exit_code."):], 0)
    special = {
        "verify.identities_checked": doc["identities_checked"],
        "scalars.coeff_bits_max": doc["coeff_bits_max"],
        "import.opchain_cli_ms": import_ms,
        "trace.untraced_ops_per_s": doc["untraced_ops_per_s"],
        "trace.traced_ops_per_s": doc["ops_per_s"],
        "trace.overhead_ratio": doc["untraced_ops_per_s"] / doc["ops_per_s"],
    }
    return special[name]


def grouped(failures: list) -> list:
    """Failures grouped by problem text, with a count and one example op."""
    groups = {}
    for f in failures:
        group = groups.setdefault(f["problem"], {"problem": f["problem"], "count": 0,
                                                 "example": f["op"]})
        group["count"] += 1
    return list(groups.values())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "opchain" / "__init__.py").is_file():
        print(f"error: no opchain sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()

    launch(args.workload, args.seed, "setup")
    setups = [launch(args.workload, args.seed, "setup") for _ in range(SETUP_LAUNCHES)]
    doc = launch(args.workload, args.seed, "trace" if args.trace else "run", args.seconds)
    setups.append(doc)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_ms = statistics.median(s["import_ms"] for s in setups)

    if args.trace:
        metrics = {m["name"]: {"value": layer_value(m["name"], doc, import_ms), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "ops_per_s": doc["ops_per_s"],
            "op_p50_ms": doc["op_p50_ms"],
            "op_p90_ms": doc["op_p90_ms"],
            "setup_s": setup_s,
            "peak_rss_mb": doc["peak_rss_mb"],
            "ok_ratio": (doc["attempted"] - doc["failed"]) / doc["attempted"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    correct = not doc["failures"] and not doc.get("unwrapped_bindings")
    env.update(backend=doc["backend"], gmpy2_importable=doc["gmpy2_importable"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "samples": {"ops": doc["attempted"], "setup_launches": len(setups),
                    "timed_s": doc["timed_s"]},
        "setup_s_all": [s["setup_s"] for s in setups],
        "metrics": metrics,
        "uncorrected": dict(doc["raw"], speed_scale=doc["speed_scale"],
                            setup_s=statistics.median(s["setup_s_raw"] for s in setups)),
        "failures": doc["failures"],
    }
    if args.trace:
        record.update(wrapped=doc["wrapped"], unwrapped_bindings=doc["unwrapped_bindings"],
                      layers=doc["layers"])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    summary = {k: record[k] for k in ("workload", "seed", "trace", "env", "samples")}
    summary.update(failures=grouped(doc["failures"]), record=str(path.relative_to(ROOT)))
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
