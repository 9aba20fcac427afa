#!/usr/bin/env python3
"""Quick self-check of the benchmark (about two minutes).

    python3 perfbench/selfcheck.py

For every workload, with short runs:

* BENCHMARK.json keeps to the benchmark's schema and limits;
* an untraced run prints a result line with exactly the end-to-end metrics
  and their units, and a traced run exactly the per-layer metrics;
* two traced runs with the same seed give identical counts (``*.calls``,
  ``verify.identities_checked``, ``cli.exit_code.*``,
  ``scalars.coeff_bits_max``);
* a second seed, never used while the benchmark was written, runs end to
  end and is correct;
* run.py fails without printing a result where the library sources are
  missing.

Exits 1 and lists the problems if any check fails.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"
SEED, OTHER_SEED = 7, 9001
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def is_count(name: str) -> bool:
    return (name.endswith(".calls") or name.startswith("cli.exit_code.")
            or name in ("verify.identities_checked", "scalars.coeff_bits_max"))


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    for n in names + [m["name"] for m in metrics]:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names) or len({m["name"] for m in metrics}) != len(metrics):
        problems.append("duplicate names")
    for m in metrics:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end-to-end entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in seconds, lower-better, with the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(names) <= 8:
        problems.append("run_seconds or workload count out of range")


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc, what, problems):
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(doc)}")
    if not doc.get("correct") or doc.get("attempted", 0) < 1:
        problems.append(f"{what}: not correct or nothing attempted")
    return doc


def check_metrics(doc, expected, what, problems):
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                        f"missing {missing}, extra {extra}")
    for k, v in doc["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{what}: {k} is not a number")


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, problems)
    for w in (w["name"] for w in spec["workloads"]):
        doc = result(run(ROOT, w, SEED, 0), f"{w} untraced", problems)
        if doc:
            check_metrics(doc, spec["end_to_end"], f"{w} untraced", problems)
        traced = [result(run(ROOT, w, SEED, 1), f"{w} traced", problems) for _ in range(2)]
        if all(traced):
            check_metrics(traced[0], spec["per_layer"], f"{w} traced", problems)
            for name in (m["name"] for m in spec["per_layer"] if is_count(m["name"])):
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    problems.append(f"{w}: count {name} differs between runs: {a} vs {b}")
        result(run(ROOT, w, OTHER_SEED, 0), f"{w} seed {OTHER_SEED}", problems)
        print(f"{w}: checked", flush=True)

    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], SEED, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded or printed a result without the library sources")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
