"""One fresh interpreter running one workload.

    python3 worker.py --workload W --seed N --launched-at T --mode setup
    python3 worker.py --workload W --seed N --launched-at T --mode run --seconds S
    python3 worker.py --workload W --seed N --launched-at T --mode trace --seconds S

``T`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so set-up time covers interpreter start, importing
``opchain.cli`` and building the op list.  ``run`` walks the op list for S
seconds; ``trace`` runs a fixed number of ops untraced and then again
traced, so its counts repeat exactly for a seed.  The result is one JSON
line on stdout.  ``opchain`` must be importable (run.py puts ``src`` on
PYTHONPATH).
"""

# ``import opchain.cli`` is timed first, before this file imports anything that
# is not built into the interpreter, so the stdlib modules opchain pulls in are
# in the figure, as in a fresh ``python -c "import opchain.cli"``.
import time

_t0 = time.perf_counter()
import opchain.cli  # noqa: E402,F401  (the import cost every workload pays)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402

# Ops run in a trace-mode pass, per second of --seconds.  The untraced and the
# traced pass together then take about --seconds at seed-commit speed.
TRACE_OPS_PER_S = {"deep_families": 1.0, "cli_queries": 120}

# Machine-speed correction.  On shared virtual machines the CPU speed seen by
# one process drifts by up to 1.7x, in episodes of seconds to minutes, with
# load outside the machine.  A fixed loop that touches no opchain code is
# timed between op steps (a burst of CAL_BURST timings every CAL_EVERY_S),
# and each step's time is scaled by CAL_NOMINAL_S over the median of the
# CAL_NEAREST calibration points nearest to it.  Times are thus reported at
# the speed where one calibration timing takes CAL_NOMINAL_S; raw figures
# are kept in the record.
CAL_NOMINAL_S = 0.0025
CAL_EVERY_S = 0.2
CAL_BURST = 3
CAL_NEAREST = 4


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_sample() -> float:
    """One timing of a fixed stdlib-only loop (exact fractions, dict, str)."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 800):
        acc += Fraction(1, i % 89 + 1)
        table[i % 61] = f"{i}:{acc.denominator % 1000}"
    return time.perf_counter() - t0


def calibration_point() -> tuple:
    """(clock, median calibration timing) of one burst.  The cyclic collector
    is held off, so garbage left by the last op is not collected on the
    calibration's time."""
    gc.disable()
    try:
        return clock(), statistics.median(calibration_sample() for _ in range(CAL_BURST))
    finally:
        gc.enable()


def speed_scales(mids, points) -> list:
    """For each step midpoint, CAL_NOMINAL_S / the median timing of the
    CAL_NEAREST calibration points nearest to it in time."""
    times = [t for t, _ in points]
    k = min(CAL_NEAREST, len(points))
    out = []
    for m in mids:
        lo = hi = bisect.bisect(times, m)
        while hi - lo < k:
            if hi == len(times) or (lo > 0 and m - times[lo - 1] <= times[hi] - m):
                lo -= 1
            else:
                hi += 1
        out.append(CAL_NOMINAL_S / statistics.median(d for _, d in points[lo:hi]))
    return out


def run_ops(ops, *, seconds=None, count=None, tracer=None) -> dict:
    """Closed loop over ``ops``: the next op starts when the previous returns.

    Stops after ``count`` ops, or at the first op boundary past ``seconds``.
    Each step is timed on its own and corrected by the calibration points
    nearest to it; an op's latency is the sum over its steps.  Oracle checks
    run untimed and untraced.
    """
    step_s, step_mid, step_op, failures, facts = [], [], [], [], []
    points = [calibration_point()]
    start = clock()
    i = 0
    while (i < count) if count is not None else (i == 0 or clock() - start < seconds):
        op = ops[i % len(ops)]
        results, exc = {}, None
        for name, fn in op.steps:
            if clock() - points[-1][0] >= CAL_EVERY_S:
                points.append(calibration_point())
            at = clock()
            t0 = time.perf_counter()
            try:
                results[name] = tracer.span("op", fn, results) if tracer else fn(results)
            except Exception as e:  # an op that raises is a failure, recorded by type
                exc = e
            step_s.append(time.perf_counter() - t0)
            step_mid.append(at + step_s[-1] / 2)
            step_op.append(i)
            if exc is not None:
                break
        if tracer:
            tracer.pause()
        if exc is not None:
            problem, fact = f"raised {type(exc).__name__}: {exc}"[:200], {}
        else:
            problem, fact = op.check(results)
        if tracer:
            fact = {k: (v() if callable(v) else v) for k, v in fact.items()}
            facts.append(fact)
            tracer.resume()
        if problem is not None:
            failures.append({"op": op.label, "problem": problem})
        i += 1
    points.append(calibration_point())
    raw, corrected = [0.0] * i, [0.0] * i
    for j, dt, scale in zip(step_op, step_s, speed_scales(step_mid, points)):
        raw[j] += dt
        corrected[j] += dt * scale
    return {"raw": raw, "corrected": corrected, "failures": failures, "facts": facts}


def timings(lat: list) -> dict:
    q = statistics.quantiles(lat, n=100, method="inclusive") if len(lat) > 1 else lat * 99
    return {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": q[49] * 1e3, "op_p90_ms": q[89] * 1e3}


def summary(result: dict) -> dict:
    raw, corrected = result["raw"], result["corrected"]
    doc = timings(corrected)
    doc.update(
        attempted=len(raw),
        failed=len(result["failures"]),
        timed_s=sum(raw),
        raw=timings(raw),
        speed_scale=sum(corrected) / sum(raw),
        failures=result["failures"],
    )
    return doc


def layer_counts(facts: list) -> dict:
    exits = {}
    for f in facts:
        if "exit" in f:
            exits[str(f["exit"])] = exits.get(str(f["exit"]), 0) + 1
    return {
        "identities_checked": sum(f.get("identities", 0) for f in facts),
        "coeff_bits_max": max((f.get("bits", 0) for f in facts), default=0),
        "exit_codes": exits,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()

    import_ms = IMPORT_S * 1e3
    ops = workloads.make_ops(args.workload, args.seed)
    setup_s = clock() - args.launched_at
    calibration_sample()  # warm-up: the first timing in a fresh process runs cold
    scale = CAL_NOMINAL_S / calibration_point()[1]
    doc = {"setup_s": setup_s * scale, "setup_s_raw": setup_s,
           "import_ms": import_ms * scale, "import_ms_raw": import_ms}

    if args.mode == "run":
        doc.update(summary(run_ops(ops, seconds=args.seconds)))
    elif args.mode == "trace":
        from tracer import Tracer

        count = max(1, round(args.seconds * TRACE_OPS_PER_S[args.workload]))
        plain = summary(run_ops(ops, count=count))
        tracer = Tracer()
        doc["wrapped"] = tracer.install()
        doc["unwrapped_bindings"] = tracer.unwrapped_bindings()
        traced = run_ops(ops, count=count, tracer=tracer)
        doc.update(summary(traced))
        doc["untraced_ops_per_s"] = plain["ops_per_s"]
        doc["layers"] = {name: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
                         for name, (c, t, s) in sorted(tracer.stats.items())}
        doc.update(layer_counts(traced["facts"]))

    if args.mode != "setup":
        import importlib.util

        from opchain.scalars import RAT_BACKEND

        doc["backend"] = RAT_BACKEND
        doc["gmpy2_importable"] = importlib.util.find_spec("gmpy2") is not None
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
