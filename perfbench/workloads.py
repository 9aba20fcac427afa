"""The two workloads: seeded op lists, the ops themselves, and their oracles.

An op is one closed-loop request, made of one or more steps.  Each step is
``fn(results)``, where ``results`` maps the names of earlier steps to their
results; the op's time is the sum of its steps' times.  Steps call into
``opchain`` only through module attributes, so a tracer installed after the
op list was built still sees every call.  ``check(results)`` runs untimed
and returns ``(problem, facts)``: ``problem`` is None when the output
passed its oracle, and ``facts`` carries counts for the trace (exit code,
identities checked, coefficient bit height).

Every library import happens inside ``make_ops``, after the worker has
timed ``import opchain.cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as orc

WORKLOADS = ("deep_families", "cli_queries")

# Op-list sizes.  A timed run walks the list in order and starts over if it
# runs out (both workloads do so within one 45 s run: their ops are identical
# when repeated, and nothing in the library caches results).
DEEP_OPS = 96
CLI_BLOCKS = 100

ZERO_TOL = 1e-10


@dataclass
class Op:
    label: str
    steps: list                       # [(name, fn(results) -> result)]
    check: Callable[[dict], tuple]


def make_ops(workload: str, seed: int) -> list:
    if workload == "deep_families":
        return _deep_ops(seed)
    if workload == "cli_queries":
        return _cli_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _exact(values):
    return [Fraction(str(v)) for v in values]


# -- deep_families --------------------------------------------------------------
# One op takes one seeded random gamma sequence and one Laguerre alpha through
# every high-degree computation, so ops are of similar size.  Sizes are drawn
# from the ranges the workload is defined by.

DEEP_GAMMA_LEN = 128
DEEP_VARIANTS = ("tilde", "hat", "q", "u")


def _deep_ops(seed: int) -> list:
    from opchain import chains, families, jacobi, perturb, systems, verify

    rng = random.Random(seed)
    ops = []
    for i in range(DEEP_OPS):
        gamma = verify.random_gamma(rng, DEEP_GAMMA_LEN)
        g = [None] + _exact(gamma.window(1, DEEP_GAMMA_LEN))
        q = rng.randint(1, 8)
        p = dict(
            alpha=Fraction(rng.randint(-q + 1, 24), q),
            split=rng.randint(20, 25),
            degrees={v: rng.randint(40, 60) for v in DEEP_VARIANTS},
            k=rng.randint(30, 40),
            conv=rng.randint(16, 20),
            zeros=rng.randint(30, 40),
            x0=Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )

        nz, nc = p["zeros"], p["conv"]
        steps = [
            ("lag", lambda r, a=p["alpha"]: families.laguerre_system(a)),
            ("base", lambda r, g=gamma: chains.system_from_gamma(g)),
            ("split", lambda r, g=gamma, n=p["split"]: perturb.swap_split_check(g, n)),
            ("kernel", lambda r, g=gamma, n=p["split"]: chains.kernel_identity_check(g, n)),
        ]
        steps += [(("monic", v), lambda r, g=gamma, v=v, n=p["degrees"][v]:
                   systems.monic_sequence(getattr(perturb, f"{v}_system")(g), n))
                  for v in DEEP_VARIANTS]
        steps += [
            ("mom_lag", lambda r, k=p["k"]: systems.moments(r["lag"], k)),
            ("mom_base", lambda r, k=p["k"]: systems.moments(r["base"], k)),
            ("conv", lambda r, n=nc: systems.convergent(r["base"], n)),
            ("laurent", lambda r, n=nc: systems.laurent_expand(*r["conv"], 2 * n)),
            ("lu", lambda r, n=nz: jacobi.lu_factor(jacobi.truncate(r["lag"], n))),
            ("zeros_lag", lambda r, n=nz: jacobi.zeros_with_brackets(r["lag"], n, ZERO_TOL)),
            ("zeros_base", lambda r, n=nz: jacobi.zeros_with_brackets(r["base"], n, ZERO_TOL)),
        ]
        ops.append(Op(f"deep_families op={i}", steps, _deep_check(g, p)))
    return ops


def _deep_check(g, p):
    def check(out):
        problems = []
        alpha, k, nc, nz = p["alpha"], p["k"], p["conv"], p["zeros"]
        for name in ("split", "kernel"):
            if not out[name].ok:
                problems.append(f"{name} identity failed at {out[name].first_failure}")
        bits = []
        for v in DEEP_VARIANTS:
            n = p["degrees"][v]
            P = out[("monic", v)]
            top = _exact(P[n].coeffs)
            bits.extend(top)
            b, a2 = orc.system_coeffs(v, g, n)
            if len(P) != n + 1 or len(top) != n + 1 or top[-1] != 1:
                problems.append(f"monic {v}: P_{n} is not monic of degree {n}")
            elif orc.horner(top, p["x0"]) != orc.eval_recurrence(b, a2, n, p["x0"]):
                problems.append(f"monic {v}: P_{n}({p['x0']}) differs from the recurrence")
        if Fraction(str(out["mom_lag"])) != orc.rising_factorial(alpha + 1, k):
            problems.append(f"laguerre alpha={alpha} moment {k} is not (alpha+1)_k")
        K = max(k, 2 * nc)
        b, a2 = orc.system_coeffs("base", g, max(K // 2 + 2, nz))
        mu = orc.moments_walk(b, a2, K)
        if Fraction(str(out["mom_base"])) != mu[k]:
            problems.append(f"random-gamma moment {k} differs from the walk")
        num, den = out["conv"]
        laurent = _exact(out["laurent"].coeffs)
        if laurent != mu[: 2 * nc]:
            problems.append(f"convergent {nc} expansion differs from moments")
        if _exact(den.coeffs) != orc.monic_family(b, a2, nc)[nc]:
            problems.append(f"convergent {nc} denominator differs from P_n")
        if _exact(num.coeffs) != orc.monic_family(b, a2, nc, start=1)[nc]:
            problems.append(f"convergent {nc} numerator differs from z_n")
        f = out["lu"]
        if (_exact(f.u_diag) != [i + alpha for i in range(1, nz + 1)]
                or _exact(f.l_sub) != [Fraction(i) for i in range(1, nz)]):
            problems.append("laguerre LU pivots differ from the gamma closed form")
        lb, _ = orc.laguerre_coeffs(alpha, nz)
        for name, rows, trace in (("zeros_lag", out["zeros_lag"], sum(lb[1:])),
                                  ("zeros_base", out["zeros_base"], sum(b[1:nz + 1]))):
            bad = _zeros_problem([v for v, _ in rows], [w for _, w in rows], nz, ZERO_TOL, trace)
            if bad:
                problems.append(f"{name}: {bad}")
        bits.extend(laurent)
        bits.extend(_exact([out["mom_lag"], out["mom_base"]]))
        return ("; ".join(problems) or None), {"bits": lambda: orc.bit_height(bits)}
    return check


def _zeros_problem(values, widths, n, tol, trace) -> str | None:
    if len(values) != n:
        return f"{len(values)} zeros for degree {n}"
    if any(not a < b for a, b in zip(values, values[1:])):
        return "zeros not strictly increasing"
    if any(not w <= tol for w in widths):
        return f"bracket wider than tol {tol}"
    if abs(sum(values) - float(trace)) > n * tol + 1e-9 * max(1.0, abs(float(trace))):
        return "zero sum differs from the trace"
    return None


# -- cli_queries ----------------------------------------------------------------
# Thousands of in-process `opchain.cli.main(argv)` calls at small n and k.  The
# list is built from blocks of fixed composition: the same subcommands at the
# same sizes (n, or k for moments) in every block, shuffled by the seed, which
# draws only families, parameters and gammas.  So the cost mix, and with it
# the latency percentiles, is the same for every seed.  Two ops per block are
# inputs the library rejects, one with exit code 2 and one with exit code 3.

CLI_BLOCK = (("family", (2, 3, 4, 5, 6)), ("perturb", (2, 3, 4, 5, 6)),
             ("verify", (2,) * 7), ("zeros", (2, 4, 5, 6, 8)), ("lu", (2, 4, 5, 6, 8)),
             ("moments", (0, 3, 5, 8, 10)), ("convergent", (1, 2, 3, 3, 4, 5)),
             ("invalid_gamma1", (4,)), ("pivot_breakdown", (4,)))
CLI_FAMILIES = ("laguerre", "e_family", "laguerre_assoc1")
PERTURB_VARIANTS = ("tilde", "hat", "tilde_kernel", "q", "u")
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def _cli_ops(seed: int) -> list:
    from opchain import cli, verify

    suites = [s for s in verify.SUITES if s != "all"]
    rng = random.Random(seed)
    ops = []
    for block in range(CLI_BLOCKS):
        specs = []
        for kind, sizes in CLI_BLOCK:
            for j, size in enumerate(sizes):
                if kind == "verify":
                    specs.append(_verify_spec(rng, suites[j], size,
                                              corrupt=(j == block % len(suites))))
                else:
                    specs.append(_CLI_SPECS[kind](rng, size))
        rng.shuffle(specs)
        ops.extend(_cli_op(cli, argv, check) for argv, check in specs)
    return ops


def _cli_op(cli, argv, check):
    def call(results):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse rejects an argv by exiting
                rc = e.code
            except Exception as e:  # recorded by type; the run goes on
                rc, exc = "raised", e
        return rc, out.getvalue(), err.getvalue(), exc

    def checked(results):
        rc, stdout, stderr, exc = results["main"]
        facts = {"exit": rc}
        if exc is not None:
            return f"raised {type(exc).__name__}: {exc}"[:200], facts
        try:
            problem, extra = check(rc, stdout, stderr)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            problem, extra = f"unreadable output ({type(e).__name__}: {e})", {}
        facts.update(extra)
        facts["bits"] = lambda: _text_bits(stdout)
        return problem, facts

    return Op("opchain " + " ".join(a if len(a) <= 24 else a[:12] + "..." for a in argv),
              [("main", call)], checked)


def _text_bits(stdout: str) -> int:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return orc.bit_height(Fraction(t) for t in stdout.split() if _RATIONAL.match(t))
    vals = []

    def walk(x):
        if isinstance(x, str):
            if _RATIONAL.match(x):
                vals.append(Fraction(x))
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    walk(doc)
    return orc.bit_height(vals)


def _alpha(rng) -> Fraction:
    q = rng.randint(1, 6)
    return Fraction(rng.randint(-q + 1, 12), q)


def _family_arg(rng, names=("laguerre", "e_family")):
    name = rng.choice(names)
    alpha = _alpha(rng)
    return name, alpha, ["--family", name, f"--alpha={alpha}"]  # "=" lets alpha be negative


def _expect_zero(rc):
    return None if rc == 0 else f"exit {rc}, expected 0"


def _family_spec(rng, n):
    name, alpha = rng.choice(CLI_FAMILIES), _alpha(rng)
    argv = ["family", name, f"--alpha={alpha}", "--n", str(n)]

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        doc = json.loads(stdout)
        gamma1 = 1 if name == "laguerre_assoc1" else 0
        b, a2 = orc.family_coeffs("laguerre" if name == "laguerre" else "e_family", alpha, n + 1)
        gam = [None] + _exact(doc["gamma"])
        d = [a2[k] / (b[k] * b[k + 1]) for k in range(1, n)]
        m = [Fraction(0)]
        for dk in d:
            m.append(dk / (1 - m[-1]))
        if _exact(doc["b"]) != b[1:n + 1] or _exact(doc["a2"]) != a2[1:n]:
            return "recurrence data differs from the closed form", {}
        if name != "e_family" and gam[1:] != orc.laguerre_gamma(alpha, gamma1, 2 * n + 1):
            return "gammas differ from the Laguerre closed form", {}
        if gam[1] != gamma1 or any(gam[2 * j - 1] + gam[2 * j] != b[j]
                                   or gam[2 * j] * gam[2 * j + 1] != a2[j] for j in range(1, n)):
            return "gammas do not split b and a2", {}
        if _exact(doc["chain_d"]) != d or _exact(doc["minimal_m"]) != m:
            return "chain sequence or minimal parameters differ", {}
        if _exact(doc["complementary_k"]) != [Fraction(0)] + [1 - x for x in m[1:]]:
            return "complementary parameters are not 1 - m_n", {}
        return None, {}

    return argv, check


def _perturb_spec(rng, n):
    variant = rng.choice(PERTURB_VARIANTS)
    g = []
    for _ in range(2 * n + 6):  # the distribution of verify.random_gamma
        q = rng.randint(1, 64)
        g.append(Fraction(rng.randint(1, 4 * q), q))
    argv = ["perturb", "--variant", variant, "--gamma", ",".join(map(str, g)), "--n", str(n)]
    g = [None] + g

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        doc = json.loads(stdout)
        b, a2 = orc.system_coeffs(variant, g, n)
        polys = [_exact(p["coeffs"]) for p in doc["polys"]]
        if _exact(doc["b"]) != b[1:] or _exact(doc["a2"]) != a2[1:]:
            return f"{variant} recurrence data differs from the closed form", {}
        if polys != orc.monic_family(b, a2, n):
            return f"{variant} polynomials differ from the recurrence", {}
        if variant in ("tilde", "tilde_kernel"):
            evens, odds = orc.even_odd_split(g, n)
            if polys != (evens if variant == "tilde" else odds):
                return f"{variant} polynomials differ from the swapped split", {}
        return None, {}

    return argv, check


def _verify_spec(rng, suite, n, corrupt):
    argv = ["verify", "--suite", suite, "--n", str(n), "--samples", "1",
            "--seed", str(rng.randrange(10 ** 6))]
    if corrupt:
        argv.append("--inject-corruption")

    def check(rc, stdout, _stderr):
        reports = json.loads(stdout)["reports"]
        facts = {"identities": sum(len(r["identities"]) for r in reports)}
        if corrupt:
            ok = rc == 1 and not any(r["ok"] for r in reports)
            return (None if ok else f"negative control exit {rc}"), facts
        ok = rc == 0 and all(r["ok"] and r["identities"] for r in reports)
        return (None if ok else f"exit {rc}, expected 0 with identities"), facts

    return argv, check


def _zeros_spec(rng, n):
    name, alpha, fam = _family_arg(rng)
    tol = rng.choice((1e-10, 1e-12))
    fmt = rng.choice(("csv", "json"))
    argv = ["zeros", *fam, "--n", str(n), "--tol", repr(tol), "--output", fmt]

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        if fmt == "json":
            rows = [(r["value"], r["bracket_width"]) for r in json.loads(stdout)["zeros"]]
        else:
            lines = stdout.strip().splitlines()
            if lines[0] != "index,value,bracket_width":
                return "bad CSV header", {}
            rows = [tuple(float(x) for x in ln.split(",")[1:]) for ln in lines[1:]]
        b, _ = orc.family_coeffs(name, alpha, n)
        return _zeros_problem([v for v, _ in rows], [w for _, w in rows], n, tol, sum(b[1:])), {}

    return argv, check


def _lu_spec(rng, n):
    name, alpha, fam = _family_arg(rng)
    argv = ["lu", *fam, "--n", str(n), "--gamma1", "0"]

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        doc = json.loads(stdout)
        b, a2 = orc.family_coeffs(name, alpha, n)
        u, l = [b[1]], []
        for i in range(1, n):
            l.append(a2[i] / u[-1])
            u.append(b[i + 1] - l[-1])
        if name == "laguerre" and (u != [i + alpha for i in range(1, n + 1)]
                                   or l != [Fraction(i) for i in range(1, n)]):
            return "oracle elimination disagrees with the Laguerre closed form", {}
        if _exact(doc["U_diag"]) != u or _exact(doc["L_sub"]) != l:
            return "LU factors differ from the elimination", {}
        return None, {}

    return argv, check


def _moments_spec(rng, k):
    name, alpha, fam = _family_arg(rng)
    fmt = rng.choice(("plain", "json"))
    argv = ["moments", *fam, "--k", str(k), "--output", fmt]

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        text = json.loads(stdout)["moment"] if fmt == "json" else stdout.strip()
        if name == "laguerre":
            want = orc.rising_factorial(alpha + 1, k)
        else:
            b, a2 = orc.family_coeffs(name, alpha, k // 2 + 2)
            want = orc.moments_walk(b, a2, k)[k]
        return (None if Fraction(text) == want else f"moment {k} = {text}, expected {want}"), {}

    return argv, check


def _convergent_spec(rng, n):
    name, alpha, fam = _family_arg(rng)
    order = rng.choice((None, rng.randint(1, 2 * n)))
    argv = ["convergent", *fam, "--n", str(n)] + ([] if order is None else ["--order", str(order)])
    order = 2 * n if order is None else order

    def check(rc, stdout, _stderr):
        if rc != 0:
            return _expect_zero(rc), {}
        doc = json.loads(stdout)
        b, a2 = orc.family_coeffs(name, alpha, n + 2)
        if _exact(doc["laurent"]) != orc.moments_walk(b, a2, 2 * n)[:order]:
            return "expansion differs from the moments", {}
        if (_exact(doc["denominator"]["coeffs"]) != orc.monic_family(b, a2, n)[n]
                or _exact(doc["numerator"]["coeffs"]) != orc.monic_family(b, a2, n, start=1)[n]):
            return "convergent differs from (z_n, P_n)", {}
        return None, {}

    return argv, check


def _rejected(rc, stdout, stderr, want_rc, want_err):
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}", {}
    if stdout or not stderr.startswith(want_err):
        return f"expected no output and {want_err!r} on stderr, got {stderr[:80]!r}", {}
    return None, {}


def _invalid_gamma1_spec(rng, n):
    """A Laguerre gamma_1 at or above alpha + 1: rejected with exit code 2."""
    alpha = _alpha(rng)
    gamma1 = alpha + 1 + Fraction(rng.randint(0, 12), rng.randint(1, 6))
    argv = ["family", "laguerre", f"--alpha={alpha}", "--n", str(n), "--gamma1", str(gamma1)]
    want = f"error: InvalidGamma1: gamma_1 = {gamma1} outside [0, {alpha + 1})"
    return argv, lambda rc, out, err: _rejected(rc, out, err, 2, want)


def _pivot_breakdown_spec(rng, n):
    """A Laguerre LU whose first pivot alpha + 1 - gamma_1 is negative: exit code 3."""
    alpha = _alpha(rng)
    gamma1 = alpha + 1 + Fraction(rng.randint(1, 12), rng.randint(1, 6))
    argv = ["lu", "--family", "laguerre", f"--alpha={alpha}", "--n", str(n),
            "--gamma1", str(gamma1)]
    want = f"error: PivotBreakdown: pivot u_1 = {alpha + 1 - gamma1} <= 0"
    return argv, lambda rc, out, err: _rejected(rc, out, err, 3, want)


_CLI_SPECS = {
    "family": _family_spec,
    "perturb": _perturb_spec,
    "zeros": _zeros_spec,
    "lu": _lu_spec,
    "moments": _moments_spec,
    "convergent": _convergent_spec,
    "invalid_gamma1": _invalid_gamma1_spec,
    "pivot_breakdown": _pivot_breakdown_spec,
}
