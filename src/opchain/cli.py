"""Command-line front end.

Subcommands expose the closed-form families, the swap-perturbed systems,
the verification suites, and the numeric endpoints (zeros, LU, moments,
convergents).  Everything is exact; only ``zeros`` works in float64, and
``--float`` only formats exact output as floats.  Output is canonical JSON
(sorted keys) or CSV so identical invocations are byte-identical.  Every
call builds the help of all commands and the arguments of only the named one.

Exit codes: 0 success, 1 verification failure, 2 input validation (each
error class carries its code), 3 numerical breakdown, which includes an
exact value beyond the float64 range under ``zeros`` or ``--float``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, perturb, verify
from .chains import (
    GammaSeq,
    chain_at,
    complementary,
    gamma_from_system,
    minimal_parameters,
)
from .errors import FloatOverflow, OpchainError
from .jacobi import lu_factor, truncate, zeros_with_brackets
from .scalars import Rat, format_scalar, parse_rational
from .serialize import gamma_from_json, system_from_json, values_to_json
from .systems import convergent, laurent_expand, moments, monic_sequence

FAMILY_NAMES = tuple(families.FAMILIES)
FAMILY_PARAMS = tuple(dict.fromkeys(row[0] for row in families.FAMILIES.values()))


def _emit(doc, out=None):
    out = out if out is not None else sys.stdout
    out.write(json.dumps(doc, sort_keys=True, indent=2))
    out.write("\n")


def _fmt(values, as_float: bool):
    if as_float:
        try:
            return [repr(float(v)) for v in values]
        except OverflowError as exc:
            raise FloatOverflow(f"--float: a value exceeds the float64 range: {exc}") from None
    return values_to_json(values)


def _family_system(args):
    name = args.family
    param = families.FAMILIES[name][0]
    value = getattr(args, param)
    if value is None:
        raise ValueError(f"{name} requires --{param}")
    return families.closed_form(name, value), {"name": name, "params": {param: value}}


def _read_input(path):
    """The JSON document at ``path``; nesting too deep to parse is bad input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise OpchainError(f"{path}: JSON document nested too deeply") from None


def _resolve_system(args):
    """System from --family flags or an --input JSON document."""
    if getattr(args, "input", None):
        return system_from_json(_read_input(args.input))
    if getattr(args, "family", None):
        return _family_system(args)[0]
    raise ValueError("provide --family or --input")


def _resolve_gamma(args, need: int):
    """GammaSeq from --gamma, a gamma JSON document, or a system + --gamma1;
    a system is recovered to depth ``need``, that is gamma_1..gamma_{2 need + 2}."""
    if getattr(args, "gamma", None):
        vals = [parse_rational(tok) for tok in args.gamma.split(",")]
        return GammaSeq.from_values(vals)
    if getattr(args, "input", None):
        doc = _read_input(args.input)
        if isinstance(doc, dict) and "gamma" in doc:
            return gamma_from_json(doc)
        sys_ = system_from_json(doc)
        g1 = parse_rational(args.gamma1 or "0")
        return gamma_from_system(sys_, g1, need)
    raise ValueError("provide --gamma or --input")


# -- subcommands -----------------------------------------------------------------


def cmd_family(args) -> int:
    sys_, closed = _family_system(args)
    n = args.n
    if args.gamma1 is None:
        gamma1 = Rat(families.FAMILIES[args.family][2])
    else:
        gamma1 = parse_rational(args.gamma1)
    # recovery to depth N consumes b[1..N+1] and a2[1..N]; finite families
    # (finite streams) therefore cap the emitted gamma window, at depth 0
    # for a family with no recurrence data, whose b_1 read then names the gap
    depth = n
    if sys_.b.stop is not None:
        depth = max(0, min(depth, sys_.b.stop - 1))
    if sys_.a2.stop is not None:
        depth = min(depth, sys_.a2.stop)
    gamma = gamma_from_system(sys_, gamma1, depth)
    gamma_upto = min(2 * n + 1, 2 * depth + 2)
    chain = chain_at(sys_, Rat(0), n - 1)
    m = minimal_parameters(chain, n - 1)
    comp = complementary(m)
    b, a2 = sys_.block(n)
    doc = {
        "family": closed,
        "n": n,
        "gamma1": format_scalar(gamma1),
        "b": _fmt(b, args.float),
        "a2": _fmt(a2, args.float),
        "gamma": _fmt(gamma.window(1, gamma_upto), args.float),
        "chain_d": _fmt(chain.window(1, n - 1), args.float),
        "minimal_m": _fmt(m.g, args.float),
        "complementary_k": _fmt(comp.parameters.g, args.float),
    }
    _emit(doc)
    return 0


_PERTURB_VARIANTS = {
    "tilde": perturb.tilde_system,
    "hat": perturb.hat_system,
    "tilde_kernel": perturb.tilde_kernel_system,
    "q": perturb.q_system,
    "u": perturb.u_system,
}


def cmd_perturb(args) -> int:
    n = args.n
    # an order-n row, and u_system's check of gamma_4 at n >= 1, read
    # gamma_{2n+2} at most
    gamma = _resolve_gamma(args, n)
    sys_ = _PERTURB_VARIANTS[args.variant](gamma)
    b, a2 = sys_.block(n)
    polys = monic_sequence(sys_, n)
    doc = {
        "variant": args.variant,
        "n": n,
        "b": _fmt(b, args.float),
        "a2": _fmt(a2, args.float),
        "polys": [p.to_json() for p in polys],
    }
    _emit(doc)
    return 0


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, seed=args.seed, samples=args.samples,
                               n=args.n, corrupt=args.inject_corruption)
    doc = {"reports": [r.to_json() for r in reports]}
    _emit(doc)
    return 0 if all(r.ok for r in reports) else 1


def cmd_zeros(args) -> int:
    sys_ = _resolve_system(args)
    rows = zeros_with_brackets(sys_, args.n, args.tol)
    if args.output == "json":
        _emit({"zeros": [{"index": i + 1, "value": v, "bracket_width": w}
                         for i, (v, w) in enumerate(rows)]})
    else:
        out = sys.stdout
        out.write("index,value,bracket_width\n")
        for i, (v, w) in enumerate(rows):
            out.write(f"{i + 1},{v!r},{w!r}\n")
    return 0


def cmd_lu(args) -> int:
    sys_ = _resolve_system(args)
    gamma1 = parse_rational(args.gamma1 or "0")
    f = lu_factor(truncate(sys_, args.n), gamma1)
    _emit(f.to_json())
    return 0


def cmd_moments(args) -> int:
    sys_ = _resolve_system(args)
    value = moments(sys_, args.k)
    if args.output == "json":
        _emit({"k": args.k, "moment": format_scalar(value)})
    else:
        sys.stdout.write(format_scalar(value) + "\n")
    return 0


# the Laurent window is printed whole and its entries' digits grow with their
# index, so the output grows at least quadratically with the order
MAX_ORDER = 4096
# the convergent alone grows steeply with n: 2.8 s and 156 MB at n = 500, 40 s
# and 1.3 GB at n = 1000 (Laguerre alpha = 0, Python 3.11, a 2-vCPU VM)
MAX_CONVERGENT_N = 512


def cmd_convergent(args) -> int:
    if args.n > MAX_CONVERGENT_N:
        raise ValueError(f"--n {args.n} is above the cap of {MAX_CONVERGENT_N}")
    if args.order is not None and args.order > MAX_ORDER:
        raise ValueError(f"--order {args.order} is above the cap of {MAX_ORDER}")
    sys_ = _resolve_system(args)
    num, den = convergent(sys_, args.n)
    order = args.order if args.order is not None else 2 * args.n
    series = laurent_expand(num, den, order)
    _emit({
        "n": args.n,
        "numerator": num.to_json(),
        "denominator": den.to_json(),
        "laurent": values_to_json(series.coeffs),
    })
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_family_params(p):
    for param in FAMILY_PARAMS:  # --alpha, --p
        p.add_argument(f"--{param}", help="family parameter as a rational string")


def _add_system_source(p, with_gamma1=False):
    p.add_argument("--family", choices=FAMILY_NAMES)
    _add_family_params(p)
    p.add_argument("--input", help="path to a system/gamma JSON document")
    if with_gamma1:
        p.add_argument("--gamma1", help="leading gamma entry (rational string)")


def _family_args(p):
    p.add_argument("family", choices=FAMILY_NAMES)
    _add_family_params(p)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--gamma1")
    p.add_argument("--float", action="store_true")
    p.set_defaults(fn=cmd_family)


def _perturb_args(p):
    p.add_argument("--variant", choices=sorted(_PERTURB_VARIANTS), required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--gamma", help="comma-separated gamma entries")
    p.add_argument("--input")
    p.add_argument("--gamma1")
    p.add_argument("--float", action="store_true")
    p.set_defaults(fn=cmd_perturb)


def _verify_args(p):
    p.add_argument("--suite", choices=verify.SUITES, default="all")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--inject-corruption", action="store_true",
                   help="negative-control hook: feed inconsistent inputs")
    p.set_defaults(fn=cmd_verify)


def _zeros_args(p):
    _add_system_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12, help="bisection tolerance")
    p.add_argument("--output", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_zeros)


def _lu_args(p):
    _add_system_source(p, with_gamma1=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_lu)


def _moments_args(p):
    _add_system_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", choices=("plain", "json"), default="plain")
    p.set_defaults(fn=cmd_moments)


def _convergent_args(p):
    _add_system_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_convergent)


# name -> (help line, function adding the command's arguments), in help order
_COMMANDS = {
    "family": ("emit a closed-form family with its chain data", _family_args),
    "perturb": ("emit a swap-perturbed system and its polynomials", _perturb_args),
    "verify": ("run a verification suite", _verify_args),
    "zeros": ("zeros of P_n by Sturm bisection (CSV)", _zeros_args),
    "lu": ("bidiagonal LU factors of the truncated matrix", _lu_args),
    "moments": ("normalised moment mu_k/mu_0", _moments_args),
    "convergent": ("continued-fraction convergent and expansion", _convergent_args),
}


def build_parser(command) -> argparse.ArgumentParser:
    """The parser with every subcommand and its help line, and the
    arguments of ``command`` alone: argparse hands a subcommand's parser
    only the tokens after its name, so the others need none."""
    ap = argparse.ArgumentParser(prog="opchain")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if name == command:
            add_args(p)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = next((tok for tok in argv if tok in _COMMANDS), None)
    args = build_parser(command).parse_args(argv)
    try:
        for flag in ("n", "samples"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag} must be >= 1")
        return args.fn(args)
    except (OpchainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
