"""Command-line front end.

Subcommands expose the closed-form families, the swap-perturbed systems,
the verification suites, and the numeric endpoints (zeros, LU, moments,
convergents).  Everything is exact; only ``zeros`` works in float64, and
``--float`` only formats exact output as floats.  Output is canonical JSON
(sorted keys) or CSV so identical invocations are byte-identical.  Every
call builds the help line of all commands, and the arguments and ``-h`` of
only the named one.

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
from .systems import (
    block_heights,
    convergent,
    laurent_expand,
    moment_height,
    moments,
    monic_sequence,
)

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
    _check_limits(args, sys_)
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
        "chain_d": _fmt(chain.d.window(1, n - 1), args.float),
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
    _check_limits(args, sys_)  # after the block, whose reads raise the gamma errors
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
    _check_limits(args, sys_)
    f = lu_factor(truncate(sys_, args.n), gamma1)
    _emit(f.to_json())
    return 0


def _block_heights(sys_, args):
    return block_heights(sys_, args.n)


def _moment_heights(sys_, args):
    return moment_height(sys_, args.k)


# The limits on size flags, by (command, flag): each row is (cap, budget).
# ``main`` checks every cap, in this order, before the command reads its input;
# a command that reads a system then checks the budgets (a, b, e, heights) of
# its rows before the work: it runs when size^a H^b <= 2^e for each height H
# that ``heights(sys_, args)`` reads.  Measured as a process (Python 3.11, a
# 2-vCPU VM): at the cap on Laguerre alpha = 0 where a system is read, and
# along each budget's boundary, its largest accepted size from alpha = 0 up
# to the tallest literals.  A cap bounds size, not entry height.
LIMITS = {
    # at the default order 2n: 3.1 s and 167 MB at the cap, 2.8 s and 156 MB
    # at n = 500, 40 s and 1.3 GB at 1000; about n^3.5 at a fixed height.
    # Along the boundary (n = 512 at alpha = 0, 3 at 4300 nines, 2 at a
    # 4300-digit p over a 4300-digit q) at most 4.9 s and 167 MB, at
    # alpha = 7/3, n = 479
    ("convergent", "n"): (512, (4, 3, 49, _block_heights)),
    # the printed expansion grows at least as order^2.  H is from --n's block,
    # so the default order 2n meets this budget when n meets the one above.
    # Along the boundary (order 4096 at alpha = 0, n = 1; 1070 at n = 512; 4
    # at a 4300-digit p over a 4300-digit q) at most 4.0 s and 167 MB
    ("convergent", "order"): (4096, (4, 3, 53, _block_heights)),
    # 1.8 s at the cap, 2.9 s at k = 2500.  H is that of the walk's integers
    # (``moment_height``), whose lcm bits come first; along the boundary at most 3.5 s
    ("moments", "k"): (2048, (3, 2, 43, _moment_heights)),
    ("zeros", "n"): (2000, None),  # 3.4 s and 18 MB, quadratic in n
    # lu and family read an order-n block.  Along their boundaries, up to the
    # tallest literal, a 4300-digit p over a 4300-digit q (H = 28588, n = 1256
    # and 222), a run took at most 3.6 s and 269 MB.
    # lu: 1.4 s and 63 MB at the cap, 9.2 s and 503 MB at n = 10^6; 3.2 s and
    # 183 MB at a 300-digit p over a 299-digit q, n = 67002
    ("lu", "n"): (100_000, (2, 3, 65, _block_heights)),
    # 2.0 s and 118 MB at the cap; 3.6 s and 100 MB at 4300 nines, n = 628
    ("family", "n"): (50_000, (2, 3, 60, _block_heights)),
    # 0.8 s, 142 MB and 30 MB printed at the cap, 5.8 s and 754 MB at n = 700.
    # H is from the order-n block of the perturbed system.  Along the boundary
    # (n = 400 on 3-digit integer gammas, 5 on 4300-digit ones, 3 on 4300-digit
    # p over 4300-digit q) at most 3.7 s and 369 MB, on random 2- and 3-digit
    # p/q gammas, whose denominators compound
    ("perturb", "n"): (400, (5, 3, 57, _block_heights)),
    # verify --suite all, the dearest suite; both at the cap 3.5 s and 33 MB
    ("verify", "n"): (100, None),  # 2.0 s and 22 MB; 5.2 s at n = 140, 48 s at 240
    ("verify", "samples"): (100, None),  # 0.3 s; 2.6 s and 57 MB at 1000, 4.8 s and 97 MB at 2000
}


def _check_limits(args, sys_=None):
    """ValueError if a size flag of the command is above its cap in ``LIMITS``
    or, given the system ``sys_`` the command reads, over its budget; a
    budget's heights are read up to the first one too tall."""
    for (command, flag), (cap, budget) in LIMITS.items():
        size = getattr(args, flag) if command == args.command else None
        if size is None:
            continue
        if sys_ is None:
            if size > cap:
                raise ValueError(f"--{flag} {size} is above the cap of {cap}")
        elif budget is not None:
            a, b, e, heights = budget
            H = next((h for h in heights(sys_, args) if size ** a * h ** b > 1 << e), None)
            if H is not None:
                raise ValueError(f"--{flag} {size} over entries of {H} bits is above the "
                                 f"budget {flag}^{a} H^{b} <= 2^{e}")


def cmd_moments(args) -> int:
    sys_ = _resolve_system(args)
    k = args.k
    _check_limits(args, sys_)
    value = moments(sys_, k)
    if args.output == "json":
        _emit({"k": k, "moment": format_scalar(value)})
    else:
        sys.stdout.write(format_scalar(value) + "\n")
    return 0


def cmd_convergent(args) -> int:
    sys_ = _resolve_system(args)
    _check_limits(args, sys_)
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
    only the tokens after its name, so the others are bare parsers, without
    even ``-h``: only their help lines are read, by ``opchain -h`` and the
    invalid-choice error."""
    ap = argparse.ArgumentParser(prog="opchain")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_, add_help=name == command)
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
        _check_limits(args)
        return args.fn(args)
    except (OpchainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
