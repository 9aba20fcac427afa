"""Named verification suites behind the ``verify`` command.

Each suite re-derives a family of exact identities over closed-form
families and seeded random gamma sequences and reports one line per
identity.  Sampled suites draw through one seeded generator, ``_samples``
(uniform rationals with denominators up to 64 by default), which records
every drawn sequence in the report so a failure can be replayed.
Closed-form inputs are ``(family, parameter literal)`` rows of
``families.FAMILIES``, and ``_SUITE_FNS`` is the one list of suite names.
The ``corrupt`` hook feeds deliberately inconsistent inputs through the
same checks, proving each suite can fail.  Each suite corrupts its own
input, lines and witness, so each stays a plain function, not a table row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial

from . import perturb
from .chains import (
    GammaSeq,
    chain_at,
    gamma_from_system,
    generalised_complementary,
    kernel_system,
    minimal_parameters,
    parameters_from_gamma,
    system_from_gamma,
)
from .families import FAMILIES, closed_form, laguerre_gamma, laguerre_system
from .jacobi import lu_factor, truncate, ul_product
from .scalars import Rat, format_scalar
from .streams import CoeffStream
from .systems import (
    associated_sequence,
    laurent_expand,
    moments,
    monic_sequence,
    systems_agree,
)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    samples: int
    identities: list = field(default_factory=list)
    gamma_samples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every identity passed, and at least one was checked."""
        return bool(self.identities) and all(r["status"] == "pass" for r in self.identities)

    def add(self, name: str, n_range: str, ok: bool, witness=None):
        self.identities.append({
            "name": name, "n_range": n_range, "status": "pass" if ok else "fail",
            "witness": None if ok or witness is None else str(witness)})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "ok": self.ok,
            "identities": self.identities,
            "gamma_samples": self.gamma_samples,
        }


def random_gamma(rng: random.Random, length: int) -> GammaSeq:
    """Uniform rationals with denominators <= 64, values in (0, 4]."""
    vals = []
    for k in range(1, length + 1):
        q = rng.randint(1, 64)
        p = rng.randint(1, 4 * q)
        vals.append(Rat(p, q))
    return GammaSeq.from_values(vals)


def _progression_gamma(rng: random.Random, length: int) -> GammaSeq:
    """Odd and even entries in two arithmetic progressions with a common
    difference: gamma_{2j+1} = a + j d, gamma_{2j+2} = c + j d."""
    a = Rat(rng.randint(1, 64), rng.randint(1, 16))
    c = Rat(rng.randint(1, 64), rng.randint(1, 16))
    d = Rat(rng.randint(1, 32), rng.randint(1, 16))
    return GammaSeq.from_values([(a if k % 2 else c) + (k - 1) // 2 * d
                                 for k in range(1, length + 1)])


def _samples(rep: SuiteReport, need: int, draw=None):
    """Yield ``(s, gamma)`` per sample, gamma = ``draw(rng, need)`` from one
    generator seeded with the report's seed (``random_gamma`` by default)."""
    rng = random.Random(rep.seed)
    for s in range(rep.samples):
        gamma = (draw or random_gamma)(rng, need)
        rep.gamma_samples.append([format_scalar(v) for v in gamma.window(1, need)])
        yield s, gamma


def _family(name: str, value: str):
    """Label and system of the closed-form family ``name`` at the parameter
    literal ``value``, e.g. ``("laguerre alpha=7/3", laguerre_system(7/3))``."""
    return f"{name} {FAMILIES[name][0]}={value}", closed_form(name, value)


def _bumped(gamma: GammaSeq, index: int, upto: int) -> GammaSeq:
    vals = gamma.window(1, upto)
    vals[index - 1] = vals[index - 1] + 1
    return GammaSeq.from_values(vals)


_LAGUERRE_ALPHAS = (Rat(-1, 2), Rat(0), Rat(1), Rat(7, 3))


def suite_theorem33(seed=0, samples=25, n=15, corrupt=False) -> SuiteReport:
    """Even/odd split of the pairwise-swapped symmetric family."""
    rep = SuiteReport("theorem33", seed, samples)
    need = 2 * n + 4
    for s, gamma in _samples(rep, need):
        if corrupt:
            # negative control: split the original symmetric family against
            # the tilde family of a corrupted gamma; P~_1 reads only
            # gamma_1, so n = 1 bumps that one.  The witness is the index.
            tilde = _bumped(gamma, 1 if n == 1 else 4, need)
            report = perturb.swap_split_check(gamma, n, tilde_gamma=tilde)
            witness = report.first_failure and report.first_failure[1]
        else:
            report = perturb.swap_split_check(gamma, n)
            witness = report.first_failure
        rep.add("even/odd split equals perturbed families", f"sample {s}, n<={n}",
                report.ok, witness)
    return rep


def suite_gccs(seed=0, samples=25, n=30, corrupt=False) -> SuiteReport:
    """Generalised complementary parameters and the shifted closed form."""
    rep = SuiteReport("gccs", seed, samples)
    need = 2 * n + 4
    for s, gamma in _samples(rep, need):
        g = parameters_from_gamma(gamma, n)
        gcc = generalised_complementary(g)
        kprime = gcc.parameters
        rep.add("k'_n = 1 - g_n", f"sample {s}, n<={n}",
                all(kprime[j] == 1 - g[j] for j in range(n + 1)))
        src = _bumped(gamma, 4, need) if corrupt else gamma
        hat_chain = chain_at(perturb.hat_system(src), 0, n)
        same = all(hat_chain.at(j) == gcc.at(j) for j in range(1, n + 1))
        rep.add("hat-system ratios equal the GCC chain", f"sample {s}, n<={n}", same)
        if not corrupt:
            closed = all(
                gcc.at(j) == gamma.at(2 * j - 1) * gamma.at(2 * j + 2)
                / ((gamma.at(2 * j - 1) + gamma.at(2 * j)) * (gamma.at(2 * j + 1) + gamma.at(2 * j + 2)))
                for j in range(1, n + 1))
            rep.add("GCC chain closed form", f"sample {s}, n<={n}", closed)
    for alpha in (Rat(0), Rat(1, 2)):
        hat = perturb.hat_system(laguerre_gamma(alpha, 1))
        # P_0..P_20 are equal iff b_1..b_20 and a2_1..a2_19 are
        rep.add(f"hat family (alpha={format_scalar(alpha)}) is the shifted family",
                "n<=20", systems_agree(hat, laguerre_system(alpha + 1), 20))
    return rep


def suite_kernel_invariance(seed=0, samples=10, n=30, corrupt=False) -> SuiteReport:
    """Matching increments leave the kernel recurrence coefficients fixed."""
    rep = SuiteReport("kernel_invariance", seed, samples)

    def invariant(gamma):
        return (perturb.kernel_invariance_condition(gamma, n)
                and systems_agree(perturb.tilde_kernel_system(gamma),
                                  kernel_system(gamma), n))

    for alpha in (Rat(0), Rat(7, 3)):
        for g1 in (0, 1):
            rep.add(f"laguerre gamma (alpha={format_scalar(alpha)}, g1={g1}) invariant",
                    f"n<={n}", invariant(laguerre_gamma(alpha, g1)))
    need = 2 * n + 6
    for s, gamma in _samples(rep, need, _progression_gamma):
        # the n = 1 checks never read gamma_6, but they do read gamma_4
        src = _bumped(gamma, min(6, 2 * n + 2), need) if corrupt else gamma
        rep.add("progression gamma invariant", f"sample {s}, n<={n}", invariant(src))
    return rep


def suite_quasi_orth(seed=0, samples=25, n=10, corrupt=False) -> SuiteReport:
    """Order-2 quasi-orthogonal combination collapses onto three base terms."""
    rep = SuiteReport("quasi_orth", seed, samples)
    need = 2 * n + 6
    for s, gamma in _samples(rep, need):
        if corrupt:
            held = perturb.quasi_holds(gamma, _bumped(gamma, 2 * n + 2, need), n)
            rep.add("quasi-orthogonality identity", f"sample {s}, n={n}",
                    held[-1], "corrupted coefficient")
        else:
            held = perturb.quasi_holds(gamma, gamma, n)
            bad = next((m for m, ok in enumerate(held, 1) if not ok), None)
            rep.add("quasi-orthogonality identity", f"sample {s}, n<={n}", bad is None, bad)
    return rep


_LU_FAMILIES = (
    ("laguerre", "0", 25),
    ("laguerre", "1", 25),
    ("laguerre", "7/3", 25),
    ("e_family", "0", 25),
    ("e_family", "1/2", 25),
    # finite family: gamma recovery to depth n needs b_{n+1}, capping n at 3
    ("routh_romanovski", "10", 3),
)


def suite_lu(seed=0, samples=0, n=25, corrupt=False) -> SuiteReport:
    """LU multiply-back, pivot identification, and the reversed product."""
    rep = SuiteReport("lu", seed, samples)
    for family, value, n_cap in _LU_FAMILIES:
        name, sys = _family(family, value)
        size = min(n, n_cap)
        J = truncate(sys, size)
        f = lu_factor(J, Rat(0))
        if corrupt:
            bad = type(f)(f.l_sub, (f.u_diag[0] + 1,) + f.u_diag[1:], f.gamma1)
            rep.add(f"{name}: L.U = J", f"n={size}",
                    bad.reconstruct() == J, "corrupted pivot")
            continue
        rep.add(f"{name}: L.U = J", f"n={size}", f.reconstruct() == J and f.product() == J)
        gamma = gamma_from_system(sys, Rat(0), size)
        # pivots u_i = gamma_{2i}, multipliers l_i = gamma_{2i+1}
        rep.add(f"{name}: pivots are the even-index gammas", f"n={size}",
                f.u_diag == tuple(gamma.at(2 * i) for i in range(1, size + 1))
                and f.l_sub == tuple(gamma.at(2 * i + 1) for i in range(1, size)))
        ul = ul_product(f)
        K = truncate(kernel_system(gamma), size)
        inner = (ul.diag[:-1] == K.diag[:-1] and ul.sub == K.sub)
        boundary = (ul.diag[-1] == gamma.at(2 * size)
                    and K.diag[-1] == gamma.at(2 * size) + gamma.at(2 * size + 1))
        rep.add(f"{name}: U.L matches the kernel matrix off the boundary",
                f"n={size}", inner and boundary)
    return rep


def suite_laguerre(seed=0, samples=0, n=50, corrupt=False) -> SuiteReport:
    """Closed-form gamma recovery, minimal parameters, and the kernel shift."""
    rep = SuiteReport("laguerre", seed, samples)
    for alpha in _LAGUERRE_ALPHAS:
        sys = laguerre_system(alpha)
        shift = Rat(1, 7) if corrupt else Rat(0)
        recovered = gamma_from_system(sys, Rat(0), n)
        closed = laguerre_gamma(alpha + shift, 0)
        ok_gamma = (recovered.at(1) == 0 and all(
            recovered.at(2 * m) == closed.at(2 * m)
            and recovered.at(2 * m + 1) == closed.at(2 * m + 1)
            for m in range(1, n + 1)))
        label = f"alpha={format_scalar(alpha)}"
        rep.add(f"{label}: gamma recovery matches closed form", f"n<={n}", ok_gamma,
                "shifted closed form" if corrupt else None)
        if corrupt:
            continue
        m = minimal_parameters(chain_at(sys, Rat(0), n), n)
        rep.add(f"{label}: minimal parameters n/(2n+alpha+1)", f"n<={n}",
                all(m[k] == Rat(k) / (2 * k + alpha + 1) for k in range(n + 1)))
        rep.add(f"{label}: kernel system is the alpha+1 family", f"n<={n}",
                systems_agree(kernel_system(closed), laguerre_system(alpha + 1), n))
    return rep


_MOMENT_SYSTEMS = (("laguerre", "0"), ("laguerre", "1"), ("e_family", "0"))


def suite_moments(seed=0, samples=0, n=8, corrupt=False) -> SuiteReport:
    """Convergent expansions match the walked moments; factorial oracle."""
    rep = SuiteReport("moments", seed, samples)
    systems = [_family(*row) for row in _MOMENT_SYSTEMS]
    naturals = GammaSeq(CoeffStream.from_pairs(lambda k: (k, 1)))
    systems.append(("gamma 1,2,3,...", system_from_gamma(naturals)))
    for name, sys in systems:
        mus = [moments(sys, k) for k in range(2 * n)]
        nums, dens = associated_sequence(sys, n), monic_sequence(sys, n)

        def matches(m):
            mu = mus[:2 * m]
            if corrupt:
                mu[-1] = mu[-1] + 1
            return list(laurent_expand(nums[m], dens[m], 2 * m).coeffs) == mu

        bad = next((m for m in range(1, n + 1) if not matches(m)), None)
        rep.add(f"{name}: convergent matches first 2n moments", f"n<={n}", bad is None,
                f"n={bad}")
    if not corrupt:
        lag0 = laguerre_system(Rat(0))
        rep.add("laguerre alpha=0 moments are k!", "k<=10",
                all(moments(lag0, k) == factorial(k) for k in range(11)))
    return rep


_SUITE_FNS = {
    "theorem33": suite_theorem33,
    "gccs": suite_gccs,
    "kernel_invariance": suite_kernel_invariance,
    "quasi_orth": suite_quasi_orth,
    "lu": suite_lu,
    "laguerre": suite_laguerre,
    "moments": suite_moments,
}
SUITES = (*_SUITE_FNS, "all")


def run_suite(name: str, seed: int = 0, samples: int | None = None,
              n: int | None = None, corrupt: bool = False) -> list[SuiteReport]:
    """Run one named suite (or 'all'); returns one report per suite."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    kw = {k: v for k, v in (("samples", samples), ("n", n)) if v is not None}
    names = _SUITE_FNS if name == "all" else [name]
    return [_SUITE_FNS[nm](seed=seed, corrupt=corrupt, **kw) for nm in names]
