"""opchain: exact chain sequences, three-term recurrences, and their
pairwise-swap perturbations, with a verification-first design.

Everything algebraic runs on exact rationals (``fractions.Fraction``);
float64 appears only in the QL solve and the Sturm bisection used for
zeros, and in the CLI's ``--float`` view of printed values.
"""

from .chains import (
    ChainSequence,
    GammaSeq,
    ParameterSeq,
    chain_at,
    complementary,
    gamma_from_system,
    generalised_complementary,
    kernel_identity_check,
    kernel_system,
    minimal_parameters,
    parameters_from_gamma,
    system_from_gamma,
    true_interval_predicate,
    wall_sppcs_test,
    INFINITY,
)
from .families import (
    LSequence,
    e_family_system,
    gamma_phi2_from_l,
    l_from_gamma,
    laguerre_gamma,
    laguerre_system,
    rr_system,
)
from .jacobi import (
    BidiagonalFactors,
    TridiagonalMatrix,
    lu_factor,
    truncate,
    ul_product,
    zeros,
    zeros_with_brackets,
)
from .perturb import (
    hat_system,
    kernel_invariance_condition,
    q_system,
    swap_split_check,
    tilde_kernel_system,
    tilde_system,
    u_system,
)
from .poly import Polynomial
from .scalars import RAT_BACKEND, Rat, format_scalar, parse_rational
from .systems import (
    LaurentSeries,
    ThreeTermSystem,
    associated_sequence,
    convergent,
    laurent_expand,
    moments,
    monic_sequence,
    symmetric_sequence,
    systems_agree,
)

__version__ = "0.1.0"
