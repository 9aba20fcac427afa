"""opchain: exact chain sequences, three-term recurrences, and their
pairwise-swap perturbations, with a verification-first design.

Everything algebraic runs on exact rationals (``fractions.Fraction``);
float64 appears only in the Sturm bisection used for zeros.
"""

from .chains import (
    ChainSequence,
    GammaSeq,
    ParameterSeq,
    chain_at,
    chain_at_via_polynomials,
    complementary,
    gamma_from_system,
    generalised_complementary,
    kernel_identity_check,
    kernel_system,
    maximal_parameters,
    minimal_parameters,
    parameters_from_gamma,
    system_from_gamma,
    true_interval_predicate,
    wall_sppcs_test,
    INFINITY,
)
from .families import (
    LSequence,
    RRParams,
    e_family_system,
    gamma_phi2_from_l,
    l_from_gamma,
    laguerre_gamma,
    laguerre_system,
    monicize_step,
    rr_system,
)
from .jacobi import (
    BidiagonalFactors,
    TridiagonalMatrix,
    interlace_check,
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
    swapped_nu,
    tilde_kernel_system,
    tilde_system,
    u_system,
    unified_coefficients,
    unified_sequence,
    zero_sum_interlacing_report,
)
from .poly import Polynomial, even_part, odd_part, substitute_square
from .scalars import RAT_BACKEND, Rat, format_scalar, parse_rational
from .systems import (
    LaurentSeries,
    SymmetricSystem,
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
