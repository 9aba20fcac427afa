"""Exception hierarchy.

Errors that point at a specific index (a recurrence step, a gamma entry,
a pivot) carry it as ``.index`` so callers and reports can name the first
offending position.  ``exit_code`` is the command-line exit status: 2 for
invalid input, 3 for a numerical breakdown.
"""


class OpchainError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class IndexedError(OpchainError):
    """An error located at a specific 1-based index."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"{type(self).__name__} at index {index}")


# -- scalars / polynomials ------------------------------------------------

class InvalidRationalLiteral(OpchainError):
    """Not an exact rational: a float, or a string that is not an integer
    or 'p/q' with nonzero q."""


class DegreeViolation(OpchainError):
    """Degree precondition broken (e.g. numerator degree >= denominator)."""


# -- coefficient streams ---------------------------------------------------

class StreamExhausted(IndexedError):
    """Requested an entry beyond a stream's declared valid range."""


# -- gamma sequences and chain sequences -----------------------------------

class NonPositiveGamma(IndexedError):
    """gamma_n <= 0 for some n >= 2 (or gamma_1 < 0)."""


class InvalidGamma1(OpchainError):
    """gamma_1 outside [0, b_1)."""


class PositivityBreak(IndexedError):
    """gamma recovery produced a nonpositive entry: the zero-argument
    ratios do not form a chain sequence for this leading parameter."""

    exit_code = 3


class NotAChainSequence(IndexedError):
    """Minimal-parameter recurrence left (0,1) at this index."""

    exit_code = 3


class NotMinimal(OpchainError):
    """Parameter sequence must be minimal (g_0 = 0) here."""


class ParameterOutOfRange(OpchainError):
    """Parameter sequence violates 0 <= g_0 < 1 or 0 < g_n < 1."""


class PoleAtB(IndexedError):
    """Chain-sequence evaluation point t collides with a diagonal entry b_n."""

    exit_code = 3


# -- perturbed families -----------------------------------------------------

class Gamma1Zero(OpchainError):
    """The pairwise-swapped construction requires gamma_1 > 0."""


class DegenerateFavard(OpchainError):
    """A recurrence was produced with some a_n^2 <= 0."""


# -- Jacobi matrices ---------------------------------------------------------

class PivotBreakdown(IndexedError):
    """LU elimination hit a nonpositive pivot."""

    exit_code = 3


class NonPositiveA2(IndexedError):
    """Subdiagonal entry a_n^2 <= 0 where positivity is required."""

    exit_code = 3


class FloatOverflow(OpchainError):
    """An exact value is too large for the float64 spectra code."""

    exit_code = 3


class LengthMismatch(OpchainError):
    """Two vectors that must have equal length do not."""


# -- closed-form families -----------------------------------------------------

class AlphaOutOfRange(OpchainError):
    """Family parameter alpha outside its orthogonality domain (alpha > -1)."""


class NonPositiveInput(OpchainError):
    """Input required to be strictly positive is not."""
