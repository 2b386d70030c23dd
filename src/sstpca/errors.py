"""Exception hierarchy shared across the package."""


class SSTPCAError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SSTPCAError):
    """Operands have incompatible shapes."""


class AsymmetricSlice(SSTPCAError):
    """A slice violates the symmetry tolerance."""


class NonFiniteEntry(SSTPCAError):
    """NaN or infinity found in input data."""


class LengthNotTriangular(SSTPCAError):
    """Vector length is not p*(p-1)/2 for the stated p."""


class NotSymmetric(SSTPCAError):
    """Matrix expected to be symmetric is not."""


class RankTooLarge(DimensionMismatch):
    """Requested rank exceeds the matrix dimension."""


class ZeroVector(SSTPCAError):
    """Cannot normalize a (numerically) zero vector."""


class DegenerateIterate(SSTPCAError):
    """An alternating update produced a degenerate (zero) target."""


class InvalidGivenInit(SSTPCAError):
    """User-supplied initial loading vector is too far from unit length."""


class SingularSmoother(SSTPCAError):
    """Smoothing matrix could not be solved against."""


class SingularSchurBlock(SSTPCAError):
    """A slice block V'XV is numerically singular during Schur deflation."""

    def __init__(self, slice_index, cond=None):
        self.slice_index = slice_index
        self.cond = cond
        msg = f"slice {slice_index}: V'XV block is numerically singular"
        if cond is not None:
            msg += f" (condition number {cond:.3e})"
        super().__init__(msg)


class TooFewSlices(SSTPCAError):
    """Operation needs more slices along the last mode."""


class DegenerateSeries(SSTPCAError):
    """Series carries no change signal (CUSUM tensor is numerically zero)."""


class InvalidProbability(SSTPCAError):
    """Edge probabilities outside the allowed range."""


class InvalidParameter(SSTPCAError):
    """Generative-model parameter outside its domain."""


class BudgetExceeded(SSTPCAError):
    """Adversarial perturbation exceeds the allowed norm budget."""


class DegenerateMatrix(SSTPCAError):
    """Matrix input to a factorization is (numerically) zero."""


class ParseError(SSTPCAError):
    """Malformed input file; message carries row/column context."""


class AsymmetricInput(SSTPCAError):
    """Input file specifies conflicting values for a symmetric pair."""


class InconsistentDimensions(SSTPCAError):
    """Input slices do not share a common node count."""


class DidNotConvergeWarning(UserWarning):
    """Fit hit the iteration cap; the returned factor is the best iterate."""
