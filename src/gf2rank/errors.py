"""Exception hierarchy shared across the package.  Each class carries the exit
code of the command line and the prefix of its one stderr line: 2 "error" for
bad input, 3 for a failed verification suite, 4 for a numerical failure."""


class Gf2RankError(Exception):
    """Base class for all errors raised by this package."""
    exit_code, prefix = 2, "error"


class ParseError(Gf2RankError):
    """Malformed textual input (weight spec, matrix file, ...)."""


class InvalidDistribution(Gf2RankError):
    """Weight distribution violates its invariants (bad atom, bad sum)."""


class DimensionMismatch(Gf2RankError):
    """Row length incompatible with the matrix column count."""


class TooLarge(Gf2RankError):
    """Instance exceeds the size limit of an exhaustive routine."""


class PrecisionLoss(Gf2RankError):
    """Rounding-error bound of a numerical sum exceeds the allowed tolerance."""
    exit_code, prefix = 4, "numerical error"


class NumericalResidue(Gf2RankError):
    """A quantity that must be real carries a non-negligible imaginary part."""
    exit_code, prefix = 4, "numerical error"


class InvalidParam(Gf2RankError):
    """Parameter outside the documented domain."""


class NoConvergence(Gf2RankError):
    """Iteration or scan failed to converge within its budget."""
    exit_code, prefix = 4, "numerical error"


class Inconsistent(Gf2RankError):
    """Independent computation routes disagree beyond tolerance."""
    exit_code, prefix = 4, "numerical error"


class VerificationFailed(Gf2RankError):
    """A verification suite reported at least one failing check."""
    exit_code, prefix = 3, "verification failed"
