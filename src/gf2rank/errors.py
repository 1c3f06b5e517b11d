"""Exception hierarchy shared across the package, and the work budget.

Each class carries the exit code of the command line and the prefix of its
one stderr line: 2 "error" for bad input, 3 for a failed verification suite,
4 for a numerical failure.

The work budget is the one size-limit policy of the package: ``WORK_BUDGET``
holds one entry per kind of work, and ``check_work`` is the one place that
raises ``TooLarge``.  Each caller computes the cost of its call from its
inputs, before it allocates anything, and hands it over; a call over budget
ends at once with exit 2.
"""


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
    """A call costs more than the work budget of its kind of work."""


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


# kind of work -> (what its cost counts, the largest cost admitted).  Each
# budget is set from the slowest call it admits, measured on a 2-CPU
# machine; the README lists that call for every entry.  n is the column
# count, m the row count, W a row weight, P the working precision in bits,
# d the common denominator of the parity cells and D the digits of that of
# the lambda_j: n in the exact model, n + W log2(n) summed over the weights
# in the binomial one.
WORK_BUDGET = {
    "null-space walk": ("rows m", 24),
    "matrix": ("columns + rows + entries", 25_000_000),
    "T_n trial": ("basis bits (n+1)^2", (100_000 + 1) ** 2),
    "core elimination": ("core rows x occupied columns, then x set-aside rows", 10_000_000_000),
    "trials": ("trials", 100_000),
    "curve": ("points", 100_000),
    "multiplicity table": ("columns n", 100_000),
    "even-overlap table": ("(n+1)^2 (W summed + 4)", 400_000_000),
    "binomial lambda table": ("n D^2", 10_000_000_000_000),
    "parity sums": ("(m+1) ((m+1) (n+m+D) + P)", 20_000_000_000),
    "guarded sum": ("(n/2+1) P log2(m+1)", 400_000_000),
    "Poisson convolution": ("n (m+1)^2 P", 51_200_000),
    "Fourier sum": ("pairs (2r)^k", 1 << 23),
    "parity DP": ("n r^k 2^k (n log2(d)^2 / 64 + 2^14)", 1 << 35),
    "parity paths": ("path steps n (2^k)^n", 4_000_000),
    "prime-power test": ("trial divisors sqrt(q)", 10_000_000),
}


def fits(kind: str, cost: int) -> bool:
    """Whether ``cost`` is within the budget of ``kind``: for a caller that
    picks a route by it rather than refusing the call."""
    return cost <= WORK_BUDGET[kind][1]


def check_work(kind: str, cost: int) -> None:
    """Raise TooLarge, and only here, when ``cost`` exceeds the budget of
    ``kind``.  The caller computes the cost from its inputs before it
    allocates anything."""
    if not fits(kind, cost):
        counts, budget = WORK_BUDGET[kind]
        raise TooLarge(f"{kind}: {counts} = {cost} exceeds the budget {budget}")
