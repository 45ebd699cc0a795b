"""Exception taxonomy.

Every library error carries a stable machine-readable ``code`` so the CLI can
surface failures without string matching.
"""


class SemigroupError(Exception):
    code = "error"


class InvalidGenerators(SemigroupError):
    """Empty input, a non-positive entry, or fewer than 2 minimal generators."""

    code = "invalid-generators"


class NonCoprimeGenerators(SemigroupError):
    """gcd of the input generators exceeds 1; not a numerical semigroup here."""

    code = "not-coprime"


class NotAMember(SemigroupError):
    """An operation required x in S (or m in S) and it was not."""

    code = "not-a-member"


class BudgetExceeded(SemigroupError):
    """An element budget or a size limit of `budget` ran out before the
    answer was exact."""

    code = "budget-exceeded"


class PeriodOverflow(SemigroupError):
    """The lcm-based period of the semigroup does not fit in 64 signed bits."""

    code = "period-overflow"


class ThresholdNotMet(SemigroupError):
    """A shift identity was queried below its guaranteed-validity threshold."""

    code = "threshold-not-met"


class VerificationError(SemigroupError):
    """An internal cross-check that should always hold was falsified."""

    code = "verification-failed"
