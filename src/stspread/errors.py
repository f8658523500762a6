"""Exception types raised by the stspread library.

Every failure mode that callers are expected to handle gets its own class;
all of them derive from StsError so a bare ``except StsError`` catches any
domain-level problem while genuine bugs still surface as ordinary exceptions.
"""


class StsError(Exception):
    """Base class for all stspread errors."""


class BadOrderError(StsError):
    """Order is non-positive, or a Steiner system is claimed on an order
    that admits none (order > 3 and order not congruent to 1 or 3 mod 6)."""


class OutOfRangeError(StsError):
    """A point index falls outside [0, order)."""


class SamePointError(StsError):
    """Two distinct points were required but the same index was given twice."""


class DuplicatePairError(StsError):
    """Two blocks share two points, violating pairwise linearity."""


class NotSteinerError(StsError):
    """A Steiner system was required but some pair is uncovered."""


class ParseError(StsError):
    """Malformed text input; message carries the offending line number."""


class TooLargeError(StsError):
    """Requested object exceeds the configured size cap."""


class SearchExhaustedError(StsError):
    """A randomized search ran out of restarts or nodes without success."""


class NoTriangleError(StsError):
    """No triangle configuration exists (order below 7)."""


class InadmissibleOrderError(StsError):
    """Order is not congruent to 1 or 3 mod 6, is below the source order, or
    lies strictly between a Steiner source's order u and 2u+1."""


class BudgetExhaustedError(StsError):
    """An explicit work budget ran out.  When partial results exist they are
    attached as the ``partial`` attribute."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotSpreadingError(StsError):
    """A spreading set was required but the given set does not spread."""


class NotPrimePowerError(StsError):
    """q is not a prime power (checked against a table up to 64)."""


class NotProjectiveTagError(StsError):
    """Operation requires a binary projective space PG(d,2)."""


class TrivialOrderError(StsError):
    """Operation is undefined on degenerate orders (below the stated minimum)."""
