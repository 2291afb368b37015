"""Exception hierarchy shared across the package.

Everything raised deliberately by this package derives from
:class:`PeriodLabError`, so callers can catch one type at the boundary.
Subclasses split along the main failure axes: bad input text, inconsistent
catalog data, structural validation, matrix shape problems, and oracle-side
limitations.
"""

from __future__ import annotations

from dataclasses import dataclass


class PeriodLabError(Exception):
    """Base class for all errors raised by this package."""


# -- notation / input text -------------------------------------------------

class NotationError(PeriodLabError):
    """Problem with parameter or catalog text input."""


@dataclass(frozen=True)
class SourceSpan:
    """1-based location of a token in input text."""

    line: int
    column: int
    length: int = 1


class ParseError(NotationError):
    """Syntax error in an input expression or catalog file.

    Carries a 1-based source location so the CLI can point at the
    offending token.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, length: int = 1):
        self.line = line
        self.column = column
        self.length = max(1, length)
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)

    @property
    def span(self) -> SourceSpan | None:
        if self.line is None:
            return None
        return SourceSpan(self.line, self.column, self.length)


# -- catalog ----------------------------------------------------------------

def quoted(value: str, form: str = "{!r}") -> str:
    """``value`` as an error message names it: written by ``form``, and
    past 40 characters cut to its first 40 and "..." and its length."""
    if len(value) <= 40:
        return form.format(value)
    return f"{form.format(value[:40] + '...')} ({len(value)} characters)"


class CatalogError(PeriodLabError):
    """A cuspidal label or model lookup failed."""


class CatalogMismatchError(CatalogError):
    """Two labels share a name but disagree on their declared data."""


class ConsistencyError(CatalogError):
    """Catalog contents violate a structural rule (duality, parity, ...)."""


# -- structural validation of specs and segments ----------------------------

class RDSValidationError(PeriodLabError):
    """Base for the per-condition failures of relative-discrete-series specs."""


class DimensionMismatchError(RDSValidationError):
    """Segment dimensions do not sum to the declared 2n."""


class OddBlockError(RDSValidationError):
    """A spec block has odd dimension where an even partition is required."""


class DuplicateSegmentError(RDSValidationError):
    """Two spec segments are equivalent; pairwise inequivalence is required."""


class NotDistinguishedError(RDSValidationError):
    """A spec segment fails the linear-distinction criterion.

    ``index`` is the position of the failing segment in the spec list.
    """

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


class OddDimensionError(PeriodLabError):
    """An operation defined only in even dimension received an odd one."""


class NonTemperedError(PeriodLabError):
    """An operation restricted to twist-zero segments received a twist."""


# -- matrices ----------------------------------------------------------------

class ShapeMismatchError(PeriodLabError):
    """Matrix dimensions do not line up for the requested operation."""


class OddSizeError(PeriodLabError):
    """A symplectic form was requested in odd size."""


class OddPartError(PeriodLabError):
    """A partition intended to be even contains an odd part."""


class ConjugatorNotFoundError(PeriodLabError):
    """No verified permutation conjugator was found (internal error)."""


# -- realization and oracles --------------------------------------------------

class TwistedSegmentError(PeriodLabError):
    """A matrix realization was requested for a segment with a nonzero twist."""


class MissingModelError(PeriodLabError):
    """A cuspidal label has no concrete matrix model attached."""


class SurrogateBoundExceededError(PeriodLabError):
    """A finite stand-in for SL(2) was requested beyond its faithful range."""


class DimBoundExceededError(PeriodLabError):
    """An oracle search was requested above its configured dimension bound."""


class NonIntegralIndicatorError(PeriodLabError):
    """A character sum that must be an integer failed its rounding gap."""


class CommutantMismatchError(PeriodLabError):
    """The commutant dimension disagrees with the classes of blocks."""


class FormVerificationError(PeriodLabError, ValueError):
    """A form is not skew, nondegenerate and invariant under the generators."""
