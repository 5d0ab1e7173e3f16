"""Exception taxonomy for the series kernel and automorphism workbench.

Every error raised on purpose derives from :class:`HahnError`, so callers
(notably the CLI) can distinguish domain failures from programming bugs.
"""


class HahnError(Exception):
    """Base class for all kernel errors."""


class DescriptorMismatch(HahnError):
    """Two values from different value groups were combined."""


class ZeroArgument(HahnError):
    """The natural valuation was requested at zero."""


class OutsideSpan(HahnError):
    """An element is not in the rational span of a functional's generators."""


class InvalidMap(HahnError):
    """A map specification violates monotonicity, positivity or bijectivity."""


class DivisionByZero(HahnError):
    """Inversion of the zero series."""


class InsufficientPrecision(HahnError):
    """A result would depend on coefficients beyond the known precision."""


class ZeroSeries(HahnError):
    """The leading term of the zero series was requested."""


class NonContracting(HahnError):
    """A derivation does not strictly increase the valuation."""


class NonTerminating(HahnError):
    """An expansion would not reach the target precision in finitely many terms."""


class UnmappedExponent(HahnError):
    """A table derivation met an exponent it has no rule for."""


class NotInfinitesimal(HahnError):
    """The perturbation of an internal multiplication unit has v <= 0."""


class DomainError(HahnError):
    """A value lies outside the domain a partial map is defined on."""


class NotOneAut(HahnError):
    """A gate required a leading-term-fixing automorphism."""


class NotInternal(HahnError):
    """A gate required an internal group automorphism."""


class SampleInsufficiency(HahnError):
    """A table-based reconstruction cannot represent the requested value."""


class ResultTooLong(HahnError):
    """A result holds a number with more digits than Python writes as text."""


class ParseError(HahnError):
    """Malformed input text; carries the offset of the offending token."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class ExponentParseError(ParseError):
    """An exponent literal does not fit the session's value group."""
