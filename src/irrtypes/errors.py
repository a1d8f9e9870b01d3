"""Error hierarchy with stable machine-readable names.

Every library error carries a ``code``, the stable name the CLI reports,
which is always its class name, and a ``category`` deciding the process
exit code: ``input`` errors mean the supplied data was malformed,
``precondition`` errors mean a documented operation precondition was
violated, ``resource`` errors mean a size or precision guard fired.
"""

from __future__ import annotations


class IrrTypesError(Exception):
    """Base class for all library errors."""

    code = "IrrTypesError"
    category = "precondition"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class MalformedInput(IrrTypesError):
    """Input data violates a schema or constructor invariant."""

    category = "input"


class NotAUnit(IrrTypesError):
    """Inversion requested for a non-invertible element."""


class PrecisionExhausted(IrrTypesError):
    """A truncated computation ran out of known coefficients."""

    category = "resource"


class BadModulus(IrrTypesError):
    """The modulus is not monic linear in the series variable."""


class Unsupported(IrrTypesError):
    """Requested root system family or rank is not implemented."""


class TooLarge(IrrTypesError):
    """Resource guard: a request exceeds a size or work budget."""

    category = "resource"


class OutOfRange(IrrTypesError):
    """A numeric argument lies outside its documented range."""


class NotRelevant(IrrTypesError):
    """The order vector does not describe a non-empty stratum."""


class SearchExhausted(IrrTypesError):
    """Witness search gave up; must not happen for relevant data."""

    category = "resource"


class Twisted(IrrTypesError):
    """The connection is not diagonal below residue order in this basis."""


class LeadingNotRegular(IrrTypesError):
    """The leading coefficient has a repeated eigenvalue."""


class NotSplitOverField(IrrTypesError):
    """An eigenvalue does not lie in the Gaussian rationals."""


class OrderTooLow(IrrTypesError):
    """Slice construction needs a root of pole order at least two."""


class ZeroPair(IrrTypesError):
    """Both members of the coefficient pair vanish."""


class ShapeMismatch(IrrTypesError):
    """Operands do not share the required shape or parent data."""


class NotRegular(IrrTypesError):
    """Diagonal entries are not pairwise distinct (or sum is not zero)."""


class NotInXn(IrrTypesError):
    """Configuration entries must be nonzero and pairwise distinct."""


EXIT_CODES = {"input": 1, "precondition": 2, "resource": 3}


def exit_code_for(err: IrrTypesError) -> int:
    return EXIT_CODES.get(err.category, 2)
