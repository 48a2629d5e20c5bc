"""Domain error hierarchy.

Every error carries a stable ``code`` string suitable for machine
consumption (the command line interface reports it verbatim): the class
name without ``Error``, set once for every subclass by the base class.
``tests/data/golden_cli.json`` pins the list of codes.  Extra keyword
arguments are kept in ``details`` for diagnostics.
"""


class ApparentError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ApparentError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__.removesuffix("Error")

    def __init__(self, message="", **details):
        super().__init__(message or self.code)
        self.message = message or self.code
        self.details = details

    def __str__(self):
        if self.details:
            extra = ", ".join(f"{k}={v}" for k, v in self.details.items())
            return f"{self.message} ({extra})"
        return self.message


class BothZeroError(ApparentError):
    """gcd(0, 0) requested."""


class ZeroPolynomialError(ApparentError):
    """Operation undefined for the zero polynomial."""


class DegenerateLeadingError(ApparentError):
    """Leading coefficient polynomial is identically zero."""


class NotAnODEError(ApparentError):
    """Fewer than two coefficient polynomials were supplied."""


class SingularMoebiusError(ApparentError):
    """Moebius matrix has zero determinant."""


class NotFuchsianError(ApparentError):
    """Equation has an irregular singular point where a Fuchsian one is required."""


class IrregularPointError(ApparentError):
    """Indicial data requested at an irregular singular point."""


class NotAnExponentError(ApparentError):
    """Requested exponent is not a root of the indicial polynomial."""


class NotSingularError(ApparentError):
    """Apparency test requested at an ordinary point."""


class AlreadyIntegratedError(ApparentError):
    """Inverse transform target already lacks the claimed apparent point."""


class NothingToRemoveError(ApparentError):
    """No candidate apparent singularity to remove."""


class NotRemovableError(ApparentError):
    """Inverse transform system has no nonzero solution."""


class FuchsianIdentityError(ApparentError):
    """Exponent parameters violate the Fuchsian sum constraint."""


class DegenerateGeometryError(ApparentError):
    """Singularity locations collide or hit a forbidden value."""


class NotConfluentClassError(ApparentError):
    """Coefficient degrees do not match the confluent pattern."""


class DegenerateApparentPointError(ApparentError):
    """Apparent point location formula has a vanishing denominator."""


class NoEigenvalueInWindowError(ApparentError):
    """Spectral scan found no sign change in the requested window."""


class PrecisionExhaustedError(ApparentError):
    """Working precision insufficient for the requested tolerance."""
