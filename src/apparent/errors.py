"""Domain error hierarchy.

Every error carries a stable ``code`` string suitable for machine
consumption (the command line interface reports it verbatim).  Extra
keyword arguments are kept in ``details`` for diagnostics.
"""


class ApparentError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ApparentError"

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

    code = "BothZero"


class ZeroPolynomialError(ApparentError):
    """Operation undefined for the zero polynomial."""

    code = "ZeroPolynomial"


class DegenerateLeadingError(ApparentError):
    """Leading coefficient polynomial is identically zero."""

    code = "DegenerateLeading"


class NotAnODEError(ApparentError):
    """Fewer than two coefficient polynomials were supplied."""

    code = "NotAnODE"


class SingularMoebiusError(ApparentError):
    """Moebius matrix has zero determinant."""

    code = "SingularMoebius"


class NotFuchsianError(ApparentError):
    """Equation has an irregular singular point where a Fuchsian one is required."""

    code = "NotFuchsian"


class IrregularPointError(ApparentError):
    """Indicial data requested at an irregular singular point."""

    code = "IrregularPoint"


class NotAnExponentError(ApparentError):
    """Requested exponent is not a root of the indicial polynomial."""

    code = "NotAnExponent"


class NotSingularError(ApparentError):
    """Apparency test requested at an ordinary point."""

    code = "NotSingular"


class AlreadyIntegratedError(ApparentError):
    """Inverse transform target already lacks the claimed apparent point."""

    code = "AlreadyIntegrated"


class NothingToRemoveError(ApparentError):
    """No candidate apparent singularity to remove."""

    code = "NothingToRemove"


class NotRemovableError(ApparentError):
    """Inverse transform system has no nonzero solution."""

    code = "NotRemovable"


class FuchsianIdentityError(ApparentError):
    """Exponent parameters violate the Fuchsian sum constraint."""

    code = "FuchsianIdentity"


class DegenerateGeometryError(ApparentError):
    """Singularity locations collide or hit a forbidden value."""

    code = "DegenerateGeometry"


class NotConfluentClassError(ApparentError):
    """Coefficient degrees do not match the confluent pattern."""

    code = "NotConfluentClass"


class DegenerateApparentPointError(ApparentError):
    """Apparent point location formula has a vanishing denominator."""

    code = "DegenerateApparentPoint"


class NoEigenvalueInWindowError(ApparentError):
    """Spectral scan found no sign change in the requested window."""

    code = "NoEigenvalueInWindow"


class PrecisionExhaustedError(ApparentError):
    """Working precision insufficient for the requested tolerance."""

    code = "PrecisionExhausted"
