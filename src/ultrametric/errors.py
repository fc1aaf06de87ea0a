"""Domain error hierarchy.

Every error carries a stable machine-readable ``code`` (the class name) and a
``details`` mapping of JSON-ready values, so the CLI can emit structured
diagnostics and tests can assert on exact failure causes.
"""


class UltrametricError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "UltrametricError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self) -> dict:
        """Structured form: ``{"error": code, "message": ..., <details>}``."""
        out = {"error": self.code, "message": self.message}
        out.update(self.details)
        return out


class InputFormat(UltrametricError):
    """Malformed input: bad JSON, bad rational string, wrong matrix shape."""


class InvalidParameter(UltrametricError):
    """A precondition on an argument was violated (no dedicated code exists)."""


# -- space axioms -------------------------------------------------------------

class EmptySpace(UltrametricError):
    pass


class DuplicateLabel(UltrametricError):
    pass


class NonSymmetric(UltrametricError):
    pass


class NonzeroDiagonal(UltrametricError):
    pass


class ZeroOffDiagonal(UltrametricError):
    pass


class NegativeDistance(UltrametricError):
    pass


class TriangleViolation(UltrametricError):
    pass


# -- dendrograms ---------------------------------------------------------------

class MalformedTree(UltrametricError):
    pass


# -- subsets -------------------------------------------------------------------

class EmptySubset(UltrametricError):
    pass


class UnknownLabel(UltrametricError):
    pass


# -- amalgamation ---------------------------------------------------------------

class EmptyCommonPart(UltrametricError):
    pass


class MetricMismatchOnA(UltrametricError):
    pass


class DuplicateIdentification(UltrametricError):
    pass


class ScaleTooSmall(UltrametricError):
    pass


class EmptyChain(UltrametricError):
    pass


# -- Gromov-Hausdorff -----------------------------------------------------------

class InstanceTooLarge(UltrametricError):
    pass


class CertificateInvalid(UltrametricError):
    pass


class OracleMismatch(UltrametricError):
    """Exhaustive oracle disagrees with the scan algorithm: a library bug."""


# -- generators ------------------------------------------------------------------

class NonpositiveDistance(UltrametricError):
    pass


class ScaleNotBelowMinDistance(UltrametricError):
    pass


class BasePointMissing(UltrametricError):
    pass


class ConstraintTooSmall(UltrametricError):
    pass


class NotAMetric(UltrametricError):
    pass
