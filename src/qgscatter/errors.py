"""Exception hierarchy for the qgscatter package.

Domain errors (bad models, bad parameters) derive from :class:`QGError` so
callers and the CLI can distinguish them from genuine bugs.
"""


class QGError(Exception):
    """Base class for all qgscatter domain errors."""


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

class ValidationError(QGError):
    """A model object violates one of its structural invariants."""


class NonPositiveLength(ValidationError):
    pass


class DanglingEndpoint(ValidationError):
    pass


class DuplicateId(ValidationError):
    pass


class ConditionDegreeMismatch(ValidationError):
    pass


class RankDeficientAB(ValidationError):
    pass


class UnknownVertex(ValidationError):
    pass


class NoLeads(ValidationError):
    pass


# ---------------------------------------------------------------------------
# vertex scattering
# ---------------------------------------------------------------------------

class InvalidDegree(QGError):
    pass


class SingularAtK(QGError):
    """A + ikB of a vertex's linear conditions is singular at ``k``, so its
    scattering matrix does not exist there."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class NotSelfAdjoint(QGError):
    pass


class NotUnitary(ValidationError):
    pass


# ---------------------------------------------------------------------------
# global scattering / spectra
# ---------------------------------------------------------------------------

class ZeroK(QGError):
    pass


class SingularInterior(QGError):
    """The interior propagation system is singular at the requested k.

    At real k this flags an exceptional point (typically a bound state
    decoupled from the leads); the scattering matrix is not silently
    regularized there.
    """

    def __init__(self, message, k=None, determinant=None):
        super().__init__(message)
        self.k = k
        self.determinant = determinant


class WindowTooWide(QGError):
    pass


class DeterminantOverflow(QGError):
    """D(k) or a contour integrand is not finite.

    |D(k)| grows like exp(|Im k| * total bond length), so deep in the
    complex plane it overflows double precision. This is not a zero on the
    contour, and jittering the contour cannot cure it.
    """


# ---------------------------------------------------------------------------
# symmetry / representations
# ---------------------------------------------------------------------------

class NotHomomorphism(QGError):
    pass


class LengthViolation(QGError):
    pass


class ConditionViolation(QGError):
    pass


class DependentColumns(QGError):
    pass


class NotEquivariant(QGError):
    pass


class NotIrreducible(QGError):
    pass


class NotSubgroup(QGError):
    pass


class GroupMismatch(QGError):
    pass


# ---------------------------------------------------------------------------
# contours / poles
# ---------------------------------------------------------------------------

class BoundaryZero(QGError):
    """The integrand passes too close to a zero on a contour."""


class NonHolomorphic(QGError):
    pass


class Diverged(QGError):
    pass


# ---------------------------------------------------------------------------
# isoscattering
# ---------------------------------------------------------------------------

class DimensionMismatch(QGError):
    pass


class SampleAtSingularity(QGError):
    pass


class WindowMismatch(QGError):
    pass


# ---------------------------------------------------------------------------
# file handling
# ---------------------------------------------------------------------------

class ParseError(QGError):
    """Input file is malformed; carries a human-readable location."""

    def __init__(self, message, location=None):
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location
