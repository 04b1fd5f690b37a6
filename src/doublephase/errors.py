"""Exception types shared across the package."""


class DoublePhaseError(Exception):
    """Base class for all package-specific failures."""


class ExponentRangeError(DoublePhaseError):
    """An exponent field takes a value <= 1 somewhere (not an admissible exponent)."""

    key = None  # the spec (p1, p2 or q) the error is about, when it is about one


class NormBracketError(DoublePhaseError):
    """The Luxemburg norm could not be solved and certified.

    Raised for overflow-scale input: a field whose largest value exceeds
    float-max/2**60 (about 1.5e290), or is not finite.  Every smaller nonzero
    scale, down to the smallest subnormal double, is served.  Also raised if
    the root's residual on the normalized field exceeds ``spaces.NORM_TOL``.
    """


class SubdomainBoundsError(DoublePhaseError):
    """A plateau sub-box touches or leaves the domain."""


class EndpointScheduleError(DoublePhaseError):
    """The doubling schedule never drove the energy negative along the ray."""


class LambdaGridError(DoublePhaseError):
    """No value on the supplied lambda grid makes the energy of the bump negative."""


class NonFiniteError(DoublePhaseError, ValueError):
    """A field, an energy level or a constant overflowed or is not a number."""


class PathCollapseError(DoublePhaseError):
    """A ray has no interior energy peak: along it the mountain energy never
    turns down, or it has no barrier near the origin (degenerate direction)."""


class SphereGeometryError(DoublePhaseError):
    """No tested sphere radius had strictly positive energy minimum."""


class FieldShapeError(DoublePhaseError):
    """A field file cannot be read or does not match the configured grid."""


class ConfigError(DoublePhaseError):
    """Experiment configuration could not be parsed or validated."""


class HypothesisGateError(DoublePhaseError):
    """A stage, solver or check was invoked with failing theorem hypotheses
    and no override (:meth:`exponents.HypothesisReport.require`)."""
