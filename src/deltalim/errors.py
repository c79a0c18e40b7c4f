"""Exception hierarchy shared by all deltalim modules."""


class DeltaLimError(Exception):
    """Base class for all domain errors raised by deltalim."""


class NonConvergence(DeltaLimError):
    """Adaptive ODE integration failed to reach the requested tolerance."""


class BracketScanTooCoarse(DeltaLimError):
    """The root refined from a scan cell failed the theta-scaled residual
    gate (likely more than one sign change, or a tangency, in the cell)."""


class DegenerateProfile(DeltaLimError):
    """The shooting solution vanishes at the support edge, contradicting
    resonance certification."""


class SingularWronskian(DeltaLimError):
    """Kernel assembly hit a vanishing Wronskian; z is too close to the
    spectrum at working precision."""


class QuadratureFailure(DeltaLimError):
    """Quadrature refinement exceeded its panel budget."""


class NotAResonance(DeltaLimError):
    """A coupling claimed resonant fails the residual test."""


class NotResonant(DeltaLimError):
    """A profile was requested for a non-resonant classification."""


class AiryRangeError(DeltaLimError):
    """Argument outside the guarded evaluation range of the Airy routines."""
