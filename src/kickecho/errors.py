"""Exception types shared across the engines and the scan layer.

Validation problems (bad arguments, unsatisfiable preconditions) raise
ValueError subclasses; numerical-engine failures raise EngineError
subclasses.  The CLI maps the two families to distinct exit codes.
"""


class EngineError(RuntimeError):
    """A numerical engine failed to produce a trustworthy result."""


class TruncationError(EngineError):
    """Population reached the edge band of the momentum ladder.

    The message states the ladder half-width that was in use; rerun with a
    wider ladder (larger ``q_max``).
    """


class ConvergenceError(EngineError):
    """An adaptive refinement loop hit its cap before reaching tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class SingularCoefficientError(EngineError):
    """A phase-slope formula was evaluated at a vanishing Bessel factor."""


class PeakNotBracketedError(EngineError):
    """A scan window does not contain a full peak (maximum at an edge, or a
    half-maximum crossing runs off the window)."""


class MultimodalPeakError(EngineError):
    """A scan shows a secondary maximum above half of the global maximum, so
    a single FWHM is not well defined."""


class NoInteriorMinimumError(EngineError):
    """A coarse pulse-duration grid has its minimum at an endpoint."""


class InsufficientSpanError(ValueError):
    """A power-law fit was requested on too few points or too narrow a span."""
