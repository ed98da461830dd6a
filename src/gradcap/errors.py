"""Exception types shared across the solver and simulation modules."""


class GradcapError(Exception):
    """Base class for all library errors."""


class SpacingTooCoarse(GradcapError):
    """Grid spacing leaves fewer than 3 interior nodes on some axis."""


class GridMismatch(GradcapError):
    """Fields or coefficients live on different grids."""


class DivergentMeasure(GradcapError):
    """Jump measure violates the bounded-variation requirement (alpha >= 1)."""


class InvalidCutoffs(GradcapError):
    """The small-jump cutoff delta is not positive."""


class EllipticityViolation(GradcapError):
    """Assembled stencil loses diagonal dominance (cross terms too strong)."""


class SingularSystem(GradcapError):
    """Linear Dirichlet system could not be factorized."""


class MaxIterationsExceeded(GradcapError):
    """Nonlinear iteration stopped unconverged; best iterate attached.

    `reason` says why: "max_iter" (iteration cap), "line_search_failed"
    (no step length passed the line search) or "singular_split" (a Newton
    matrix was exactly singular).
    """

    def __init__(self, message, report=None, reason="max_iter"):
        super().__init__(message)
        self.report = report
        self.reason = reason


class BoundViolation(GradcapError):
    """Solution left the [0, C1] sandwich beyond tolerance."""


class MonotonicityViolation(GradcapError):
    """Successive eps-solutions increased beyond the monotonicity slack."""


class NotApplicable(GradcapError):
    """Comparison premise (super/sub-solution inequality) fails at a node."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class StartOutsideDomain(GradcapError):
    """Simulation start point is not inside the open domain."""


class NotSimulable(GradcapError, ValueError):
    """The simulator cannot step the process the problem generates;
    `coefficient` names the coefficient at fault: "a", "c" or "s"."""

    def __init__(self, coefficient, message):
        super().__init__(message)
        self.coefficient = coefficient


class PushOutsideAdmissible(GradcapError):
    """A discrete push was scheduled at a Levy jump time."""


class ConfigError(GradcapError):
    """Base class for configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Config file is not valid JSON."""


class ValidationError(ConfigError):
    """Config parsed but violates a declared assumption; carries field path."""

    def __init__(self, field_path, message):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path
