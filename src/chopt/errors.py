"""Exception types shared across the package."""


class ChoptError(Exception):
    """Base class for all package-specific errors."""


class DomainViolation(ChoptError):
    """Raised when a singular potential is evaluated outside its domain."""


class ConvergenceFailure(ChoptError):
    """Raised for a non-finite resolvent argument, resolvent sweeps that did not settle, or a
    projection that did not converge or whose output misses the derivative bound."""


class WrongVariant(ChoptError):
    """Raised when an operation is requested for an incompatible potential variant."""


class NonFinite(ChoptError):
    """Raised when a time step produces non-finite values (blow-up)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class BadModeCount(ChoptError):
    """Raised when a mode count lies outside 1..nx*ny, the modes a grid has."""


class NewtonFailure(ChoptError):
    """Raised when the implicit midpoint Newton iteration does not converge."""


class ShapeMismatch(ChoptError):
    """Raised when fields or trajectories live on incompatible grids."""


class ConfigurationError(ChoptError):
    """Raised for invalid option combinations or an output directory that cannot be created."""


class ParseError(ChoptError):
    """Raised when a config file cannot be parsed."""


class ValidationError(ChoptError):
    """Raised when a parsed config violates an invariant.

    Carries the full list of messages so callers can report everything at once.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        super().__init__("; ".join(messages))
        self.messages = list(messages)
