"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
violated method hypotheses exit 3, numerical faults exit 4.
"""

__all__ = [
    "NashseekError",
    "ConfigError",
    "MonotonicityError",
    "IllConditionedGameError",
    "ConnectivityError",
    "SymmetryError",
    "SingularTransformError",
    "ModeOrderError",
    "ConvergenceError",
    "IntegrationError",
]


class NashseekError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NashseekError):
    """A scenario file or parameter set could not be parsed or validated."""


class MonotonicityError(NashseekError):
    """The game's pseudo-gradient is not strongly monotone (modulus <= 0)."""

    def __init__(self, modulus: float):
        self.modulus = modulus
        super().__init__(
            f"game is not strongly monotone: modulus {modulus:.6g} <= 0; "
            "a unique Nash equilibrium is not guaranteed"
        )


class IllConditionedGameError(NashseekError):
    """The gradient Jacobian is numerically singular."""

    def __init__(self, condition: float):
        self.condition = condition
        super().__init__(
            f"gradient Jacobian is numerically singular (condition estimate "
            f"{condition:.3e}); cannot solve for the equilibrium"
        )


class ConnectivityError(NashseekError):
    """The communication digraph is not strongly connected."""


class SymmetryError(NashseekError):
    """An undirected-mode run was given an asymmetric weight matrix."""


class SingularTransformError(NashseekError):
    """The coordinate change for a player overflowed double precision."""

    def __init__(self, order: int, theta: float):
        self.order = order
        self.theta = theta
        super().__init__(
            f"coordinate change is not representable in double precision for "
            f"order {order}, theta {theta:.6g}"
        )


class ModeOrderError(NashseekError):
    """A seeker mode was combined with an incompatible player order or form."""


class ConvergenceError(NashseekError):
    """An iterative solver ran out of iterations, or could not start converging."""

    def __init__(self, residual: float, iterations: int, message: str | None = None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            message
            or f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class IntegrationError(NashseekError):
    """The ODE state or derivative stopped being finite."""

    def __init__(self, message: str, time: float | None = None, component: int | None = None):
        self.time = time
        self.component = component
        super().__init__(message)
