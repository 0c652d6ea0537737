"""Exception types shared across the simulator and planner."""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


class UnsatisfiableError(ConfigurationError):
    """No parameter value can meet the requested target."""


class ProtocolError(RuntimeError):
    """The simulated protocol went out of step."""


class DesynchronizationError(ProtocolError):
    """A herald pulse arrived before the previous cycle's work finished."""
