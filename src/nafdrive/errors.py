"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration value (bad dimensions, missing field, ...)."""


class ContractError(ValueError):
    """A call violated an operation precondition (shape mismatch, stale cache)."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where finite arithmetic is required."""


class SimulationFault(RuntimeError):
    """Physical inconsistency in the simulated world.  Nothing in the package
    raises it: `World.step` logs faults in `StepResult.faults` and
    `World.fault_log`.  It stays while the benchmark's runner imports it."""
