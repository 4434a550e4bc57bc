"""Exception types shared across the package."""


class ZeenoiseError(Exception):
    """Base class for all package errors."""


class ArgumentError(ZeenoiseError, ValueError):
    """Invalid argument (bad quantum numbers, negative rates, ...)."""


class NumericalError(ZeenoiseError):
    """Any failure of the computation at a point: no unique steady state, a
    non-stationary state, a failed or ill-conditioned solve, a non-finite or
    unphysical result, a vanishing carrier. The CLI exits 3 on it."""


class ScenarioError(ZeenoiseError):
    """Scenario file cannot be parsed or fails static validation."""

    def __init__(self, message, path=None, section=None, key=None):
        self.path = path
        self.section = section
        self.key = key
        where = ""
        if path is not None:
            where = f"{path}: "
        if section is not None:
            where += f"[{section}] "
        if key is not None:
            where += f"{key}: "
        super().__init__(where + message)
