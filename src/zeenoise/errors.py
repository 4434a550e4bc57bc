"""Exception types shared across the package."""


class ZeenoiseError(Exception):
    """Base class for all package errors."""


class ArgumentError(ZeenoiseError, ValueError):
    """Invalid argument (bad quantum numbers, negative rates, ...)."""


class DegenerateSteadyStateError(ZeenoiseError):
    """The generator has a null space of dimension > 1 (no unique steady state)."""

    def __init__(self, dimension, cutoff):
        self.dimension = dimension
        super().__init__(
            f"steady state is not unique: generator null space has "
            f"dimension {dimension} at relative singular-value cutoff {cutoff:g} "
            f"(undriven, dark-state degeneracy, or optical pumping below the cutoff)"
        )


class StationarityError(ZeenoiseError):
    """A state passed as 'steady' is not stationary under the generator."""


class NumericalError(ZeenoiseError):
    """A linear solve failed or lost too much precision."""


class InternalConsistencyError(ZeenoiseError):
    """A quantity that must be real/physical came out otherwise."""


class ZeroCarrierError(ZeenoiseError):
    """Quadrature reference angle requested for a field with zero mean."""


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


# Failures of the computation itself, not of its configuration: the CLI
# reports each with the scenario point it happened at and exits 3.
PHYSICS_ERRORS = (
    DegenerateSteadyStateError,
    StationarityError,
    NumericalError,
    InternalConsistencyError,
    ZeroCarrierError,
)
