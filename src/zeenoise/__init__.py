"""zeenoise: quantum noise of laser light crossing a dilute atomic cloud.

Simulates the fluctuation (noise) spectra and optical spectra of a laser
beam transmitted through an optically thin sample of atoms with a
Zeeman-degenerate ground level, driven on a Fg -> Fe transition. Both
field polarization components (driven and orthogonal) are propagated,
including optional laser excess noise, and an effective two-level
configuration (circular drive) can be contrasted with the full multilevel
response (linear drive).

Typical use:

    from zeenoise import (
        LevelScheme, PolarizationMode, DriveConfig,
        build_generator, steady_state, diffusion_matrix, excess_noise_input,
        MediumParams, propagate, optical_spectrum, quadrature_noise,
        amplitude_quadrature_angle,
    )

or drive everything from scenario files, through `load_scenario`,
`validate_scenario` and `run_scenario` or the `zeenoise` CLI. The package
also exports its error classes and CONVENTIONS_VERSION; every other name
lives in its own module. numpy is the only runtime dependency.
"""

from .angular import LevelScheme
from .conventions import CONVENTIONS_VERSION
from .dynamics import DriveConfig, build_generator, steady_state
from .errors import (
    ArgumentError,
    NumericalError,
    ScenarioError,
    ZeenoiseError,
)
from .field import PolarizationMode, excess_noise_input
from .langevin import diffusion_matrix
from .observables import (
    amplitude_quadrature_angle,
    optical_spectrum,
    quadrature_noise,
)
from .propagation import MediumParams, propagate
from .runner import run_scenario
from .scenario import load_scenario, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CONVENTIONS_VERSION",
    "DriveConfig",
    "LevelScheme",
    "MediumParams",
    "NumericalError",
    "PolarizationMode",
    "ScenarioError",
    "ZeenoiseError",
    "amplitude_quadrature_angle",
    "build_generator",
    "diffusion_matrix",
    "excess_noise_input",
    "load_scenario",
    "optical_spectrum",
    "propagate",
    "quadrature_noise",
    "run_scenario",
    "steady_state",
    "validate_scenario",
]
