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
        LevelScheme, PolarizationBasis, PolarizationMode, DriveConfig,
        build_generator, steady_state, diffusion_matrix,
        MediumParams, propagate, coherent_input_matrix,
        optical_spectrum, quadrature_noise, amplitude_quadrature_angle,
    )

or drive everything from scenario files via the `zeenoise` CLI.
"""

from .angular import LevelScheme, clebsch_gordan, dipole_component
from .conventions import (
    CONVENTIONS_VERSION,
    QUADRATURE_CONVENTIONS,
    expectation_vector,
    operator_projection,
    unvec,
    vec,
)
from .dynamics import (
    DriveConfig,
    Liouvillian,
    SteadyState,
    build_generator,
    evolve,
    hamiltonian,
    steady_state,
)
from .errors import (
    ArgumentError,
    DegenerateSteadyStateError,
    InternalConsistencyError,
    NumericalError,
    ScenarioError,
    StationarityError,
    ZeenoiseError,
    ZeroCarrierError,
)
from .field import (
    PolarizationBasis,
    PolarizationMode,
    SpectralMatrix,
    coherent_input_matrix,
    excess_noise_input,
)
from .langevin import DiffusionMatrix, diffusion_matrix
from .observables import (
    PeakInfo,
    SpectrumTrace,
    amplitude_quadrature_angle,
    optical_spectrum,
    peak_census,
    quadrature_noise,
    zero_peak_half_width,
)
from .oracles import (
    TwoLevelReference,
    mollow_spectrum,
    qrt_spectrum,
    two_level_reference,
)
from .propagation import (
    MediumParams,
    OutputField,
    atomic_response,
    dephasing,
    propagate,
)
from .runner import compute_point, run_scenario, write_point
from .scenario import (
    GridSpec,
    Scenario,
    SweepSpec,
    load_scenario,
    validate_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CONVENTIONS_VERSION",
    "DegenerateSteadyStateError",
    "DiffusionMatrix",
    "DriveConfig",
    "GridSpec",
    "InternalConsistencyError",
    "LevelScheme",
    "Liouvillian",
    "MediumParams",
    "NumericalError",
    "OutputField",
    "PeakInfo",
    "PolarizationBasis",
    "PolarizationMode",
    "QUADRATURE_CONVENTIONS",
    "Scenario",
    "ScenarioError",
    "SpectralMatrix",
    "SpectrumTrace",
    "StationarityError",
    "SteadyState",
    "SweepSpec",
    "TwoLevelReference",
    "ZeenoiseError",
    "ZeroCarrierError",
    "amplitude_quadrature_angle",
    "atomic_response",
    "build_generator",
    "clebsch_gordan",
    "coherent_input_matrix",
    "compute_point",
    "dephasing",
    "diffusion_matrix",
    "dipole_component",
    "evolve",
    "excess_noise_input",
    "expectation_vector",
    "hamiltonian",
    "load_scenario",
    "mollow_spectrum",
    "operator_projection",
    "optical_spectrum",
    "peak_census",
    "propagate",
    "qrt_spectrum",
    "quadrature_noise",
    "run_scenario",
    "steady_state",
    "two_level_reference",
    "unvec",
    "validate_scenario",
    "vec",
    "write_point",
    "zero_peak_half_width",
]
