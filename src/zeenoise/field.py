"""Two-polarization field fluctuation formalism.

The state of each polarization mode is carried as a 2x2 spectral
correlation matrix in the (a, a+) operator ordering,

    S(Omega) = FT [[<da(t)da+(0)>, <da(t)da(0)>],
                   [<da+(t)da+(0)>, <da+(t)da(0)>]],

normalized so a coherent state gives S11 = 1 (shot noise) and all other
entries 0. `observables.quadrature_noise` reads quadrature spectra off it.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .angular import dipole_component
from .errors import ArgumentError


class PolarizationMode(enum.Enum):
    """Driven (e1) and orthogonal (e2) polarization components.

    CIRCULAR: drive on the sigma+ component (quantization axis along the
    wavevector); e1 couples q=+1, e2 couples q=-1.

    LINEAR: drive on the pi component (quantization axis along the drive
    polarization); e1 couples q=0, e2 couples i(d_{-1} - d_{+1})/sqrt(2).
    The +i mode phase fixes the otherwise free quadrature reference of the
    undriven component (see CONVENTIONS.md) and is flagged in run metadata.
    """

    CIRCULAR = "circular"
    LINEAR = "linear"

    def operator(self, scheme, component):
        """Dipole-lowering operator of component 1 (driven) or 2 (orthogonal)."""
        circular = self is PolarizationMode.CIRCULAR
        if component == 1:
            return dipole_component(scheme, +1 if circular else 0).astype(complex)
        if component == 2:
            if circular:
                return dipole_component(scheme, -1).astype(complex)
            return (
                1j
                / np.sqrt(2.0)
                * (dipole_component(scheme, -1) - dipole_component(scheme, +1))
            )
        raise ArgumentError(f"polarization component must be 1 or 2, got {component}")


@dataclass
class SpectralMatrix:
    """Entries of the 2x2 spectral correlation matrix.

    Entries are scalars (frequency-independent inputs) or arrays over a
    frequency grid (pipeline outputs; the grid is `OutputField.grid`).
    """

    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray

    def __add__(self, other):
        return SpectralMatrix(
            self.s11 + other.s11,
            self.s12 + other.s12,
            self.s21 + other.s21,
            self.s22 + other.s22,
        )


def excess_noise_input(eps_a, eps_p):
    """Coherent matrix [[1,0],[0,0]] plus white quadrature excess (eps_a,
    eps_p >= 0); excess_noise_input(0, 0) is the coherent-state input."""
    for key, value in (("eps_a", eps_a), ("eps_p", eps_p)):
        if value < 0:
            raise ArgumentError(f"{key} must be >= 0, got {value}")
    s = (eps_a + eps_p) / 4.0
    if not np.isfinite(s):
        raise ArgumentError(f"eps_a + eps_p must be finite, got {eps_a} + {eps_p}")
    d = (eps_a - eps_p) / 4.0
    return SpectralMatrix(1.0 + s + 0j, d + 0j, d + 0j, s + 0j)
