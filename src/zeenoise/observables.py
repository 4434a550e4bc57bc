"""Scalar observables extracted from spectral matrices.

The optical (photodetection) spectrum of the transmitted field at offset
Omega from the carrier is the normally ordered entry Re S22 at each grid
point, as computed. It is even in Omega at any detuning, as Mollow's
two-level spectrum is: H and the jump operators are real, so complex
conjugation with the excited states' sign flipped carries S22 at
(-Omega, Delta) onto S22 at (+Omega, -Delta), and the spectrum is even in
Delta. No grid point needs its mirror partner.

A homodyne measurement at quadrature angle theta sees

    S_theta = S11 + S22 + S12 exp(-2 i theta) + S21 exp(+2 i theta),

real by construction (S21 = S12*, S11 and S22 real); shot noise = 1.
"""

import numpy as np

from .errors import NumericalError

_IMAG_TOL = 1e-8


def optical_spectrum(spectral_matrix):
    """Optical spectrum Re S22 at each grid point, as a fresh float array;
    even in Omega (see the module docstring), so each point is read as
    computed."""
    return np.asarray(spectral_matrix.s22).real.astype(float)


def quadrature_noise(spectral_matrix, theta):
    """Homodyne noise spectrum at quadrature angle theta (shot noise = 1),
    as a float array."""
    m = spectral_matrix
    combo = np.asarray(
        m.s11 + m.s22 + m.s12 * np.exp(-2j * theta) + m.s21 * np.exp(+2j * theta),
        dtype=complex,
    )
    if combo.size:
        imag = float(np.max(np.abs(combo.imag)))
        scale = max(1.0, float(np.max(np.abs(combo.real))))
        if not imag <= _IMAG_TOL * scale:  # a NaN fails too
            raise NumericalError(
                "quadrature spectrum has a non-negligible imaginary part "
                f"(max |Im| = {imag:.3e})"
            )
    return combo.real


def amplitude_quadrature_angle(carrier):
    """Angle of the amplitude quadrature: the phase of the mean carrier."""
    carrier = complex(carrier)
    if carrier == 0:
        raise NumericalError(
            "amplitude quadrature is undefined for a vanishing carrier"
        )
    return float(np.angle(carrier))
