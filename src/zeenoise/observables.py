"""Scalar observables extracted from spectral matrices.

The optical (photodetection) spectrum of the transmitted field at offset
Omega from the carrier is the normally ordered entry Re S22 taken at |Omega|.
A homodyne measurement at quadrature angle theta sees

    S_theta = S11 + S22 + S12 exp(-2 i theta) + S21 exp(+2 i theta),

real by construction (S21 = S12*, S11 and S22 real); shot noise = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InternalConsistencyError, ZeroCarrierError

_IMAG_TOL = 1e-8


@dataclass
class SpectrumTrace:
    """Real-valued spectrum sampled on a frequency grid (units of gamma)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.shape != self.values.shape:
            raise ArgumentError("grid and values must have matching shapes")


def optical_spectrum(spectral_matrix):
    """Optical spectrum Re S22 evaluated at |Omega| for each grid point.

    Negative grid entries are mirrored onto the matching positive entry when
    one exists (the measured spectrum is a function of the absolute offset).
    """
    grid = np.asarray(spectral_matrix.grid, dtype=float)
    vals = np.real(np.asarray(spectral_matrix.s22, dtype=complex)).copy()
    vals = np.broadcast_to(vals, grid.shape).copy()
    neg = np.nonzero(grid < 0)[0]
    target = -grid[neg]
    order = np.argsort(grid, kind="stable")
    ordered = grid[order]
    # nearest neighbour of each target on either side; among equal
    # distances the lowest grid index wins, as np.argmin would pick
    right = np.minimum(np.searchsorted(ordered, target), grid.size - 1)
    left = np.maximum(right - 1, 0)
    left = np.searchsorted(ordered, ordered[left])  # first of its run
    cand = np.stack((order[left], order[right]))
    dist = np.abs(grid[cand] - target)
    best = dist.min(axis=0)
    j = np.where(dist == best, cand, grid.size).min(axis=0)
    hit = np.isclose(grid[j], target, rtol=1e-9, atol=1e-300)
    vals[neg[hit]] = vals[j[hit]]
    return SpectrumTrace(grid=grid, values=vals)


def quadrature_noise(spectral_matrix, theta):
    """Homodyne noise spectrum at quadrature angle theta (shot noise = 1)."""
    m = spectral_matrix
    combo = np.asarray(
        m.s11 + m.s22 + m.s12 * np.exp(-2j * theta) + m.s21 * np.exp(+2j * theta),
        dtype=complex,
    )
    if combo.size:
        imag = float(np.max(np.abs(combo.imag)))
        scale = max(1.0, float(np.max(np.abs(combo.real))))
        if not imag <= _IMAG_TOL * scale:  # a NaN fails too
            raise InternalConsistencyError(
                "quadrature spectrum has a non-negligible imaginary part "
                f"(max |Im| = {imag:.3e})"
            )
    grid = m.grid
    if grid is None:
        grid = np.zeros(np.shape(combo.real))
    return SpectrumTrace(grid=np.asarray(grid, dtype=float), values=combo.real)


def amplitude_quadrature_angle(carrier):
    """Angle of the amplitude quadrature: the phase of the mean carrier."""
    carrier = complex(carrier)
    if carrier == 0:
        raise ZeroCarrierError(
            "amplitude quadrature is undefined for a vanishing carrier"
        )
    return float(np.angle(carrier))
