"""Thin-medium propagation: atomic fluctuation response and output spectra.

Fourier-transforming the linearized atomic equations gives the fluctuation
response to the Langevin forces through the resolvent R(Omega) =
(-i Omega I - M)^{-1}; the stationary fluctuation kernel is

    C(Omega) = R(Omega) . 2D . R(-Omega)^T,

from which any two-operator fluctuation spectrum FT<dA(t) dB(0)> is the
projection a^T C(Omega) b. `propagate` inverts each resolvent R(+-|Omega|)
once per distinct |Omega| of the grid, and the pair feeds both C(+|Omega|)
and C(-|Omega|). The mean field is taken z-independent across the
(optically thin) sample and back-action of field fluctuations on the atoms
is neglected, so the output spectral matrix is the input plus an atomic term
linear in b0, with no input/force cross terms.

The atomic term is assembled in normally ordered form,

    S11_at(Omega) = k2 * FT<dD+(t) dD(0)>(-Omega)
    S22_at(Omega) = k2 * FT<dD+(t) dD(0)>(+Omega)
    S12_at(Omega) = -k2 * FT<dD (t) dD(0)>(Omega)
    S21_at(Omega) = -k2 * FT<dD+(t) dD+(0)>(Omega),      k2 = b0*gamma/4,

the quadrature form in which squeezing appears as negativity of the added
part while S11 - S22 (the commutator) passes through unchanged. The carrier
is multiplied by exp(i chi) with chi = (b0*gamma/2) <D>/Omega1, which makes
the weak resonant two-level intensity transmission exactly exp(-b0)
(Beer-Lambert anchor) and the dephasing Phi = Re chi exactly linear in b0.
"""

from dataclasses import dataclass

import numpy as np

from .conventions import operator_projection
from .errors import ArgumentError, NumericalError
from .field import SpectralMatrix, excess_noise_input

_POLARIZATION_COMPONENTS = (1, 2)


@dataclass(frozen=True)
class MediumParams:
    """Reduced on-resonance optical density b0 (validity domain b0 <~ 0.5)."""

    b0: float

    def __post_init__(self):
        if self.b0 < 0:
            raise ArgumentError(f"b0 must be >= 0, got {self.b0}")


@dataclass
class OutputField:
    """Carrier amplitude, dephasing, and spectral matrices after the medium."""

    grid: np.ndarray
    carrier: dict          # component -> complex mean amplitude
    phi: dict              # component -> dephasing angle (radians)
    spectra: dict          # component -> SpectralMatrix (arrays over grid)
    atomic: dict           # component -> atomic contribution alone


def _resolvent(drift, omega):
    n2 = drift.shape[0]
    a = -1j * omega * np.eye(n2) - drift
    try:
        r = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"fluctuation resolvent is singular at Omega = {omega!r}"
        ) from exc
    # Omega = 0 hits the steady-state zero mode exactly; the LU solve may
    # then return garbage instead of raising, so screen by conditioning
    cond_proxy = np.linalg.norm(a, np.inf) * np.linalg.norm(r, np.inf)
    if not np.isfinite(cond_proxy) or cond_proxy > 1e12:
        raise NumericalError(
            f"fluctuation resolvent is singular at Omega = {omega!r} "
            "(the zero-frequency response on the steady-state manifold "
            "is undefined; exclude Omega = 0 from the grid)"
        )
    return r


def atomic_response(liouvillian, two_d, omega):
    """Resolvent R(Omega) and fluctuation kernel C(Omega) at one frequency."""
    r_plus = _resolvent(liouvillian.drift, omega)
    r_minus = _resolvent(liouvillian.drift, -omega)
    return r_plus, r_plus @ two_d @ r_minus.T


def propagate(input_matrix, medium, liouvillian, two_d, rho, grid):
    """Push the input field through the thin atomic sample.

    `input_matrix` is the spectral matrix of the driven component (the
    orthogonal input component is always vacuum); `two_d` is the
    force-correlation matrix 2D from `diffusion_matrix` and `rho` the
    steady-state density matrix. Returns an OutputField with per-component
    spectra on `grid`; at b0 = 0 the output equals the input exactly.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ArgumentError("frequency grid is empty")
    scheme = liouvillian.scheme
    drive = liouvillian.drive
    b0 = medium.b0
    k2 = 0.25 * b0 * scheme.gamma

    ops = {c: drive.basis.operator(scheme, c) for c in _POLARIZATION_COMPONENTS}
    proj_low = {c: operator_projection(ops[c]) for c in ops}
    proj_dag = {c: operator_projection(ops[c].conj().T) for c in ops}

    shape = grid.shape
    at = {
        c: [np.zeros(shape, dtype=complex) for _ in range(4)]
        for c in _POLARIZATION_COMPONENTS
    }

    if b0 > 0:
        indices = {}   # |Omega| -> grid indices, grouped in one pass
        for i, w in enumerate(np.abs(grid).tolist()):
            indices.setdefault(w, []).append(i)
        for w in sorted(indices):
            r_plus = _resolvent(liouvillian.drift, w)
            r_minus = _resolvent(liouvillian.drift, -w)
            kernel = {w: r_plus @ two_d @ r_minus.T, -w: r_minus @ two_d @ r_plus.T}
            for i in indices[w]:
                c_plus = kernel[grid[i]]
                c_minus = kernel[-grid[i]]
                for comp in _POLARIZATION_COMPONENTS:
                    lo, dg = proj_low[comp], proj_dag[comp]
                    at[comp][0][i] = k2 * (dg @ c_minus @ lo)   # S11
                    at[comp][1][i] = -k2 * (lo @ c_plus @ lo)   # S12
                    at[comp][2][i] = -k2 * (dg @ c_plus @ dg)   # S21
                    at[comp][3][i] = k2 * (dg @ c_plus @ lo)    # S22

    atomic = {
        c: SpectralMatrix(*(at[c][k] for k in range(4)), grid=grid)
        for c in _POLARIZATION_COMPONENTS
    }
    inputs = {1: input_matrix, 2: excess_noise_input(0.0, 0.0)}
    spectra = {c: inputs[c] + atomic[c] for c in _POLARIZATION_COMPONENTS}

    carrier = {}
    phi = {}
    for comp in _POLARIZATION_COMPONENTS:
        chi = _carrier_susceptibility(rho, ops[comp], drive, b0, scheme)
        carrier[comp] = np.exp(1j * chi) if comp == 1 else 0.0j
        phi[comp] = float(chi.real)

    return OutputField(
        grid=grid,
        carrier=carrier,
        phi=phi,
        spectra=spectra,
        atomic=atomic,
    )


def _carrier_susceptibility(rho, op, drive, b0, scheme):
    if b0 == 0:
        return 0.0j
    if drive.rabi == 0:
        raise ArgumentError("carrier update undefined at zero Rabi frequency")
    mean_dipole = np.trace(rho @ op)
    return 0.5 * b0 * scheme.gamma * mean_dipole / drive.rabi

