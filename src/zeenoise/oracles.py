"""Independent reference results used to cross-check the main pipeline.

Everything here is computed by a different route than the production code:
the resonance-fluorescence spectrum comes from a hand-written 3-variable
Bloch-equation regression (not the vectorized drift/diffusion machinery),
the regression spectrum works directly on the master-equation generator, and
the two-level steady state is closed-form.
"""

from collections import namedtuple

import numpy as np

from .conventions import unvec, vec
from .errors import ArgumentError, NumericalError


def _bloch_matrix(rabi, detuning, gamma):
    """Drift of (<s->, <s+>, <p>) for a driven two-level atom."""
    return np.array(
        [
            [1j * detuning - gamma / 2, 0.0, -1j * rabi],
            [0.0, -1j * detuning - gamma / 2, 1j * rabi],
            [-1j * rabi / 2, 1j * rabi / 2, -gamma],
        ],
        dtype=complex,
    )


def mollow_spectrum(omega, rabi, detuning=0.0, gamma=1.0):
    """Inelastic fluorescence (Mollow) spectrum of a driven two-level atom.

    Two-sided in `omega`; its integral over omega/(2 pi) equals the
    incoherently scattered population p - |<s->|^2. Computed from the
    regression theorem applied to the 3-variable Bloch system.
    """
    if rabi <= 0 or gamma <= 0:
        raise ArgumentError("rabi and gamma must be positive")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    a = _bloch_matrix(rabi, detuning, gamma)
    b = np.array([1j * rabi / 2, -1j * rabi / 2, 0.0], dtype=complex)
    s_minus, s_plus, p = np.linalg.solve(a, -b)

    # regression seeds for <ds+(t) ds-(0)> (g) and its conjugate branch (h)
    g0 = np.array(
        [-s_minus**2, p - s_plus * s_minus, -p * s_minus], dtype=complex
    )
    h0 = np.array(
        [p - s_plus * s_minus, -s_plus**2, -s_plus * p], dtype=complex
    )
    eye = np.eye(3)
    out = np.empty(omega.shape, dtype=float)
    for i, w in enumerate(omega):
        forward = np.linalg.solve(-1j * w * eye - a, g0)[1]
        backward = np.linalg.solve(1j * w * eye - a, h0)[0]
        out[i] = (forward + backward).real
    return out


def qrt_spectrum(liouvillian, rho, a_op, b_op, omega):
    """One-sided regression spectrum int_0^inf dt e^{i w t} <dA(t) dB(0)>.

    Works directly on the master-equation generator from the steady-state
    density matrix `rho`; for the Hermitian pair (A, B) = (X+, X-) the
    physical two-sided spectrum is 2 Re of this. Returns a complex array
    over `omega`; a value repeated in `omega` is solved once.
    """
    gen = liouvillian.generator
    n2 = gen.shape[0]
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    mean_b = np.trace(b_op @ rho)
    seed = vec(b_op @ rho - mean_b * rho)
    eye = np.eye(n2)
    distinct, inverse = np.unique(omega, return_inverse=True)
    out = np.empty(distinct.shape, dtype=complex)
    for i, w in enumerate(distinct):
        if w == 0.0:
            # the generator's steady-state zero mode makes the solve
            # exactly singular; the LU factorization would hand back an
            # arbitrary null-space admixture rather than raising
            raise NumericalError(
                "regression solve is singular at Omega = 0; "
                "exclude zero from the frequency grid"
            )
        try:
            sol = np.linalg.solve(-1j * w * eye - gen, seed)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"regression solve is singular at Omega = {w!r}"
            ) from exc
        out[i] = np.trace(a_op @ unvec(sol))
    return out[inverse.reshape(omega.shape)]


TwoLevelReference = namedtuple(
    "TwoLevelReference", ["excited_population", "coherence", "susceptibility"]
)


def two_level_reference(rabi, detuning=0.0, gamma=1.0):
    """Closed-form steady state of a driven two-level atom.

    excited_population: saturation formula (1/3 at rabi = gamma on
    resonance); coherence: steady <s->; susceptibility: the weak-drive
    normalized linear response i(gamma/2)/(gamma/2 - i detuning), whose real
    and imaginary parts are in ratio -2 detuning / gamma.
    """
    if gamma <= 0:
        raise ArgumentError("gamma must be positive")
    half = gamma / 2
    denom = detuning**2 + half**2 + rabi**2 / 2
    p = (rabi**2 / 4) / denom
    lorentz = detuning**2 + half**2
    coherence = -1j * (rabi / 2) * (2 * p - 1) * (half + 1j * detuning) / lorentz
    susceptibility = 1j * half / (half - 1j * detuning)
    return TwoLevelReference(
        excited_population=float(p),
        coherence=complex(coherence),
        susceptibility=complex(susceptibility),
    )
