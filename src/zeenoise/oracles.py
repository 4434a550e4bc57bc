"""Independent reference spectra behind the oracle columns of `zeenoise run`.

Both are computed by a different route than the production code: the
resonance-fluorescence spectrum comes from a hand-written 3-variable
Bloch-equation regression (not the vectorized drift/diffusion machinery),
and the regression spectrum works directly on the master-equation
generator G (never on the drift M or the diffusion matrix 2D), solved one
coherence-order block of G at a time in stacks of at most _CHUNK
frequencies. The closed-form two-level steady state that the tests compare
against lives with them, in tests/helpers.py.
"""

import numpy as np

from .conventions import vec
from .dynamics import coherence_blocks
from .errors import ArgumentError, NumericalError

# Distinct frequencies per stacked block solve of qrt_spectrum. The bound
# keeps the (k, b, b) stack small however long the grid is: one stack for a
# whole 400-point grid raised a fig2 run's peak RSS by 2 MB, while 32 keeps
# it flat and solves as fast as 64.
_CHUNK = 32


def _bloch_matrix(rabi, detuning):
    """Drift of (<s->, <s+>, <p>) for a driven two-level atom, gamma = 1."""
    return np.array(
        [
            [1j * detuning - 0.5, 0.0, -1j * rabi],
            [0.0, -1j * detuning - 0.5, 1j * rabi],
            [-1j * rabi / 2, 1j * rabi / 2, -1.0],
        ],
        dtype=complex,
    )


def mollow_spectrum(omega, rabi, detuning=0.0):
    """Inelastic fluorescence (Mollow) spectrum of a driven two-level atom.

    Two-sided in `omega`; its integral over omega/(2 pi) equals the
    incoherently scattered population p - |<s->|^2. Computed from the
    regression theorem applied to the 3-variable Bloch system.
    """
    if rabi <= 0:
        raise ArgumentError("rabi must be positive")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    a = _bloch_matrix(rabi, detuning)
    b = np.array([1j * rabi / 2, -1j * rabi / 2, 0.0], dtype=complex)
    eye = np.eye(3)
    w = omega[..., None, None]  # one 3x3 system per entry, solved as a stack
    # seeds as (3, 1) columns with the stack's number of axes: numpy < 2
    # reads a right-hand side one axis short of the stack as vectors
    col = (1,) * omega.ndim + (3, 1)
    try:
        s_minus, s_plus, p = np.linalg.solve(a, -b)
        # regression seeds for <ds+(t) ds-(0)> (g) and its conjugate branch (h)
        g0 = np.array(
            [-s_minus**2, p - s_plus * s_minus, -p * s_minus], dtype=complex
        )
        h0 = np.array(
            [p - s_plus * s_minus, -s_plus**2, -s_plus * p], dtype=complex
        )
        forward = np.linalg.solve(-1j * w * eye - a, g0.reshape(col))[..., 1, 0]
        backward = np.linalg.solve(1j * w * eye - a, h0.reshape(col))[..., 0, 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Mollow spectrum solve failed: {exc}") from exc
    return (forward + backward).real


def qrt_spectrum(liouvillian, rho, a_op, b_op, omega):
    """One-sided regression spectrum int_0^inf dt e^{i w t} <dA(t) dB(0)>.

    Works directly on the master-equation generator G from the steady-state
    density matrix `rho`; for the Hermitian pair (A, B) = (X+, X-) the
    physical two-sided spectrum is 2 Re of this. Returns a complex array
    over `omega`.

    G has no entry between two coherence orders (`coherence_blocks`), so
    the regression solve (-i w I - G) x = vec(B rho - <B> rho) splits into
    one solve per block, and only the blocks where both the seed and
    vec(A^T) are nonzero reach Tr(A unvec(x)) = vec(A^T) . x. Each block is
    solved for every distinct value of `omega` once, in stacks of at most
    _CHUNK frequencies, which bounds the memory the stacks take.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    distinct, inverse = np.unique(omega, return_inverse=True)
    if np.any(distinct == 0.0):
        # the generator's steady-state zero mode makes the solve
        # exactly singular; the LU factorization would hand back an
        # arbitrary null-space admixture rather than raising
        raise NumericalError(
            "regression solve is singular at Omega = 0; "
            "exclude zero from the frequency grid"
        )
    gen = liouvillian.generator
    seed = vec(b_op @ rho - np.trace(b_op @ rho) * rho)
    proj = vec(a_op.T)
    labels = coherence_blocks(liouvillian.scheme, liouvillian.drive.basis)
    out = np.zeros(distinct.shape, dtype=complex)
    # sets, not np.intersect1d, which imports numpy.ma (+1.1 MB peak RSS)
    for label in sorted(set(labels[seed != 0]) & set(labels[proj != 0])):
        idx = np.flatnonzero(labels == label)
        eye = np.eye(len(idx))
        gen_blk = gen[np.ix_(idx, idx)]
        for start in range(0, len(distinct), _CHUNK):
            w = distinct[start:start + _CHUNK]
            try:
                # a (1, b, 1) column, as in mollow_spectrum
                sol = np.linalg.solve(
                    -1j * w[:, None, None] * eye - gen_blk,
                    seed[None, idx, None],
                )[..., 0]
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    "regression solve is singular at an Omega in "
                    f"[{float(w[0])!r}, {float(w[-1])!r}]"
                ) from exc
            out[start:start + _CHUNK] += sol @ proj[idx]
    return out[inverse.reshape(omega.shape)]
