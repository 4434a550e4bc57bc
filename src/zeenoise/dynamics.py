"""Optical Bloch generator for the driven degenerate transition.

Works in the frame rotating at the laser frequency, rotating-wave
approximation, with the Hamiltonian

    H = -Delta * P_excited - (Omega1/2) * (D1 + D1+)

(Delta = laser minus atomic frequency, D1 the driven dipole-lowering
combination) and relaxation through the three spherical jump channels
d_q, q in {-1, 0, +1}, with every rate in units of the decay rate gamma = 1.

Two representations of the same dynamics are built independently:

- `generator` G: d vec(rho)/dt = G vec(rho), assembled from Kronecker
  products (column-major vec, see conventions module);
- `drift` M: d<sigma>/dt = M <sigma> for the expectation vector
  s[a + n*b] = <sigma_ab>, assembled in one broadcast from the adjoint
  (Heisenberg) action on every basis operator.

Their mutual consistency under the trace pairing is a tested invariant,
not an assumption.

Each is summed term by term into one accumulator, in place, with the
same floating-point operations in the same order as its written sum, so
the bits equal those of the expression while only one dense term lives
beside the accumulator. Building both at F = 4->5 peaks at about 3.1
dense n^2 x n^2 complex arrays: G, M and one complex adjoint term.
"""

from dataclasses import dataclass

import numpy as np

from .angular import dipole_component
from .conventions import unvec, vec
from .errors import ArgumentError, NumericalError
from .field import PolarizationMode

_NULL_SPACE_CUTOFF = 1e-9
# Largest max |G vec(rho)| a state may leave and still count as steady.
STATIONARITY_TOL = 1e-8


@dataclass(frozen=True)
class DriveConfig:
    """Drive parameters: polarization geometry, Rabi frequency, detuning.

    All rates in units of the decay rate gamma. Omega1 is defined through the
    reduced dipole matrix element, so the stretched two-level coupling at
    CIRCULAR drive is exactly Omega1 (unit Clebsch-Gordan coefficient).
    Omega1 = 0 is accepted at construction; a unique steady state then does
    not exist and steady_state raises.
    """

    basis: PolarizationMode
    rabi: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.rabi < 0:
            raise ArgumentError(f"rabi must be >= 0, got {self.rabi}")


@dataclass(frozen=True)
class Liouvillian:
    generator: np.ndarray  # G, acts on vec(rho)
    drift: np.ndarray      # M, acts on <sigma_ab> expectation vector
    scheme: object
    drive: DriveConfig

    @property
    def n(self):
        return self.scheme.n


def hamiltonian(scheme, drive):
    d1 = drive.basis.operator(scheme, 1)
    h = -drive.detuning * scheme.excited_projector().astype(complex)
    h -= 0.5 * drive.rabi * (d1 + d1.conj().T)
    return h


def _adjoint_rows(x, y):
    """T[b, a, j, i] = x[a, i] * y[b, j]: the image of |a><b| at entry [i, j]."""
    return np.einsum("ai,bj->baji", x, y, order="C")


def _generator(h, jumps):
    """G = -1j (I x h - h^T x I) + sum_c (c x c - 0.5 I x cdc
    - 0.5 cdc^T x I), x the Kronecker product, cdc = c^T c (c real, so
    conj(c) = c)."""
    eye = np.eye(len(h))
    g = np.kron(eye, h)
    # np.kron copies its n^2 x n^2 product again to reshape it when a
    # factor is not C-ordered, so a transposed factor is copied first.
    g -= np.kron(h.T.copy(), eye)
    g *= -1j
    for c in jumps:
        cdc = c.T @ c
        t = np.kron(c, c)
        t -= 0.5 * np.kron(eye, cdc)
        t -= 0.5 * np.kron(cdc.T.copy(), eye)
        g += t
    return g


def _drift(h, jumps):
    """M = 1j (T(h^T, I) - T(I, h)) + sum_c (T(c, c)
    - 0.5 (T(cdc^T, I) + T(I, cdc))), T = _adjoint_rows.

    Row a + n*b of M is the adjoint action on |a><b|, flattened
    column-major: X|a><b| = X[:, a]<b|, |a><b|X = |a>X[b, :] and
    c^T|a><b|c = c[a, :]^T c[b, :], so every term is one outer product.
    """
    n = len(h)
    eye = np.eye(n)
    lx = _adjoint_rows(h.T, eye)
    lx -= _adjoint_rows(eye, h)
    lx *= 1j
    for c in jumps:
        cdc = c.T @ c
        t = _adjoint_rows(cdc.T, eye)
        t += _adjoint_rows(eye, cdc)
        t *= 0.5
        np.subtract(_adjoint_rows(c, c), t, out=t)
        lx += t
    return lx.reshape(n * n, n * n)  # a view: M[a + n*b, i + n*j] = T[b, a, j, i]


def build_generator(scheme, drive):
    """Assemble the Liouvillian (G and M) for a scheme and drive."""
    if not isinstance(drive.basis, PolarizationMode):
        raise ArgumentError("drive.basis must be a PolarizationMode")
    h = hamiltonian(scheme, drive)
    jumps = [dipole_component(scheme, q) for q in (-1, 0, +1)]
    return Liouvillian(
        generator=_generator(h, jumps),
        drift=_drift(h, jumps),
        scheme=scheme,
        drive=drive,
    )


def coherence_blocks(scheme, polarization):
    """Coherence-order label m_a - m_b of every vec index a + n*b.

    For CIRCULAR drive each excited m is shifted by -1 first, so the driven
    sigma+ coupling joins equal labels. G and M have no entry between two
    different labels, so each label indexes one diagonal block of both; a
    block may still split into several connected components.
    """
    two_m = np.r_[np.arange(-scheme.two_fg, scheme.two_fg + 1, 2),
                  np.arange(-scheme.two_fe, scheme.two_fe + 1, 2)]
    if polarization is PolarizationMode.CIRCULAR:
        two_m[scheme.n_ground:] -= 2
    return vec(np.subtract.outer(two_m, two_m)) // 2


def steady_state(liouvillian):
    """Steady-state density matrix rho: the unique trace-1 Hermitian null
    vector of the generator, returned as an n x n complex array.

    Raises NumericalError when the null space has dimension other than one
    (for example Omega1 = 0, or a detuning so far that the optical-pumping
    rates fall below the relative singular-value cutoff), or when the solve
    fails in LAPACK or leaves max |G vec(rho)| above STATIONARITY_TOL.
    """
    g = liouvillian.generator
    n = liouvillian.n
    labels = coherence_blocks(liouvillian.scheme, liouvillian.drive.basis)
    blocks = [np.flatnonzero(labels == label) for label in set(labels.tolist())]
    try:
        # G is block-diagonal in the labels: its singular values are the blocks'
        svals = np.concatenate(
            [np.linalg.svd(g[np.ix_(b, b)], compute_uv=False) for b in blocks]
        )
        # At G = 0 every singular value is 0 and all n^2 directions count
        null_dim = int(np.sum(svals <= _NULL_SPACE_CUTOFF * svals.max()))
        if null_dim != 1:
            raise NumericalError(
                f"steady state is not unique: generator null space has "
                f"dimension {null_dim} at relative singular-value cutoff "
                f"{_NULL_SPACE_CUTOFF:g} (undriven, dark-state degeneracy, or "
                f"optical pumping below the cutoff)"
            )

        trace_row = vec(np.eye(n)).reshape(1, -1)
        stacked = np.vstack([g, trace_row])
        rhs = np.zeros(n * n + 1, dtype=complex)
        rhs[-1] = 1.0
        sol = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"steady-state solve failed: {exc}") from exc

    rho = unvec(sol)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    residual = np.abs(g @ vec(rho)).max()
    if residual > STATIONARITY_TOL:
        raise NumericalError(f"steady-state residual {residual:.2e} too large")
    return rho
