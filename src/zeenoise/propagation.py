"""Thin-medium propagation: atomic fluctuation response and output spectra.

Fourier-transforming the linearized atomic equations gives the fluctuation
response to the Langevin forces through the resolvent R(Omega) =
(-i Omega I - M)^{-1}; the stationary fluctuation kernel is

    C(Omega) = R(Omega) . 2D . R(-Omega)^T,

from which any two-operator fluctuation spectrum FT<dA(t) dB(0)> is the
projection a^T C(Omega) b. None of this depends on b0 or on the input
noise, so an `Atoms` holds it for one transition, drive and grid, with M
and 2D kept as their nonzero entries (1 % and 11 % at F=4->5) and rebuilt
per |Omega| in one scratch matrix. It solves its `correlations` on first
use in one pass over the distinct |Omega| of the grid. Each step inverts
R(+|Omega|) in full and takes its mirror

    R(-|Omega|) = P . conj(R(+|Omega|)) . P,

with P the permutation a + n*b <-> b + n*a, taken as one conjugating copy
of R(+|Omega|) viewed as n x n x n x n with both index pairs swapped. The
mirror is exact: H is real symmetric and the decay terms are real, so
conj(M) = P M P and i w I - M = P conj(-i w I - M) P hold bit for bit, and
the conditioning screen and singular-matrix check on R(+|Omega|) also
cover R(-|Omega|). The pair gives C(+|Omega|), then C(-|Omega|), each
formed only on the rows S where a vectorized dipole operator is nonzero
(114 of 1600 at F=9->10 linear), each the same BLAS row of
(R . 2D) . R^T as in the full product. With x = (dg1, lo1, dg2, lo2)
stacking dg and lo of both polarization components (lo and dg the
vectorized dipole lowering operator and its adjoint), one small product
x[:, S] . C[S, :] . x^T holds all 16 projections x_i^T C x_j of each sign,
and every grid point reads its 4 x 4 pair at +-Omega by its |Omega| and
sign. No n^2 x n^2 kernel array is formed.
Against a second inversion at -|Omega| the mirror moves the preset tables
by at most 5e-12 of a column maximum, inside the 1e-10 reference gate;
reordering the products that form C[S, :] instead pushes fig2's
lowest-Omega rows past that gate, so their operand order stays.
`propagate` then makes one output field from an `Atoms` per b0 and input
matrix, and reads the correlations only at b0 > 0. The mean field is
taken z-independent across the (optically thin) sample and back-action of
field fluctuations on the atoms is neglected, so the output spectral
matrix is the input plus an atomic term linear in b0, with no input/force
cross terms.

`propagate` alone maps the projections onto the atomic term, with k2 =
b0/4 and dg and lo those of the component's own dipole D, normally ordered,

    S11_at(Omega) =  k2 * dg^T C(-Omega) lo = k2 * FT<dD+(t) dD(0)>(-Omega)
    S22_at(Omega) =  k2 * dg^T C(+Omega) lo = k2 * FT<dD+(t) dD(0)>(+Omega)
    S12_at(Omega) = -k2 * lo^T C(Omega) lo  = -k2 * FT<dD (t) dD(0)>(Omega)
    S21_at(Omega) = -k2 * dg^T C(Omega) dg  = -k2 * FT<dD+(t) dD+(0)>(Omega),

the quadrature form in which squeezing appears as negativity of the added
part while S11 - S22 (the commutator) passes through unchanged. The carrier
is multiplied by exp(i chi) with chi = (b0/2) <D>/Omega1, which makes
the weak resonant two-level intensity transmission exactly exp(-b0)
(Beer-Lambert anchor) and the dephasing Phi = Re chi exactly linear in b0.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conventions import vec
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

    def atomic_scale(self):
        """k2 = b0 / 4, the scale of the atomic term (and oracles)."""
        return 0.25 * self.b0


@dataclass
class OutputField:
    """Carrier amplitude, dephasing, and spectral matrices after the medium."""

    grid: np.ndarray
    carrier: dict          # component -> complex mean amplitude
    phi: dict              # component -> dephasing angle (radians)
    spectra: dict          # component -> SpectralMatrix (arrays over grid)


def _pairs(x):
    """(flat index, value) of each entry of C-ordered x not bitwise +0.0."""
    flat = x.reshape(-1)
    index = np.flatnonzero((flat != 0) | np.signbit(flat.real) | np.signbit(flat.imag))
    return index, flat[index]


def _shift(a, omega):
    """-i omega I - M in place from a = 0.0 - M (-M's -0.0 move bits of R)."""
    a.reshape(-1)[:: a.shape[0] + 1] -= 1j * omega
    return a


def _resolvent(a, omega):
    """R(omega) = a^-1 for an already formed a = -i omega I - M."""
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
    r_plus = _resolvent(_shift(np.subtract(0.0, liouvillian.drift), omega), omega)
    r_minus = _resolvent(_shift(np.subtract(0.0, liouvillian.drift), -omega), -omega)
    return r_plus, r_plus @ two_d @ r_minus.T


class Atoms:
    """The b0-free response of one transition and drive on one grid.

    `liouvillian`, `rho` and `two_d` are the outputs of `build_generator`,
    `steady_state` and `diffusion_matrix`; of M and 2D it keeps only the
    `_pairs` of 0.0 - M and of 2D. `operators` maps each polarization
    component to its dipole lowering operator. The correlations are solved
    on first use, so a b0 = 0 point inverts no resolvent; otherwise one
    pass inverts one R(+|Omega|) per distinct |Omega|, forms the support
    rows of C(+-|Omega|) and keeps their 16 dipole projections, taken from
    one small product (see the module docstring).
    """

    def __init__(self, liouvillian, rho, two_d, grid):
        self.grid = np.atleast_1d(np.asarray(grid, dtype=float))
        if self.grid.size == 0:
            raise ArgumentError("frequency grid is empty")
        self.minus_drift_pairs = _pairs(np.subtract(0.0, liouvillian.drift))
        self.two_d_pairs = _pairs(two_d.T)  # in 2D's column-major order
        self.scheme, self.drive = liouvillian.scheme, liouvillian.drive
        self.rho = rho
        self.operators = {
            c: self.drive.basis.operator(self.scheme, c)
            for c in _POLARIZATION_COMPONENTS
        }

    @cached_property
    def correlations(self):
        """(at, mirrored): complex (grid, 4, 4) arrays, at[w, i, j] =
        x_i^T C(Omega_w) x_j and mirrored the same at -Omega_w, with x =
        (dg1, lo1, dg2, lo2) as in the module docstring. forms[sign, k] is
        x[:, S] @ C[S, :] @ x.T with S the dipole support, for
        C(+distinct[k]) at sign 0 and C(-distinct[k]) at 1."""
        grid = self.grid
        x = np.stack([vec(v) for op in self.operators.values()
                      for v in (op.conj().T, op)])  # dg1, lo1, dg2, lo2
        support = np.flatnonzero(np.abs(x).sum(axis=0))
        n = self.scheme.n
        scratch = np.zeros((n * n, n * n), dtype=complex)  # -i w I - M, then 2D
        two_d = scratch.T  # column-major, as diffusion_matrix builds 2D
        distinct, where = np.unique(np.abs(grid), return_inverse=True)
        forms = np.empty((2, distinct.size, len(x), len(x)), dtype=complex)
        for k, w in enumerate(distinct.tolist()):
            scratch.fill(0.0)
            scratch.put(*self.minus_drift_pairs)
            r_plus = _resolvent(_shift(scratch, w), w)
            scratch.fill(0.0)
            scratch.put(*self.two_d_pairs)
            swapped = r_plus.reshape(n, n, n, n).transpose(1, 0, 3, 2)  # P R(w) P
            r_minus = np.conjugate(swapped, order="C").reshape(r_plus.shape)
            for sign, (left, right) in enumerate(((r_plus, r_minus), (r_minus, r_plus))):
                kernel = left[support] @ two_d @ right.T  # C(+-w)[S, :]
                forms[sign, k] = x[:, support] @ kernel @ x.T
            del r_plus, r_minus, swapped, left, right, kernel  # freed before inverting
        plus = (grid < 0).astype(int)  # sign index of C(Omega); C(-Omega) has 1 - plus
        return forms[plus, where], forms[1 - plus, where]


def propagate(input_matrix, medium, atoms):
    """Push the input field through the thin atomic sample.

    `input_matrix` is the spectral matrix of the driven component (the
    orthogonal input component is always vacuum) and `atoms` the `Atoms`
    of the transition and drive. Returns an OutputField with per-component
    spectra on `atoms.grid`; at b0 = 0 the output equals the input exactly
    and no correlation is solved.
    """
    grid = atoms.grid
    drive = atoms.drive
    b0 = medium.b0
    k2 = medium.atomic_scale()
    if b0 > 0 and drive.rabi == 0:
        raise ArgumentError("carrier update undefined at zero Rabi frequency")

    inputs = {1: input_matrix, 2: excess_noise_input(0.0, 0.0)}
    out = OutputField(grid=grid, carrier={}, phi={}, spectra={})
    for i, (comp, op) in enumerate(atoms.operators.items()):
        if b0 > 0:
            at, mirrored = atoms.correlations
            dg, lo = 2 * i, 2 * i + 1  # this component's rows of x
            entries = (k2 * mirrored[:, dg, lo], -k2 * at[:, lo, lo],
                       -k2 * at[:, dg, dg], k2 * at[:, dg, lo])  # S11..S22
            mean_dipole = np.trace(atoms.rho @ op)
            chi = 0.5 * b0 * mean_dipole / drive.rabi
        else:
            entries = (np.zeros(grid.shape, dtype=complex) for _ in range(4))
            chi = 0.0j
        out.spectra[comp] = inputs[comp] + SpectralMatrix(*entries)
        out.carrier[comp] = np.exp(1j * chi) if comp == 1 else 0.0j
        out.phi[comp] = float(chi.real)
    return out
