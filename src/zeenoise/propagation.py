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
(R . 2D) . R^T as in the full product. With x stacking dg and lo of every
polarization component (lo and dg the vectorized dipole lowering operator
and its adjoint), one small product x[:, S] . C[S, :] . x^T holds every
projection; of each sign the step keeps, per component, dg C lo, lo C lo
and dg C dg, and every grid point reads its four correlations from these
six by its |Omega| and sign. No n^2 x n^2 kernel array is formed.
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

The atomic term is assembled in normally ordered form,

    S11_at(Omega) = k2 * FT<dD+(t) dD(0)>(-Omega)
    S22_at(Omega) = k2 * FT<dD+(t) dD(0)>(+Omega)
    S12_at(Omega) = -k2 * FT<dD (t) dD(0)>(Omega)
    S21_at(Omega) = -k2 * FT<dD+(t) dD+(0)>(Omega),      k2 = b0/4,

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
    atomic: dict           # component -> atomic contribution alone


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
    rows of C(+-|Omega|) and keeps six of their projections per component,
    taken from one small product (see the module docstring).
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
        """Component -> [dg C(-Omega) lo, lo C(Omega) lo, dg C(Omega) dg,
        dg C(Omega) lo] as complex arrays over the grid, where lo and dg are
        the vectorized dipole lowering operator and its adjoint; `propagate`
        scales them into S11, S12, S21 and S22. x stacks dg and lo of every
        component; forms[sign, k, i] holds component i's dg C lo, lo C lo
        and dg C dg, picked from x[:, S] @ C[S, :] @ x.T with S the dipole
        support, for C(+distinct[k]) at sign 0 and C(-distinct[k]) at 1."""
        grid = self.grid
        ops = self.operators.values()
        x = np.stack([vec(v) for op in ops for v in (op.conj().T, op)])  # dg, lo, ...
        support = np.flatnonzero(np.abs(x).sum(axis=0))
        row = 2 * np.arange(len(ops))[:, None]  # row of each component's dg in x
        pick = (row + [0, 1, 0], row + [1, 1, 0])  # dg C lo, lo C lo, dg C dg
        n = self.scheme.n
        scratch = np.zeros((n * n, n * n), dtype=complex)  # -i w I - M, then 2D
        two_d = scratch.T  # column-major, as diffusion_matrix builds 2D
        distinct, where = np.unique(np.abs(grid), return_inverse=True)
        forms = np.empty((2, distinct.size, len(ops), 3), dtype=complex)
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
                forms[sign, k] = (x[:, support] @ kernel @ x.T)[pick]
            del r_plus, r_minus, swapped, left, right, kernel  # freed before inverting
        plus = (grid < 0).astype(int)  # sign index of C(Omega); C(-Omega) has 1 - plus
        return {c: [forms[1 - plus, where, i, 0], forms[plus, where, i, 1],
                    forms[plus, where, i, 2], forms[plus, where, i, 0]]
                for i, c in enumerate(self.operators)}


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
    out = OutputField(grid=grid, carrier={}, phi={}, spectra={}, atomic={})
    for comp, op in atoms.operators.items():
        if b0 > 0:
            c11, c12, c21, c22 = atoms.correlations[comp]
            entries = (k2 * c11, -k2 * c12, -k2 * c21, k2 * c22)  # S11..S22
            mean_dipole = np.trace(atoms.rho @ op)
            chi = 0.5 * b0 * mean_dipole / drive.rabi
        else:
            entries = (np.zeros(grid.shape, dtype=complex) for _ in range(4))
            chi = 0.0j
        out.atomic[comp] = SpectralMatrix(*entries)
        out.spectra[comp] = inputs[comp] + out.atomic[comp]
        out.carrier[comp] = np.exp(1j * chi) if comp == 1 else 0.0j
        out.phi[comp] = float(chi.real)
    return out
