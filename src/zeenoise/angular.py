"""Angular-momentum algebra for a degenerate dipole transition.

Clebsch-Gordan coefficients are evaluated from the Racah closed-form sum
with exact rational arithmetic (fractions + integer factorials) and rounded
to float only at the end, so there is no cancellation error for any F.
Condon-Shortley phases throughout.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

from .errors import ArgumentError

# Largest Fg or Fe. At Fg = Fe = 10, n^2 = 1764 and each dense n^2 x n^2
# complex matrix of the pipeline takes about 50 MB.
MAX_F = 10


def _as_half_integer(x, name):
    f = Fraction(x).limit_denominator(2)
    if f != Fraction(x) or f.denominator not in (1, 2):
        raise ArgumentError(f"{name} = {x!r} is not integer or half-integer")
    return f


def _fact(x):
    """Factorial of a Fraction that must be a non-negative integer."""
    if x.denominator != 1:
        raise ArgumentError(f"factorial argument {x} is not an integer")
    if x < 0:
        return None  # signals an invalid term / failed triangle rule
    return factorial(int(x))


def clebsch_gordan(j1, m1, j2, m2, J, M):
    """<j1 m1; j2 m2 | J M> via the Racah sum, exact until the final sqrt.

    Returns 0.0 when M != m1 + m2 or the triangle rule fails.
    """
    j1 = _as_half_integer(j1, "j1")
    m1 = _as_half_integer(m1, "m1")
    j2 = _as_half_integer(j2, "j2")
    m2 = _as_half_integer(m2, "m2")
    J = _as_half_integer(J, "J")
    M = _as_half_integer(M, "M")

    for j, m, jn, mn in ((j1, m1, "j1", "m1"), (j2, m2, "j2", "m2"), (J, M, "J", "M")):
        if j < 0:
            raise ArgumentError(f"{jn} must be >= 0")
        if abs(m) > j:
            raise ArgumentError(f"|{mn}| > {jn}")
        if (j - m).denominator != 1:
            raise ArgumentError(f"{jn} and {mn} differ by a non-integer")

    if m1 + m2 != M:
        return 0.0
    if J < abs(j1 - j2) or J > j1 + j2 or (j1 + j2 - J).denominator != 1:
        return 0.0

    tri = [_fact(j1 + j2 - J), _fact(j1 - j2 + J), _fact(-j1 + j2 + J)]
    if any(t is None for t in tri):
        return 0.0
    prefactor = (
        Fraction(int(2 * J + 1))
        * tri[0] * tri[1] * tri[2]
        / _fact(j1 + j2 + J + 1)
        * _fact(J + M) * _fact(J - M)
        * _fact(j1 - m1) * _fact(j1 + m1)
        * _fact(j2 - m2) * _fact(j2 + m2)
    )

    total = Fraction(0)
    for k in range(int(j1 + j2 + J) + 2):
        denoms = [
            _fact(Fraction(k)),
            _fact(j1 + j2 - J - k),
            _fact(j1 - m1 - k),
            _fact(j2 + m2 - k),
            _fact(J - j2 + m1 + k),
            _fact(J - j1 - m2 + k),
        ]
        if all(d is not None for d in denoms):
            term = Fraction((-1) ** k)
            for d in denoms:
                term /= d
            total += term

    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * sqrt(float(prefactor * total * total))


@dataclass(frozen=True)
class LevelScheme:
    """A ground level Fg and excited level Fe joined by a dipole transition.

    Sublevels are enumerated ground M = -Fg..Fg first, then excited
    M = -Fe..Fe, giving n = (2Fg+1) + (2Fe+1) basis states. `gamma` is the
    total excited-state decay rate and the global rate unit (default 1).
    """

    fg: float
    fe: float
    gamma: float = 1.0

    def __post_init__(self):
        fg = _as_half_integer(self.fg, "Fg")
        fe = _as_half_integer(self.fe, "Fe")
        if fg < 0 or fe < 0:
            raise ArgumentError("angular momenta must be >= 0")
        for key, value in (("fg", self.fg), ("fe", self.fe)):
            if value > MAX_F:
                raise ArgumentError(f"{key} must be <= {MAX_F}, got {value}")
        if abs(fe - fg) > 1 or (fg == 0 and fe == 0):
            raise ArgumentError(
                f"Fg={self.fg}, Fe={self.fe} is not a dipole-allowed pair"
            )
        if self.gamma < 0:
            raise ArgumentError("gamma must be >= 0")

    @property
    def n_ground(self):
        return int(2 * Fraction(self.fg) + 1)

    @property
    def n_excited(self):
        return int(2 * Fraction(self.fe) + 1)

    @property
    def n(self):
        return self.n_ground + self.n_excited

    def ground_index(self, m):
        m = Fraction(m)
        if abs(m) > Fraction(self.fg) or (m - Fraction(self.fg)).denominator != 1:
            raise ArgumentError(f"no ground sublevel M={m}")
        return int(m + Fraction(self.fg))

    def excited_index(self, m):
        m = Fraction(m)
        if abs(m) > Fraction(self.fe) or (m - Fraction(self.fe)).denominator != 1:
            raise ArgumentError(f"no excited sublevel M={m}")
        return self.n_ground + int(m + Fraction(self.fe))

    def ground_m_values(self):
        return [Fraction(self.fg) - k for k in range(self.n_ground)][::-1]

    def excited_m_values(self):
        return [Fraction(self.fe) - k for k in range(self.n_excited)][::-1]

    def excited_projector(self):
        p = np.zeros((self.n, self.n))
        p[self.n_ground:, self.n_ground:] = np.eye(self.n_excited)
        return p


def dipole_component(scheme, q):
    """Lowering dipole component d_q as an n x n real matrix.

    Entry [g, e] = <Fg Mg; 1 q | Fe Me> with Me = Mg + q, on ground-row /
    excited-column pairs; zero elsewhere. The raising component is the
    transpose. Sum_q d_q^T d_q has unit diagonal on the excited manifold,
    so each excited sublevel decays at the full rate gamma.
    """
    if q not in (-1, 0, 1):
        raise ArgumentError(f"q must be -1, 0, or +1, got {q!r}")
    return _dipole_table(scheme.fg, scheme.fe, q).copy()


@lru_cache(maxsize=None)
def _dipole_table(fg, fe, q):
    """d_q for Fg -> Fe, built once per process (it does not depend on gamma)."""
    scheme = LevelScheme(fg, fe)
    d = np.zeros((scheme.n, scheme.n))
    for mg in scheme.ground_m_values():
        me = mg + q
        if abs(me) <= Fraction(scheme.fe):
            c = clebsch_gordan(scheme.fg, mg, 1, q, scheme.fe, me)
            if c != 0.0:
                d[scheme.ground_index(mg), scheme.excited_index(me)] = c
    return d
