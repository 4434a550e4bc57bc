"""Level scheme and dipole tables of a degenerate Fg -> Fe transition.

Every angular momentum and projection is held as the integer 2j, so
half-integers need no special case. The dipole tables' Clebsch-Gordan
coefficients come from the Racah closed-form sum in exact integer
arithmetic, one Fraction per term, rounded to float only at the final
sqrt, so there is no cancellation error for any F. Condon-Shortley phases
throughout.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import copysign, factorial, sqrt

import numpy as np

from .errors import ArgumentError

# Largest Fg or Fe. At Fg = Fe = 10, n^2 = 1764 and each dense n^2 x n^2
# complex matrix of the pipeline takes about 50 MB.
MAX_F = 10


def _doubled(x, name):
    """2x as an int, for x a finite integer or half-integer."""
    try:
        if 2 * x == int(2 * x):
            return int(2 * x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ArgumentError(f"{name} = {x!r} is not a finite integer or half-integer")


def _racah(j1, m1, j2, m2, J, M):
    """<j1 m1; j2 m2 | J M> from doubled arguments (2j1, 2m1, ...), each |m| <= j
    with j - m even; 0.0 when M != m1 + m2 or the triangle rule fails."""
    if m1 + m2 != M or not abs(j1 - j2) <= J <= j1 + j2 or (j1 + j2 - J) % 2:
        return 0.0
    # The Racah sum's five integers. The prefactor's factorials are of sums of them:
    # j1-j2+J = b+d, j2-j1+J = c+e, J+M = c+d, J-M = b+e, j1+m1 = a+d, j2-m2 = a+e.
    a, b, c = (j1 + j2 - J) // 2, (j1 - m1) // 2, (j2 + m2) // 2
    d, e = (J - j2 + m1) // 2, (J - j1 - m2) // 2
    f = factorial
    prefactor = Fraction((J + 1) * f(a) * f(b + d) * f(c + e) * f(c + d) * f(b + e)
                         * f(a + d) * f(a + e) * f(b) * f(c), f(a + b + c + d + e + 1))
    total = sum(Fraction((-1) ** k, f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k)
                         * f(e + k)) for k in range(max(0, -d, -e), min(a, b, c) + 1))
    return copysign(sqrt(float(prefactor * total * total)), total)


@dataclass(frozen=True)
class LevelScheme:
    """A ground level Fg and excited level Fe joined by a dipole transition.

    Sublevels are enumerated ground M = -Fg..Fg first, then excited
    M = -Fe..Fe, giving n = (2Fg+1) + (2Fe+1) basis states. Every excited
    sublevel decays at the rate gamma = 1, the unit of every rate.
    `two_fg` and `two_fe` hold 2Fg and 2Fe as ints.
    """

    fg: float
    fe: float
    two_fg: int = field(init=False, repr=False, compare=False)
    two_fe: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        two_fg, two_fe = _doubled(self.fg, "Fg"), _doubled(self.fe, "Fe")
        for key, value, two in (("fg", self.fg, two_fg), ("fe", self.fe, two_fe)):
            if two < 0:
                raise ArgumentError(f"{key} must be >= 0, got {value}")
            if two > 2 * MAX_F:
                raise ArgumentError(f"{key} must be <= {MAX_F}, got {value}")
            object.__setattr__(self, f"two_{key}", two)
        if abs(two_fe - two_fg) not in (0, 2) or two_fg == two_fe == 0:
            raise ArgumentError(
                f"Fg={self.fg}, Fe={self.fe} is not a dipole-allowed pair"
            )

    @property
    def n_ground(self):
        return self.two_fg + 1

    @property
    def n_excited(self):
        return self.two_fe + 1

    @property
    def n(self):
        return self.n_ground + self.n_excited

    def excited_projector(self):
        p = np.zeros((self.n, self.n))
        p[self.n_ground:, self.n_ground:] = np.eye(self.n_excited)
        return p


def dipole_component(scheme, q):
    """Lowering dipole component d_q as an n x n real matrix.

    Entry [g, e] = <Fg Mg; 1 q | Fe Me> with Me = Mg + q, on ground-row /
    excited-column pairs; zero elsewhere. The raising component is the
    transpose. Sum_q d_q^T d_q has unit diagonal on the excited manifold,
    so each excited sublevel decays at the full rate gamma = 1.
    """
    if q not in (-1, 0, 1):
        raise ArgumentError(f"q must be -1, 0, or +1, got {q!r}")
    return _dipole_table(scheme.two_fg, scheme.two_fe, int(q)).copy()


@lru_cache(maxsize=None)
def _dipole_table(two_fg, two_fe, q):
    """d_q for 2Fg -> 2Fe, built once per process."""
    n_ground = two_fg + 1
    d = np.zeros((n_ground + two_fe + 1,) * 2)
    for g, two_mg in enumerate(range(-two_fg, two_fg + 1, 2)):
        two_me = two_mg + 2 * q
        if abs(two_me) <= two_fe:
            d[g, n_ground + (two_me + two_fe) // 2] = _racah(
                two_fg, two_mg, 2, 2 * q, two_fe, two_me
            )
    return d
