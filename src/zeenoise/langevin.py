"""Langevin diffusion matrix from the generalized Einstein relation.

At steady state the noise-force correlations <f_mu(t) f_nu(t')> =
2 D_{mu,nu} delta(t - t') follow from the drift alone:

    2D_{mu,nu} = <L+(sigma_mu sigma_nu)> - <L+(sigma_mu)> sigma_nu-paired
                 - sigma_mu-paired <L+(sigma_nu)>

with the operator-product contraction sigma_ab sigma_cd = delta_bc
sigma_ad, so every product is again a basis operator and its drift is a
row of M. No ordering is imposed: negativity of normally-ordered blocks
is physical (it is what produces squeezing downstream). The three terms
are summed in place in the returned column-major 2D, bit for bit.
"""

import numpy as np

from .conventions import expectation_vector, vec
from .dynamics import STATIONARITY_TOL
from .errors import NumericalError


def diffusion_matrix(liouvillian, rho):
    """Force-correlation matrix 2D (n^2 x n^2) by the Einstein relation.

    `rho` is the density matrix; a max |G vec(rho)| above STATIONARITY_TOL
    raises NumericalError.
    """
    n = liouvillian.n
    g = liouvillian.generator
    m = liouvillian.drift

    residual = np.abs(g @ vec(rho)).max()
    if residual > STATIONARITY_TOL:
        raise NumericalError(
            f"state is not stationary: |G rho| = {residual:.2e}"
        )

    s = expectation_vector(rho)
    ms = m @ s
    m4 = m.reshape(n, n, n, n, order="F")
    ms2 = ms.reshape(n, n, order="F")
    sm = s.reshape(n, n, order="F")

    # 2D[a+nb, c+nd] for the force pair (f_ab, f_cd):
    #   <L+(sigma_ab sigma_cd)> = delta_bc <L+(sigma_ad)>
    #   <L+(sigma_ab)> sigma_cd and sigma_ab <L+(sigma_cd)> contract through
    #   the same delta rule applied inside the drift rows.
    two_d = np.empty((n * n, n * n), dtype=complex, order="F")
    t = two_d.reshape(n, n, n, n, order="F")
    np.einsum("bc,ad->abcd", np.eye(n), ms2, out=t)
    t -= np.einsum("abmc,md->abcd", m4, sm)
    t -= np.einsum("cdbm,am->abcd", m4, sm)
    return two_d
