"""Fixed conventions: vectorization order, phase choices, version tag.

Everything here is documented in CONVENTIONS.md at the repository root.
The version string is written into every output metadata record so that
archived results stay interpretable if a convention ever changes.
"""

import numpy as np

# Bumped whenever an index map or phase convention changes.
CONVENTIONS_VERSION = "1"

# The orthogonal linear mode operator carries a +i phase relative to the
# naive (d_{-1} - d_{+1})/sqrt(2) combination; its theta=0 quadrature is
# measured in the frame where the driven carrier is real and positive.
QUADRATURE_CONVENTIONS = {
    "orthogonal_mode_phase": "+i",
    "orthogonal_quadrature_reference": "driven-carrier-theta0",
}


def vec(mat):
    """Column-major stacking, vec(m)[a + n*b] = m[a, b]; vec(op) @ s = <op>."""
    return np.asarray(mat).flatten(order="F")


def unvec(v):
    v = np.asarray(v)
    n = round(len(v) ** 0.5)
    if n * n != len(v):
        raise ValueError("unvec expects a square-length vector")
    return v.reshape(n, n, order="F")


def expectation_vector(rho):
    """s[a + n*b] = <sigma_ab> = Tr(|a><b| . rho) = rho[b, a]."""
    return np.asarray(rho).T.flatten(order="F")
