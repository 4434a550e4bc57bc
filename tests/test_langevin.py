"""Einstein-relation diffusion matrix."""

import tracemalloc

import numpy as np
import pytest

from zeenoise import (
    DriveConfig,
    LevelScheme,
    NumericalError,
    PolarizationMode,
    build_generator,
    diffusion_matrix,
    steady_state,
)
from zeenoise.conventions import expectation_vector

from helpers import sublevel

SCHEME = LevelScheme(fg=1, fe=2)


def setup_system(mode, rabi, detuning=0.0):
    scheme = LevelScheme(fg=1, fe=2)
    basis = PolarizationMode(mode)
    liou = build_generator(
        scheme, DriveConfig(basis=basis, rabi=rabi, detuning=detuning)
    )
    steady = steady_state(liou)
    return scheme, liou, steady


def test_hermiticity_pairing():
    """2D[ab, cd] = conj(2D[dc, ba]) — the force-correlation symmetry."""
    for mode, rabi, det in [("circular", 1.0, 0.0), ("linear", 0.7, 0.9)]:
        scheme, liou, steady = setup_system(mode, rabi, det)
        n = scheme.n
        two_d = diffusion_matrix(liou, steady)
        worst = 0.0
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        lhs = two_d[a + n * b, c + n * d]
                        rhs = np.conj(two_d[d + n * c, b + n * a])
                        worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-12


def test_rejects_non_stationary_state():
    _, liou, _ = setup_system("linear", 1.0)
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(NumericalError):
        diffusion_matrix(liou, rho)


def test_ground_block_scales_as_rabi_squared():
    """Ground-state force correlations come from optical-pumping noise.

    At weak linear drive the excited admixture is O(rabi), so diffusion
    among ground-ground operator pairs must scale as rabi^2.
    """
    def gg_block_norm(rabi):
        scheme, liou, steady = setup_system("linear", rabi)
        two_d = diffusion_matrix(liou, steady)
        n = scheme.n
        gg = [a + n * b for a in range(3) for b in range(3)]
        return np.abs(two_d[np.ix_(gg, gg)]).max()

    ratio = gg_block_norm(1e-2) / gg_block_norm(1e-3)
    assert ratio == pytest.approx(100.0, rel=1e-2)


def test_matches_bruteforce_two_level_subspace():
    """Circular drive: block for stretched-pair forces equals a hand-built
    two-level Einstein calculation done entirely within the test."""
    rabi, det = 1.3, 0.5
    scheme, liou, steady = setup_system("circular", rabi, det)
    n = scheme.n
    two_d = diffusion_matrix(liou, steady)

    # hand-built 2x2 system: states (g, e) = (|1,+1>, |2,+2>)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    h2 = (-det * np.diag([0.0, 1.0]) - 0.5 * rabi * (sm + sm.T)).astype(complex)

    def drift_row(op):
        # adjoint generator on a 2x2 operator
        out = 1j * (h2 @ op - op @ h2)
        cdc = sm.conj().T @ sm
        out += sm.conj().T @ op @ sm - 0.5 * (cdc @ op + op @ cdc)
        return out

    m2 = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1
            m2[a + 2 * b, :] = drift_row(e).flatten(order="F")

    gi, ei = sublevel(scheme, +1), sublevel(scheme, +2, excited=True)
    pair = (gi, ei)
    rho2 = np.array(
        [[steady[pair[i], pair[j]] for j in range(2)] for i in range(2)]
    )
    s2 = rho2.T.flatten(order="F")
    ms = m2 @ s2
    m4 = m2.reshape(2, 2, 2, 2, order="F")
    ms2 = ms.reshape(2, 2, order="F")
    sm2 = s2.reshape(2, 2, order="F")
    t1 = np.einsum("bc,ad->abcd", np.eye(2), ms2)
    t2 = np.einsum("abmc,md->abcd", m4, sm2)
    t3 = np.einsum("cdbm,am->abcd", m4, sm2)
    ref = (t1 - t2 - t3).reshape(4, 4, order="F")

    # embed the pair indices into the full operator basis
    mu = [gi + n * gi, ei + n * gi, gi + n * ei, ei + n * ei]
    # 2x2 flat (Fortran): (0,0), (1,0), (0,1), (1,1)
    block = two_d[np.ix_(mu, mu)]
    assert np.abs(block - ref).max() < 1e-11


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("fg, fe", [(1, 2), (2, 3), (4, 5)], ids=str)
def test_in_place_sum_equals_three_term_formula_bitwise(fg, fe, mode):
    """2D accumulated in place equals, zero signs included, t1 - t2 - t3
    summed as whole arrays and reshaped column-major, and keeps that
    reshape's Fortran layout."""
    scheme = LevelScheme(fg=fg, fe=fe)
    liou = build_generator(
        scheme, DriveConfig(basis=PolarizationMode(mode), rabi=0.9, detuning=-0.14)
    )
    rho = steady_state(liou)
    n = scheme.n
    s = expectation_vector(rho)
    m4 = liou.drift.reshape(n, n, n, n, order="F")
    ms2 = (liou.drift @ s).reshape(n, n, order="F")
    sm = s.reshape(n, n, order="F")
    t1 = np.einsum("bc,ad->abcd", np.eye(n), ms2)
    t2 = np.einsum("abmc,md->abcd", m4, sm)
    t3 = np.einsum("cdbm,am->abcd", m4, sm)
    expected = (t1 - t2 - t3).reshape(n * n, n * n, order="F")
    two_d = diffusion_matrix(liou, rho)
    assert np.array_equal(two_d, expected)
    assert two_d.tobytes() == expected.tobytes() and two_d.flags.f_contiguous


@pytest.mark.parametrize("mode", ["circular", "linear"])
def test_diffusion_matrix_allocates_at_most_one_extra_array(mode):
    """At F = 4->5 (n^2 = 400) the traced peak of diffusion_matrix above its
    inputs stays under 2.5 n^2 x n^2 complex arrays: 2D itself and one
    einsum term (2.1 measured). Summing t1 - t2 - t3 as whole arrays and
    reshaping the sum took 5.0."""
    scheme = LevelScheme(fg=4, fe=5)
    liou = build_generator(
        scheme, DriveConfig(basis=PolarizationMode(mode), rabi=0.9, detuning=-0.14)
    )
    rho = steady_state(liou)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        two_d = diffusion_matrix(liou, rho)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert two_d.nbytes == scheme.n**4 * 16
    assert peak <= 2.5 * two_d.nbytes, peak / two_d.nbytes
