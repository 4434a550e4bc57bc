"""Master-equation generator, steady state, and time evolution."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    NumericalError,
    PolarizationMode,
    build_generator,
    steady_state,
)
from zeenoise.angular import dipole_component
from zeenoise.conventions import expectation_vector, unvec, vec
from zeenoise.dynamics import coherence_blocks, hamiltonian

from helpers import sublevel, two_level_reference

SCHEME = LevelScheme(fg=1, fe=2)
CIRC = PolarizationMode.CIRCULAR
LIN = PolarizationMode.LINEAR


def make(mode, rabi, detuning=0.0, scheme=SCHEME):
    basis = CIRC if mode == "circular" else LIN
    return build_generator(
        scheme, DriveConfig(basis=basis, rabi=rabi, detuning=detuning)
    )


def test_hamiltonian_is_hermitian():
    for basis in (CIRC, LIN):
        h = hamiltonian(SCHEME, DriveConfig(basis=basis, rabi=0.7, detuning=1.3))
        assert np.allclose(h, h.conj().T, atol=1e-15)


def test_build_generator_rejects_a_basis_that_is_not_a_polarization_mode():
    drive = DriveConfig(basis="circular", rabi=1.0)
    with pytest.raises(ArgumentError, match="drive.basis must be a PolarizationMode"):
        build_generator(SCHEME, drive)


@pytest.mark.parametrize("length", [2, 3, 5, 8, 15])
def test_unvec_rejects_a_vector_of_non_square_length(length):
    with pytest.raises(ValueError, match="unvec expects a square-length vector"):
        unvec(np.arange(length))


F_PAIRS = [(0.5, 1.5), (1, 1), (1, 2), (2, 1), (1.5, 1.5), (2, 3)]
ANY_DRIVE = {
    "f_pair": st.sampled_from(F_PAIRS),
    "mode": st.sampled_from(["circular", "linear"]),
    "rabi": st.floats(0.3, 5.0),
    "detuning": st.floats(-1.5, 1.5),
}


@settings(max_examples=25, deadline=None)
@given(**ANY_DRIVE)
@example(f_pair=(1, 2), mode="circular", rabi=1.3, detuning=0.4)
@example(f_pair=(1, 2), mode="linear", rabi=1.3, detuning=0.4)
def test_generator_preserves_trace(f_pair, mode, rabi, detuning):
    """vec(I) is a left null vector of G: d Tr(rho)/dt = 0 for any rho."""
    liou = make(mode, rabi, detuning, LevelScheme(*f_pair))
    left = vec(np.eye(liou.n)) @ liou.generator
    assert np.abs(left).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(**ANY_DRIVE, seed=st.integers(0, 2**32 - 1))
@example(f_pair=(1, 2), mode="circular", rabi=0.9, detuning=-0.6, seed=7)
@example(f_pair=(1, 2), mode="linear", rabi=0.9, detuning=-0.6, seed=7)
def test_drift_matches_generator_by_duality(f_pair, mode, rabi, detuning, seed):
    """M acting on expectation vectors is the dual of G on states.

    Checked on a random density matrix: the expectation vector of G rho
    must equal M applied to the expectation vector of rho.
    """
    liou = make(mode, rabi, detuning, LevelScheme(*f_pair))
    rng = np.random.default_rng(seed)
    shape = (liou.n, liou.n)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    lhs = expectation_vector(unvec(liou.generator @ vec(rho)))
    rhs = liou.drift @ expectation_vector(rho)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_drift_is_elementwise_conjugate_of_generator():
    # with real jump operators the two constructions coincide up to
    # complex conjugation; building them independently makes this a check
    for mode in ("circular", "linear"):
        liou = make(mode, rabi=2.0, detuning=0.8)
        assert np.abs(liou.drift - np.conj(liou.generator)).max() < 1e-12


def drift_by_rows(scheme, drive):
    """M row by row: the adjoint action on each basis operator |a><b|."""
    n = scheme.n
    h = hamiltonian(scheme, drive)
    jumps = [dipole_component(scheme, q) for q in (-1, 0, +1)]
    m = np.zeros((n * n, n * n), dtype=complex)
    for a in range(n):
        for b in range(n):
            basis_op = np.zeros((n, n), dtype=complex)
            basis_op[a, b] = 1.0
            lx = 1j * (h @ basis_op - basis_op @ h)
            for c in jumps:
                cdc = c.T @ c
                lx += c.T @ basis_op @ c - 0.5 * (cdc @ basis_op + basis_op @ cdc)
            m[a + n * b, :] = lx.flatten(order="F")
    return m


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("fg, fe", [
    (1, 2), (2, 3), (4, 5), (Fraction(1, 2), Fraction(3, 2)), (2, 2),
])
def test_broadcast_drift_equals_row_by_row_drift_bitwise(fg, fe, mode):
    scheme = LevelScheme(fg=fg, fe=fe)
    basis = CIRC if mode == "circular" else LIN
    drive = DriveConfig(basis=basis, rabi=0.7, detuning=0.3)
    drift = build_generator(scheme, drive).drift
    assert drift.tobytes() == drift_by_rows(scheme, drive).tobytes()


@pytest.mark.parametrize("mode", [CIRC, LIN], ids=lambda m: m.value)
@pytest.mark.parametrize("fg, fe", [(1, 2), (2, 3), (4, 5)], ids=str)
def test_drift_equals_transposed_adjoint_rows_bitwise(fg, fe, mode):
    """M written straight in its row order equals, zero signs included, the
    adjoint rows built as T[a, b, i, j] = x[a, i] y[b, j] and then copied
    through transpose(1, 0, 3, 2), and keeps that copy's C layout."""
    scheme = LevelScheme(fg=fg, fe=fe)
    drive = DriveConfig(basis=mode, rabi=0.9, detuning=-0.14)
    n = scheme.n
    h = hamiltonian(scheme, drive)
    eye = np.eye(n)

    def rows(x, y):
        return np.einsum("ai,bj->abij", x, y)

    lx = 1j * (rows(h.T, eye) - rows(eye, h))
    for c in (dipole_component(scheme, q) for q in (-1, 0, +1)):
        cdc = c.T @ c
        lx += rows(c, c) - 0.5 * (rows(cdc.T, eye) + rows(eye, cdc))
    expected = lx.transpose(1, 0, 3, 2).reshape(n * n, n * n)
    drift = build_generator(scheme, drive).drift
    assert np.array_equal(drift, expected)
    assert drift.tobytes() == expected.tobytes() and drift.flags.c_contiguous


@pytest.mark.parametrize("mode", [CIRC, LIN], ids=lambda m: m.value)
@pytest.mark.parametrize("fg, fe", [
    (Fraction(1, 2), Fraction(3, 2)), (1, 2), (2, 2), (4, 5),
], ids=str)
def test_generator_equals_kronecker_expression_bitwise(fg, fe, mode):
    """G summed in place equals, zero signs included, the Kronecker
    expression it implements, evaluated as one expression per term."""
    scheme = LevelScheme(fg=fg, fe=fe)
    drive = DriveConfig(basis=mode, rabi=0.7, detuning=0.3)
    h = hamiltonian(scheme, drive)
    eye = np.eye(scheme.n)
    expected = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for c in (dipole_component(scheme, q) for q in (-1, 0, +1)):
        cdc = c.T @ c
        expected += (
            np.kron(c, c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)
        )
    assert build_generator(scheme, drive).generator.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", [CIRC, LIN], ids=lambda m: m.value)
def test_generator_assembly_peak_is_bounded(mode):
    """At F=4->5 building G and M peaks at about 3.1 dense n^2 x n^2
    arrays: G, M's accumulator and one complex adjoint term. Forming each
    sum as one expression, a dense temporary per term, peaked at 3.56."""
    scheme = LevelScheme(fg=4, fe=5)
    drive = DriveConfig(mode, rabi=0.9, detuning=-0.14)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build_generator(scheme, drive)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    dense = scheme.n**4 * 16
    assert peak <= 3.25 * dense, peak / dense


@pytest.mark.parametrize("fg, fe, mode, labels, components", [
    (0.5, 1.5, CIRC, 7, 9), (0.5, 1.5, LIN, 7, 9),
    (1, 1, CIRC, 7, 9), (1, 1, LIN, 5, 9),
    (1, 2, CIRC, 9, 11), (1, 2, LIN, 9, 11),
    (2, 1, CIRC, 9, 11), (2, 1, LIN, 9, 11),
    (1.5, 1.5, CIRC, 9, 9), (1.5, 1.5, LIN, 7, 7),
    (2, 3, CIRC, 13, 15), (2, 3, LIN, 13, 15),
    (4, 5, CIRC, 21, 23), (4, 5, LIN, 21, 23),
], ids=lambda v: getattr(v, "value", str(v)))
def test_generator_and_drift_are_block_diagonal_in_coherence_order(
    fg, fe, mode, labels, components
):
    """G and M hold exact zeros between two coherence orders, so every
    connected component of their nonzero pattern lies inside one label.
    A label may hold several components (9 labels, 11 components at
    F = 1->2), so the labels contain the components but need not equal them.
    """
    scheme = LevelScheme(fg=fg, fe=fe)
    liou = build_generator(scheme, DriveConfig(basis=mode, rabi=0.7, detuning=0.3))
    label = coherence_blocks(scheme, mode)
    assert label.dtype.kind == "i"  # m_a - m_b, an integer coherence order
    across = label[:, None] != label[None, :]
    assert np.all(liou.generator[across] == 0.0)
    assert np.all(liou.drift[across] == 0.0)
    count, component = connected_components(
        (liou.generator != 0) | (liou.drift != 0), directed=False
    )
    assert all(len(np.unique(label[component == c])) == 1 for c in range(count))
    assert (len(np.unique(label)), count) == (labels, components)


class TestSteadyState:
    def test_basic_invariants(self):
        for mode, rabi, det in [
            ("circular", 0.1, 0.0),
            ("circular", 5.0, 1.0),
            ("linear", 0.1, 0.0),
            ("linear", 5.0, 1.0),
        ]:
            rho = steady_state(make(mode, rabi, det))
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_circular_drive_pumps_into_stretched_pair(self):
        """Optical pumping confines the atom to (g,M=+1), (e,M=+2)."""
        rho = steady_state(make("circular", rabi=1.0))
        g_top = sublevel(SCHEME, +1)
        e_top = sublevel(SCHEME, +2, excited=True)
        assert rho[g_top, g_top].real + rho[e_top, e_top].real > 1 - 1e-10

    def test_circular_drive_matches_two_level_formula(self):
        for rabi, det in [(0.5, 0.0), (1.0, 0.0), (2.0, 1.0), (0.2, -0.7)]:
            rho = steady_state(make("circular", rabi, det))
            e_top = sublevel(SCHEME, +2, excited=True)
            ref = two_level_reference(rabi, det)
            assert rho[e_top, e_top].real == pytest.approx(
                ref.excited_population, abs=1e-12
            )

    def test_saturation_value_on_resonance(self):
        # rabi = gamma gives excited population exactly 1/3... of the
        # effective two-level pair; a DriveConfig is resonant by default
        rho = steady_state(build_generator(SCHEME, DriveConfig(CIRC, rabi=1.0)))
        e_top = sublevel(SCHEME, +2, excited=True)
        assert rho[e_top, e_top].real == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_circular_steady_state_equals_bruteforce_two_level(self):
        """Independent 2x2 Lindblad solve for the stretched pair."""
        rabi, det = 1.7, 0.4
        sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
        h2 = -det * np.diag([0.0, 1.0]) - 0.5 * rabi * (sm + sm.T)
        h2 = h2.astype(complex)

        def lind(r):
            comm = -1j * (h2 @ r - r @ h2)
            diss = sm @ r @ sm.conj().T - 0.5 * (
                sm.conj().T @ sm @ r + r @ sm.conj().T @ sm
            )
            return comm + diss

        # solve lind(r) = 0 with trace 1 by brute force on the 4-vector
        basis = []
        for a in range(2):
            for b in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[a, b] = 1
                basis.append(e)
        lmat = np.array([lind(e).flatten() for e in basis]).T
        lmat = np.vstack([lmat, np.array([1, 0, 0, 1], dtype=complex)])
        rhs = np.zeros(5, dtype=complex)
        rhs[-1] = 1
        r2 = np.linalg.lstsq(lmat, rhs, rcond=None)[0].reshape(2, 2)

        rho = steady_state(make("circular", rabi, det))
        gi, ei = sublevel(SCHEME, +1), sublevel(SCHEME, +2, excited=True)
        pair = np.array(
            [[rho[gi, gi], rho[gi, ei]], [rho[ei, gi], rho[ei, ei]]]
        )
        assert np.abs(pair - r2).max() < 1e-10

    def test_linear_drive_is_m_symmetric(self):
        population = np.diag(steady_state(make("linear", rabi=0.8))).real
        for m, excited in [(0, False), (1, False), (0, True), (1, True), (2, True)]:
            assert population[sublevel(SCHEME, m, excited)] == pytest.approx(
                population[sublevel(SCHEME, -m, excited)], abs=1e-12
            )

    def test_undriven_system_is_degenerate(self):
        with pytest.raises(NumericalError) as err:
            steady_state(make("linear", rabi=0.0))
        # entire 3x3 ground block is stationary
        assert "dimension 9 " in str(err.value)
        assert "9" in str(err.value)


def _svdvals_null_dimension(g):
    """Null-space dimension as scipy.linalg.svdvals counts it at 1e-9."""
    svals = scipy.linalg.svdvals(g)
    scale = svals[0] if svals[0] > 0 else 1.0
    return int(np.sum(svals < 1e-9 * scale))


@pytest.mark.parametrize("scale", [0.37, 1.0])
@pytest.mark.parametrize("rabi", [0.0, 1e-6, 1e-4, 1e-2, 1.0])
@pytest.mark.parametrize("mode", list(PolarizationMode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "fg, fe", [(1, 2), (2, 2), (2, 1), (1, 1), (0.5, 1.5), (4, 5)], ids=str
)
def test_uniqueness_decision_matches_scipy_svdvals(fg, fe, mode, rabi, scale):
    """steady_state decides uniqueness as a scipy singular-value count does,
    down to the weak drives where the Raman terms live. A case at `scale`
    drives at rabi / scale: the atom with decay rate `scale` and Rabi
    frequency rabi, measured in units of its own decay rate."""
    scheme = LevelScheme(fg=fg, fe=fe)
    liou = build_generator(scheme, DriveConfig(basis=mode, rabi=rabi / scale))
    expected = _svdvals_null_dimension(liou.generator)
    if expected == 1:
        rho = steady_state(liou)
        assert rho.shape == (scheme.n, scheme.n)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    else:
        with pytest.raises(NumericalError) as err:
            steady_state(liou)
        assert f"dimension {expected} " in str(err.value)


@pytest.mark.parametrize("size, steady", [(0.9e-8, True), (1.5e-8, False)])
def test_solve_is_rescaled_to_trace_one_and_gated_at_its_residual(
    monkeypatch, size, steady
):
    """steady_state divides the solve by its trace, and accepts it only while
    max |G vec(rho)| stays within STATIONARITY_TOL = 1e-8: here lstsq returns
    3 (rho + kick x), x traceless, with max |G vec(kick x)| = size."""
    liou = make("linear", rabi=0.8)
    exact = steady_state(liou)
    x = np.zeros_like(exact)
    x[0, 0], x[1, 1] = 1.0, -1.0
    kick = size / np.abs(liou.generator @ vec(x)).max()
    lstsq = np.linalg.lstsq

    def perturbed(a, b, rcond=None):
        sol, *rest = lstsq(a, b, rcond=rcond)
        return (3.0 * (sol + kick * vec(x)), *rest)

    monkeypatch.setattr(np.linalg, "lstsq", perturbed)
    if steady:
        assert np.abs(steady_state(liou) - (exact + kick * x)).max() <= 1e-15
    else:
        with pytest.raises(NumericalError, match=r"residual 1\.50e-08 too large"):
            steady_state(liou)


def evolve(liouvillian, rho0, t):
    """rho(t) = exp(G t) applied to rho0."""
    propagator = scipy.linalg.expm(liouvillian.generator * t)
    return unvec(propagator @ vec(np.asarray(rho0, dtype=complex)))


class TestEvolve:
    def test_zero_time_is_identity(self):
        liou = make("linear", rabi=1.0)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        assert np.allclose(evolve(liou, rho0, 0.0), rho0, atol=1e-14)

    def test_spontaneous_decay_rate(self):
        """Undriven excited population decays exactly at rate gamma."""
        liou = make("linear", rabi=0.0)
        e = sublevel(SCHEME, 0, excited=True)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[e, e] = 1.0
        rho1 = evolve(liou, rho0, 1.0)
        population = np.diag(rho1).real
        excited = sum(
            population[sublevel(SCHEME, m, excited=True)] for m in (-2, -1, 0, 1, 2)
        )
        assert excited == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_evolution_stays_physical(self):
        liou = make("linear", rabi=2.0, detuning=0.5)
        rho = np.zeros((8, 8), dtype=complex)
        rho[1, 1] = 1.0
        for t in (0.3, 0.3, 0.3, 2.0):
            rho = evolve(liou, rho, t)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_long_time_limit_is_steady_state(self):
        liou = make("linear", rabi=1.0, detuning=0.3)
        target = steady_state(liou)
        rho0 = np.eye(8, dtype=complex) / 8
        rho = evolve(liou, rho0, 200.0)
        assert np.abs(rho - target).max() < 1e-8
