"""Thin-medium propagation: output spectral matrices and the carrier."""

import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import zeenoise.propagation
from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    MediumParams,
    NumericalError,
    PolarizationMode,
    amplitude_quadrature_angle,
    build_generator,
    diffusion_matrix,
    excess_noise_input,
    propagate,
    steady_state,
)
from zeenoise.conventions import vec
from zeenoise.field import SpectralMatrix
from zeenoise.propagation import Atoms, _pairs, atomic_response
from zeenoise.runner import compute_point, run_scenario, solve_atoms
from zeenoise.scenario import (
    GridSpec, Scenario, SweepSpec, point_inputs, validate_scenario,
)

from helpers import two_level_reference

GRID = np.array([1e-3, 0.1, 0.7, 3.0, 12.0])
KEYS = ("s11", "s12", "s21", "s22")


def system(mode, rabi, detuning=0.0):
    scheme = LevelScheme(fg=1, fe=2)
    basis = PolarizationMode(mode)
    drive = DriveConfig(basis=basis, rabi=rabi, detuning=detuning)
    liou = build_generator(scheme, drive)
    steady = steady_state(liou)
    diff = diffusion_matrix(liou, steady)
    return scheme, liou, steady, diff


def run(mode, rabi, detuning=0.0, b0=0.1, input_matrix=None, grid=GRID):
    scheme, liou, steady, diff = system(mode, rabi, detuning)
    if input_matrix is None:
        input_matrix = excess_noise_input(0.0, 0.0)
    atoms = Atoms(liou, steady, diff, grid)
    return propagate(input_matrix, MediumParams(b0), atoms)


def dipoles(liou):
    """x = (dg1, lo1, dg2, lo2): each component's vectorized dipole lowering
    operator lo and its adjoint dg, stacked as `Atoms.correlations` orders
    its projections."""
    ops = [liou.drive.basis.operator(liou.scheme, comp) for comp in (1, 2)]
    return np.stack([vec(v) for op in ops for v in (op.conj().T, op)])


def atomic_term(k2, at, mirrored):
    """Per component, S_at of CONVENTIONS.md from the dipole projections
    at[w, i, j] = x_i^T C(Omega_w) x_j and mirrored, the same at -Omega_w."""
    return {
        comp: SpectralMatrix(
            k2 * mirrored[:, dg, dg + 1],  # S11 = k2 dg C(-Omega) lo
            -k2 * at[:, dg + 1, dg + 1],   # S12 = -k2 lo C(Omega) lo
            -k2 * at[:, dg, dg],           # S21 = -k2 dg C(Omega) dg
            k2 * at[:, dg, dg + 1],        # S22 = k2 dg C(Omega) lo
        )
        for comp, dg in ((1, 0), (2, 2))
    }


def assert_output_is_input_plus(out, input_matrix, atomic):
    """out.spectra is the input (vacuum for e2) plus `atomic`, bit for bit."""
    inputs = {1: input_matrix, 2: excess_noise_input(0.0, 0.0)}
    for comp in (1, 2):
        expected = inputs[comp] + atomic[comp]
        for key in KEYS:
            got = getattr(out.spectra[comp], key)
            assert np.array_equal(got, getattr(expected, key)), (comp, key)


def run_atomic(mode, rabi, detuning=0.0, b0=0.1, grid=GRID):
    """S_at per component: the test's own atomic_term of the kernel's
    projections, once propagate's coherent-input output is held to the
    input plus it, bit for bit."""
    scheme, liou, steady, diff = system(mode, rabi, detuning)
    atoms = Atoms(liou, steady, diff, grid)
    coherent = excess_noise_input(0.0, 0.0)
    out = propagate(coherent, MediumParams(b0), atoms)
    atomic = atomic_term(0.25 * b0, *atoms.correlations)
    assert_output_is_input_plus(out, coherent, atomic)
    return atomic


def phi(liou, diff, steady, b0):
    """Dephasing angle of the driven component after the medium."""
    atoms = Atoms(liou, steady, diff, [1.0])
    return propagate(excess_noise_input(0.0, 0.0), MediumParams(b0), atoms).phi[1]


def test_medium_params_validation():
    with pytest.raises(ArgumentError):
        MediumParams(b0=-0.1)
    MediumParams(b0=0.0)


def test_empty_grid_rejected():
    scheme, liou, steady, diff = system("linear", 1.0)
    with pytest.raises(ArgumentError):
        Atoms(liou, steady, diff, np.array([]))


def test_zero_density_is_identity():
    """b0 = 0: output equals input exactly, carrier untouched."""
    out = run("linear", 1.0, b0=0.0)
    assert np.all(out.spectra[1].s11 == 1.0)
    assert np.all(out.spectra[1].s12 == 0.0)
    assert np.all(out.spectra[2].s11 == 1.0)
    assert out.carrier[1] == 1.0 + 0.0j
    assert out.phi[1] == 0.0


def test_atomic_term_is_additive_in_input():
    """The medium adds the same atomic term whatever the input noise."""
    coh = run("linear", 0.7, b0=0.3)
    exc = run(
        "linear", 0.7, b0=0.3, input_matrix=excess_noise_input(1.0, 10.0)
    )
    inp = excess_noise_input(1.0, 10.0)
    assert np.array_equal(exc.spectra[1].s11 - coh.spectra[1].s11,
                          np.full(GRID.shape, inp.s11 - 1.0))
    assert np.array_equal(exc.spectra[1].s12 - coh.spectra[1].s12,
                          np.full(GRID.shape, inp.s12))
    # the orthogonal input is always vacuum, so e2 is unchanged
    assert np.array_equal(exc.spectra[2].s11, coh.spectra[2].s11)


def test_atomic_term_linear_in_density():
    a = run_atomic("linear", 1.0, b0=0.1)
    b = run_atomic("linear", 1.0, b0=0.2)
    for comp in (1, 2):
        for key in KEYS:
            x = getattr(a[comp], key)
            y = getattr(b[comp], key)
            assert np.allclose(y, 2 * x, rtol=1e-13, atol=1e-18)


@pytest.mark.parametrize("mode,det", [
    ("circular", 0.0),
    ("circular", 1.0),
    ("linear", 0.0),
    ("linear", 1.0),
])
def test_structural_identities(mode, det):
    """S21 = conj(S12); S11_at = S22_at; diagonal entries real.

    The first is Hermiticity of the force correlations; the second says
    the added inelastic spectrum is even in the fluctuation frequency (for
    purely radiative damping this holds even at nonzero detuning), which
    is also what preserves the field commutator at this order.
    """
    atomic = run_atomic(mode, 1.0, det, b0=0.2)
    for comp in (1, 2):
        at = atomic[comp]
        scale = max(np.abs(np.asarray(at.s11)).max(), 1e-30)
        assert np.abs(at.s21 - np.conj(at.s12)).max() < 1e-10 * max(scale, 1)
        assert np.abs(at.s11 - at.s22).max() < 1e-10 * max(scale, 1)
        assert np.abs(np.asarray(at.s11).imag).max() < 1e-10 * max(scale, 1)


def test_circular_drive_adds_nothing_to_orthogonal_mode():
    """Optical pumping closes the stretched pair: decay from (e, M=Fe)
    emits only into the driven circular mode, so e2 stays exactly vacuum."""
    atomic = run_atomic("circular", 1.0, b0=0.3)
    for key in KEYS:
        assert np.abs(getattr(atomic[2], key)).max() < 1e-15


def test_cross_polarization_correlations_vanish():
    """Magnetic-number conservation kills e1 x e2 correlations.

    Every projection of C(+-Omega) between a dipole vector of e1 and one of
    e2 vanishes, scaled by k2 = b0/4 as propagate scales S, whether the
    kernels come from two atomic_response inversions per point or from
    `Atoms.correlations`.
    """
    k2 = 0.25 * 0.2
    for mode in ("circular", "linear"):
        scheme, liou, steady, diff = system(mode, 1.0, 0.5)
        inverted = [
            (atomic_response(liou, diff, w)[1], atomic_response(liou, diff, -w)[1])
            for w in GRID
        ]
        routes = {
            "atomic_response": projections(dipoles(liou), inverted),
            "kernel": Atoms(liou, steady, diff, GRID).correlations,
        }
        for route, pair in routes.items():
            for forms in pair:
                cross = np.concatenate((forms[:, :2, 2:], forms[:, 2:, :2]))
                assert k2 * np.abs(cross).max() < 1e-14, (mode, route)


def resolvent_calls(monkeypatch, grid):
    """Omega of every resolvent compute_point inverts on `grid`: +|Omega|
    only, since R(-|Omega|) is mirrored from it."""
    calls = []
    original = zeenoise.propagation._resolvent

    def counting(drift, omega):
        calls.append(omega)
        return original(drift, omega)

    monkeypatch.setattr(zeenoise.propagation, "_resolvent", counting)
    scenario = Scenario(
        name="count", fg=1, fe=2, polarization="linear",
        rabi=1.0, detuning=0.0, b0=0.1, grid=grid,
    )
    (scheme, drive, medium, input_matrix), _ = point_inputs(scenario)
    compute_point(scenario, medium, input_matrix,
                  *solve_atoms(scenario, scheme, drive))
    omegas = grid.build()
    assert np.array_equal(sorted(calls), np.unique(np.abs(omegas)))
    return calls


def test_symmetrized_grid_evaluates_each_kernel_once(monkeypatch):
    """R(+|Omega|) is inverted once and feeds both C(+-|Omega|)."""
    grid = GridSpec(0.1, 2.0, 4, "linear", symmetrize=True)
    assert len(resolvent_calls(monkeypatch, grid)) == grid.build().size // 2 == 4


def test_one_sided_grid_inverts_each_resolvent_once(monkeypatch):
    """C(-Omega) of a one-sided grid reuses the resolvent of C(+Omega)."""
    grid = GridSpec(0.1, 2.0, 4, "log")
    assert len(resolvent_calls(monkeypatch, grid)) == grid.build().size


@pytest.mark.parametrize("values, inversions", [((0.0,), 0), ((0.0, 0.1, 0.2), 4)])
def test_b0_sweep_inverts_each_resolvent_once(
    tmp_path, monkeypatch, values, inversions
):
    """The points of a b0 sweep share one set of resolvents, and points at
    b0 = 0 need none."""
    calls = []
    original = zeenoise.propagation._resolvent

    def counting(drift, omega):
        calls.append(omega)
        return original(drift, omega)

    monkeypatch.setattr(zeenoise.propagation, "_resolvent", counting)
    scenario = Scenario(
        name="count", fg=1, fe=2, polarization="linear",
        rabi=1.0, detuning=0.0, b0=0.1, grid=GridSpec(0.1, 2.0, 4, "log"),
        sweep=SweepSpec("b0", values),
    )
    run_scenario(scenario, tmp_path)
    assert len(calls) == inversions


F_PAIRS = [(0.5, 1.5), (1, 1), (1, 2), (2, 1), (1.5, 1.5), (2, 3), (4, 5)]


def factor_swap(n):
    """P as an index array: entry a + n*b holds b + n*a."""
    return np.arange(n * n).reshape(n, n).T.ravel()


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("fg, fe", F_PAIRS, ids=str)
@settings(max_examples=5, deadline=None)
@given(
    rabi=st.floats(1e-3, 1e3),
    detuning=st.floats(-1e3, 1e3),
    omega=st.floats(1e-3, 1e3),
)
def test_drift_is_conjugation_symmetric_under_factor_swap(
    fg, fe, mode, rabi, detuning, omega
):
    """conj(M) = P M P and i w I - M = P conj(-i w I - M) P hold bit for bit,
    so the mirrored R(-|Omega|) inverts exactly the matrix a second
    inversion would."""
    scheme = LevelScheme(fg=fg, fe=fe)
    drive = DriveConfig(PolarizationMode(mode), rabi, detuning)
    m = build_generator(scheme, drive).drift
    swap = np.ix_(*[factor_swap(scheme.n)] * 2)
    assert np.array_equal(m.conj(), m[swap])
    eye = np.eye(m.shape[0])
    assert np.array_equal(1j * omega * eye - m, (-1j * omega * eye - m)[swap].conj())


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("omega", [1e-14, -1e-14])
def test_screen_guards_the_mirrored_half(mode, omega):
    """A grid point at +-1e-14 sits on the steady-state zero mode; the
    screen on R(+|Omega|) rejects it whichever sign the grid holds."""
    scheme, liou, steady, diff = system(mode, 1.0, 0.4)
    atoms = Atoms(liou, steady, diff, [omega, 0.5])
    with pytest.raises(NumericalError, match=r"Omega = 1e-14\b"):
        propagate(excess_noise_input(0.0, 0.0), MediumParams(0.1), atoms)


_UP_TO_MAX = st.floats(0.0, 1e308)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    polarization=st.sampled_from(["circular", "linear"]),
    rabi=st.floats(1e-3, 1e3),
    detuning=st.floats(-1e3, 1e3),
    b0=_UP_TO_MAX,
    eps_a=_UP_TO_MAX,
    eps_p=_UP_TO_MAX,
    theta=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
)
@example(polarization="linear", rabi=1.0, detuning=0.0, b0=0.1,
         eps_a=0.0, eps_p=0.0, theta=1e308)
@example(polarization="linear", rabi=1.0, detuning=0.0, b0=0.1,
         eps_a=1e308, eps_p=1e308, theta=None)
def test_compute_point_is_finite_or_raises_physics_error(
    polarization, rabi, detuning, b0, eps_a, eps_p, theta
):
    """A point that passes validation has every column finite, or ends in a
    documented exit-3 error; theta None is the amplitude quadrature."""
    scenario = Scenario(
        name="any", fg=1, fe=2, polarization=polarization,
        rabi=rabi, detuning=detuning, b0=b0, grid=GridSpec(0.01, 10.0, 3),
        eps_a=eps_a, eps_p=eps_p, oracles=("qrt", "mollow"),
        quadrature_theta=theta,
    )
    if validate_scenario(scenario)[1]:
        return  # exit 2 before anything is solved
    try:
        (scheme, drive, medium, input_matrix), _ = point_inputs(scenario)
        columns, _ = compute_point(scenario, medium, input_matrix,
                                   *solve_atoms(scenario, scheme, drive))
    except NumericalError:
        return
    for name, column in columns.items():
        assert column is None or np.all(np.isfinite(column)), name


SIGNED_GRID = np.array([-1.5, 0.2, 3.0])


@settings(max_examples=40, deadline=None)
@given(
    polarization=st.sampled_from(["circular", "linear"]),
    f_pair=st.sampled_from([(0.5, 1.5), (1, 2), (2, 3)]),
    rabi=st.floats(0.05, 5.0),
    detuning=st.floats(-3.0, 3.0),
    b0=st.one_of(st.just(0.0), st.floats(1e-9, 0.5)),  # k2 stays normal
    eps_a=st.floats(0.0, 100.0),
    eps_p=st.floats(0.0, 100.0),
)
def test_output_keeps_the_field_invariants(
    polarization, f_pair, rabi, detuning, b0, eps_a, eps_p
):
    """S21 = conj S12, real diagonals, the input's S11 - S22 (the
    commutator), identity at b0 = 0, and the input plus the test's own
    atomic_term bit for bit at b0 and 2 b0 (so an atomic term linear in
    b0), for both components."""
    scheme = LevelScheme(*f_pair)
    drive = DriveConfig(PolarizationMode(polarization), rabi, detuning)
    liou = build_generator(scheme, drive)
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), SIGNED_GRID)
    inp = excess_noise_input(eps_a, eps_p)
    inputs = {1: inp, 2: excess_noise_input(0.0, 0.0)}
    out = propagate(inp, MediumParams(b0), atoms)
    doubled = propagate(inp, MediumParams(2 * b0), atoms)
    empty = propagate(inp, MediumParams(0.0), atoms)
    atomic = atomic_term(0.25 * b0, *atoms.correlations)
    assert_output_is_input_plus(out, inp, atomic)
    assert_output_is_input_plus(
        doubled, inp, atomic_term(0.25 * (2 * b0), *atoms.correlations)
    )
    for comp in (1, 2):
        spectra, given = out.spectra[comp], inputs[comp]
        scale = max(np.abs(getattr(atomic[comp], key)).max() for key in KEYS)
        tol = 1e-12 * scale + 1e-14 * given.s11.real
        assert np.abs(spectra.s21 - spectra.s12.conj()).max() <= tol
        assert np.abs(spectra.s11.imag).max() <= tol
        assert np.abs(spectra.s22.imag).max() <= tol
        commutator = spectra.s11 - spectra.s22
        assert np.abs(commutator - (given.s11 - given.s22)).max() <= tol
        for key in KEYS:
            assert np.all(getattr(empty.spectra[comp], key) == getattr(given, key))
    assert empty.carrier[1] == 1.0 and empty.phi[1] == 0.0
    assert empty.carrier[2] == 0.0 and empty.phi[2] == 0.0


def mirrored_kernels(liou, two_d, w):
    """Full C(w) and C(-w) from one inversion at |w| and its conjugate
    mirror, the route `Atoms.correlations` takes, one grid point at a time.
    The resolvent is formed and inverted here, and mirrored by a gather
    through P, independently of `_resolvent` and of the kernel's strided
    mirror, so a bit moved in either shows."""
    m = liou.drift
    r_abs = np.linalg.inv(-1j * float(abs(w)) * np.eye(m.shape[0]) - m)
    r_mir = r_abs[np.ix_(*[factor_swap(liou.n)] * 2)].conj()
    c_abs, c_mir = r_abs @ two_d @ r_mir.T, r_mir @ two_d @ r_abs.T
    return (c_abs, c_mir) if w >= 0 else (c_mir, c_abs)


def projections(x, kernels):
    """(at, mirrored) as `Atoms.correlations` returns them, from (C(w),
    C(-w)) per grid point, projected as x[:, S] @ C[S, :] @ x.T with S the
    joint support of x."""
    support = np.flatnonzero(np.abs(x).sum(axis=0))
    forms = np.array(
        [[x[:, support] @ c[support] @ x.T for c in pair] for pair in kernels]
    )
    return forms[:, 0], forms[:, 1]


def assert_atomic_term_matches(atoms, liou, two_d, b0):
    """Bit for bit against per-point mirrored kernels: all 16 projections
    of each sign, and propagate's output as the input plus the test's
    atomic_term of them. Against two atomic_response inversions per point
    within 1e-13 of each S entry's maximum, or 1e-10 on grids that reach
    down to Omega = 1e-3, where the steady-state zero mode leaves fewer
    digits."""
    grid, k2 = atoms.grid, 0.25 * b0
    x = dipoles(liou)
    exact = projections(x, [mirrored_kernels(liou, two_d, w) for w in grid])
    inverted = [
        (atomic_response(liou, two_d, w)[1], atomic_response(liou, two_d, -w)[1])
        for w in grid
    ]
    for got, want in zip(atoms.correlations, exact):
        assert np.array_equal(got, want)
    atomic = atomic_term(k2, *exact)
    coherent = excess_noise_input(0.0, 0.0)
    assert_output_is_input_plus(propagate(coherent, MediumParams(b0), atoms),
                                coherent, atomic)
    reference = atomic_term(k2, *projections(x, inverted))
    tol = 1e-13 if np.abs(grid).min() >= 0.1 else 1e-10
    for comp in (1, 2):
        for key in KEYS:
            got, ref = getattr(atomic[comp], key), getattr(reference[comp], key)
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max(), (comp, key)


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("grid", [
    GridSpec(1e-3, 12.0, 6, "log").build(),
    GridSpec(0.1, 3.0, 3, "linear", symmetrize=True).build(),
    np.array([2.0, -0.5, 1e-3, 0.5, 2.0, -2.0]),
    np.array([-3.0, -0.2, -0.2, -1e-3]),
], ids=["log", "symmetrized", "repeated", "negative"])
def test_atomic_term_is_bit_identical_to_per_omega_kernels(mode, grid):
    """Sharing R(+|Omega|) and its mirror between C(+|Omega|) and
    C(-|Omega|), and forming only the support rows, changes no bit of the
    atomic term against full kernels built per grid point; the mirror stays
    within round-off of a second inversion at -|Omega|."""
    scheme, liou, steady, diff = system(mode, 1.0, 0.4)
    assert_atomic_term_matches(Atoms(liou, steady, diff, grid), liou, diff, 0.2)


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("fg, fe", [(2, 3), (4, 5)], ids=str)
def test_support_rows_are_bit_identical_at_larger_f(fg, fe, mode):
    """The dipole supports here (20 and 30 of 144 rows, 36 and 54 of 400)
    include sizes off the BLAS tile; forming only those rows of C(+-Omega)
    still changes no bit of the atomic term against full per-point kernels,
    and the mirror stays within round-off of atomic_response."""
    scheme = LevelScheme(fg=fg, fe=fe)
    drive = DriveConfig(basis=PolarizationMode(mode), rabi=1.0, detuning=0.4)
    liou = build_generator(scheme, drive)
    rho = steady_state(liou)
    two_d = diffusion_matrix(liou, rho)
    atoms = Atoms(liou, rho, two_d, np.array([0.5, -0.5, 2.0]))
    assert_atomic_term_matches(atoms, liou, two_d, 0.2)


def scratch_writes(monkeypatch, liou, rho, two_d, grid):
    """(matrix, its bytes) at every `_resolvent` call of one
    `Atoms.correlations` pass. The matrix is the kernel's scratch; the
    bytes are its first write at that |Omega|, and after the pass it still
    holds its last second write, the 2D of the last |Omega|'s products."""
    seen = []
    original = zeenoise.propagation._resolvent

    def recording(a, omega):
        seen.append((a, a.tobytes()))
        return original(a, omega)

    monkeypatch.setattr(zeenoise.propagation, "_resolvent", recording)
    Atoms(liou, rho, two_d, grid).correlations
    return seen


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("fg, fe", [(1, 2), (4, 5)], ids=str)
def test_scratch_rebuilds_m_and_2d_bitwise(monkeypatch, fg, fe, mode):
    """The one scratch matrix holds np.subtract(0.0, M) with -i|Omega| on
    its diagonal when it is inverted, then 2D in diffusion_matrix's
    column-major layout: byte for byte the dense arrays of the products."""
    scheme = LevelScheme(fg=fg, fe=fe)
    liou = build_generator(scheme, DriveConfig(PolarizationMode(mode), 0.9, -0.14))
    rho = steady_state(liou)
    two_d = diffusion_matrix(liou, rho)
    seen = scratch_writes(monkeypatch, liou, rho, two_d, [0.5, -2.0, 2.0])
    assert len(seen) == 2
    for (_, first), w in zip(seen, (0.5, 2.0)):
        shifted = np.subtract(0.0, liou.drift)
        shifted[np.diag_indices_from(shifted)] -= 1j * w
        assert first == shifted.tobytes()
    scratch = seen[-1][0]
    assert seen[0][0] is scratch and scratch.flags.c_contiguous
    assert scratch.T.flags.f_contiguous and scratch.T.strides == two_d.strides
    assert scratch.T.tobytes() == two_d.tobytes()


def test_pairs_keep_signed_zeros(monkeypatch):
    """-0.0 in either part of an entry survives the compact form and the
    scratch rebuilds it byte for byte; only entries that are +0.0 in both
    parts are dropped."""
    scheme, liou, steady, diff = system("linear", 1.0, 0.4)
    signed = diff.copy(order="F")
    signed[0, 1], signed[1, 0], signed[2, 2] = -0.0, complex(0.0, -0.0), -0.0 - 0.0j
    index, value = _pairs(signed.T)
    assert index.size == np.count_nonzero(signed) + 3
    assert np.signbit(value.real).any() and np.signbit(value.imag).any()
    scratch = scratch_writes(monkeypatch, liou, steady, signed, [0.5])[-1][0]
    assert scratch.T.tobytes() == signed.tobytes() != diff.tobytes()


@pytest.mark.parametrize("mode", ["circular", "linear"])
def test_atoms_retains_less_than_a_quarter_of_a_dense_matrix(mode):
    """Once the Liouvillian and the dense 2D are dropped, an F=4->5 `Atoms`
    retains its compact M and 2D (about 0.19 of one dense n^2 x n^2 array
    with its other attributes), not the dense arrays."""
    scheme = LevelScheme(fg=4, fe=5)
    drive = DriveConfig(PolarizationMode(mode), rabi=0.9, detuning=-0.14)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        liou = build_generator(scheme, drive)
        rho = steady_state(liou)
        atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), GRID)  # kept alive
        del liou
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    dense = scheme.n**4 * 16
    assert retained < 0.25 * dense, retained / dense


@pytest.mark.parametrize("mode", ["circular", "linear"])
def test_correlations_peak_holds_no_kernel_matrix(mode):
    """At F=4->5 one `correlations` pass peaks at about 3.3-3.4 dense
    n^2 x n^2 arrays (the scratch, R(+|Omega|), the inversion's work
    buffer), with no n^2 x n^2 kernel array beside them (4.2-4.3 with one)."""
    scheme = LevelScheme(fg=4, fe=5)
    liou = build_generator(scheme, DriveConfig(PolarizationMode(mode), 1.0, 0.4))
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), [0.5, -0.5, 2.0])
    del liou, rho
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        atoms.correlations
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    dense = scheme.n**4 * 16
    assert peak <= 3.75 * dense, peak / dense


def reference_forms(liou, two_d, omegas):
    """Every projection x_i^T C(+-w) x_j of `Atoms.correlations` at 40
    digits, as an (omega, sign, i, j) array with sign 0 at +w and 1 at -w,
    taking M and 2D as exact.

    R(+-w)^T x is solved for each dipole vector x one connected component
    of M's own nonzero pattern at a time. Each solution is deflated on the
    trace row t = vec(I), which is the same as using Q 2D Q with
    Q = I - t t^T / n: t.M = 0 holds exactly but t.2D = 0 only to
    round-off, and R(w) has a 1/w pole along t that would amplify that
    residue into the reference."""
    mp, m, n = mpmath.mp, liou.drift, liou.n
    count, labels = connected_components(m != 0, connection="weak")
    blocks = [np.flatnonzero(labels == label) for label in range(count)]
    xs = dipoles(liou)
    trace = np.flatnonzero(vec(np.eye(n)))
    out = []
    with mp.workdps(40):
        rows = [[(j, mp.mpc(two_d[i, j])) for j in np.flatnonzero(two_d[i])]
                for i in range(n * n)]
        for w in omegas:
            u = {s: [[mp.mpc(0)] * n * n for _ in xs] for s in (1, -1)}
            for s, idx in itertools.product(u, blocks):
                a_t = mp.matrix((-m[np.ix_(idx, idx)]).T.tolist())
                for p in range(len(idx)):
                    a_t[p, p] -= mp.mpc(0, s * w)  # (-i s w I - M)^T on the block
                for x, col in zip(xs, u[s]):
                    if x[idx].any():
                        sol = mp.lu_solve(a_t, mp.matrix(x[idx].tolist()))
                        for p, i in enumerate(idx):
                            col[i] = sol[p]
            for col in u[1] + u[-1]:
                mean = mp.fsum(col[i] for i in trace) / n
                for i in trace:
                    col[i] -= mean

            # x_j^T C(s w) x_k = u_j(s)^T 2D u_k(-s) = u_j(s)^T v_k(s)
            v = {s: [[mp.fsum(d * col[j] for j, d in row) for row in rows]
                     for col in u[-s]] for s in u}
            out.append([
                [[complex(mp.fsum(a * b for a, b in zip(left, right)))
                  for right in v[s]] for left in u[s]]
                for s in (1, -1)
            ])
    return np.array(out)


REFERENCE_OMEGAS = [1e-4, 1e-3, 1e-2, 0.1, 1.0]
# The driven component's error below Omega = 0.1 is ROADMAP item 2's trace
# residue: t.2D = 0 only to ~1e-17, and C(Omega) amplifies it by 1/Omega^2.
# Item 12's basis removes it; until then these ceilings hold it where it is
# (over the driven 2 x 2 block of both signs, 4.4e-10, 5.7e-12 and 3.9e-14
# measured on a Xeon with OpenBLAS 0.3.31; over the four S forms alone,
# 1.0e-9, 1.0e-11 and 8.5e-14).
TRACE_RESIDUE_CEILINGS = {1e-4: 2e-9, 1e-3: 2e-11, 1e-2: 2e-13}
DRIVEN, ORTHOGONAL = slice(0, 2), slice(2, 4)  # each component's dg, lo in x


@pytest.mark.parametrize("mode", ["circular", "linear"])
def test_correlations_match_a_40_digit_reference(mode):
    """At F=1->2, Omega1 = 1, Delta = 0.4, all 16 projections of both signs
    match: each component's own 2 x 2 block within 1e-13 of that block's
    largest entry at that Omega, apart from the driven block's trace
    residue below Omega = 0.1, and the e1 x e2 blocks (zero by
    magnetic-number conservation; ~1e-28 measured) within 1e-13 of the
    largest of all 16."""
    scheme = LevelScheme(fg=1, fe=2)
    liou = build_generator(scheme, DriveConfig(PolarizationMode(mode), 1.0, 0.4))
    rho = steady_state(liou)
    two_d = diffusion_matrix(liou, rho)
    ref = reference_forms(liou, two_d, REFERENCE_OMEGAS)
    got = np.stack(Atoms(liou, rho, two_d, REFERENCE_OMEGAS).correlations, axis=1)
    error = np.abs(got - ref)
    blocks = {
        "driven": (DRIVEN, DRIVEN), "orthogonal": (ORTHOGONAL, ORTHOGONAL),
        "e1 x e2": (DRIVEN, ORTHOGONAL), "e2 x e1": (ORTHOGONAL, DRIVEN),
    }
    for name, (rows, cols) in blocks.items():
        own = rows == cols
        scale = np.abs(ref[:, :, rows, cols] if own else ref).max(axis=(1, 2, 3))
        worst = error[:, :, rows, cols].max(axis=(1, 2, 3)) / scale
        for w, e in zip(REFERENCE_OMEGAS, worst):
            bound = TRACE_RESIDUE_CEILINGS.get(w, 1e-13) if name == "driven" else 1e-13
            assert e <= bound, (name, w, e)


@pytest.mark.parametrize("mode", ["circular", "linear"])
def test_projections_obey_the_frequency_sum_rule(mode):
    """The integral of x_i^T C(Omega) x_j over Omega / 2 pi is the
    covariance <X_i X_j> - <X_i><X_j> from rho, X = (D1+, D1, D2+, D2), for
    all 16 entries at F=1->2, Omega1 = 0.3, Delta = 0.5, within 5e-4 of
    max|cov|. The trapezoid over 600 log points per side (1e-7 ... 1e4) is
    off by 2.6e-4 in both modes (1.2e-3 at 300 points, 1.4e-5 at 1500)."""
    liou = build_generator(LevelScheme(fg=1, fe=2),
                           DriveConfig(PolarizationMode(mode), 0.3, 0.5))
    rho = steady_state(liou)
    side = np.logspace(-7, 4, 600)
    grid = np.concatenate((-side[::-1], side))
    at, _ = Atoms(liou, rho, diffusion_matrix(liou, rho), grid).correlations
    steps = np.diff(grid)[:, None, None]
    integral = ((at[1:] + at[:-1]) * steps).sum(axis=0) / 2 / (2 * np.pi)
    ops = [liou.drive.basis.operator(liou.scheme, comp) for comp in (1, 2)]
    xs = [v for op in ops for v in (op.conj().T, op)]
    mean = np.array([np.trace(rho @ a) for a in xs])
    second = np.array([[np.trace(rho @ a @ b) for b in xs] for a in xs])
    cov = second - np.outer(mean, mean)
    assert np.abs(integral - cov).max() <= 5e-4 * np.abs(cov).max()


def test_even_in_frequency_on_resonance():
    grid = np.array([0.2, 1.0, 4.0])
    out1 = run("linear", 1.0, 0.0, b0=0.2, grid=grid)
    out2 = run("linear", 1.0, 0.0, b0=0.2, grid=-grid)
    for comp in (1, 2):
        assert np.allclose(
            out1.spectra[comp].s11, out2.spectra[comp].s11, rtol=1e-10
        )
        assert np.allclose(
            out1.spectra[comp].s22, out2.spectra[comp].s22, rtol=1e-10
        )


class TestCarrier:
    def test_beer_lambert_weak_resonant(self):
        """Weak resonant transmission |t|^2 -> exp(-b0)."""
        out = run("circular", 1e-3, b0=0.3)
        assert abs(out.carrier[1]) ** 2 == pytest.approx(
            np.exp(-0.3), abs=2e-6
        )

    def test_transmission_below_unity(self):
        for mode in ("circular", "linear"):
            out = run(mode, 1.0, 0.7, b0=0.4)
            assert abs(out.carrier[1]) < 1.0

    def test_phase_equals_phi(self):
        out = run("circular", 0.5, 1.0, b0=0.3)
        assert amplitude_quadrature_angle(out.carrier[1]) == pytest.approx(
            out.phi[1], abs=1e-12
        )

    def test_phi_linear_in_density(self):
        scheme, liou, steady, diff = system("circular", 0.5, 1.0)
        p1 = phi(liou, diff, steady, 0.1)
        p2 = phi(liou, diff, steady, 0.2)
        assert p2 == pytest.approx(2 * p1, rel=1e-14)

    def test_phi_odd_in_detuning(self):
        _, liou_p, st_p, diff_p = system("circular", 0.3, +0.7)
        _, liou_m, st_m, diff_m = system("circular", 0.3, -0.7)
        pp = phi(liou_p, diff_p, st_p, 0.2)
        pm = phi(liou_m, diff_m, st_m, 0.2)
        assert pp == pytest.approx(-pm, rel=1e-12)
        assert pp != 0.0

    def test_phi_zero_on_resonance(self):
        _, liou, steady, diff = system("circular", 0.8, 0.0)
        assert phi(liou, diff, steady, 0.2) == pytest.approx(0.0, abs=1e-14)

    def test_phi_matches_weak_drive_susceptibility(self):
        """Weak drive: phi / b0 follows the closed-form linear response."""
        det = 1.0
        _, liou, steady, diff = system("circular", 1e-3, det)
        p = phi(liou, diff, steady, 0.2)
        ref = two_level_reference(1e-3, det).susceptibility
        # carrier susceptibility is (b0/2) * linear response at weak drive
        assert p == pytest.approx(0.1 * ref.real, rel=1e-3)

    def test_dephasing_argument_errors(self):
        """The carrier update is undefined at zero Rabi frequency."""
        scheme, _, steady, diff = system("circular", 0.5)
        undriven = build_generator(
            scheme,
            DriveConfig(
                basis=PolarizationMode.CIRCULAR, rabi=0.0
            ),
        )
        with pytest.raises(ArgumentError):
            phi(undriven, diff, steady, 0.1)


class TestAtomicResponse:
    def test_kernel_decays_as_inverse_frequency_squared(self):
        _, liou, steady, diff = system("linear", 1.0)
        _, c1 = atomic_response(liou, diff, 200.0)
        _, c2 = atomic_response(liou, diff, 400.0)
        ratio = np.linalg.norm(c1) / np.linalg.norm(c2)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_resolvent_shape(self):
        _, liou, steady, diff = system("circular", 1.0)
        r, c = atomic_response(liou, diff, 0.5)
        assert r.shape == (64, 64)
        assert c.shape == (64, 64)

    def test_zero_frequency_is_rejected(self):
        from zeenoise import NumericalError

        _, liou, steady, diff = system("circular", 1.0)
        with pytest.raises(NumericalError):
            atomic_response(liou, diff, 0.0)
