"""Thin-medium propagation: output spectral matrices and the carrier."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zeenoise.propagation
from zeenoise import (
    ArgumentError,
    DriveConfig,
    LevelScheme,
    MediumParams,
    PolarizationMode,
    amplitude_quadrature_angle,
    build_generator,
    diffusion_matrix,
    excess_noise_input,
    propagate,
    steady_state,
)
from zeenoise.conventions import vec
from zeenoise.errors import PHYSICS_ERRORS
from zeenoise.oracles import two_level_reference
from zeenoise.propagation import atomic_correlations, atomic_response
from zeenoise.runner import Atoms, compute_point, run_scenario
from zeenoise.scenario import GridSpec, Scenario, SweepSpec

GRID = np.array([1e-3, 0.1, 0.7, 3.0, 12.0])


def system(mode, rabi, detuning=0.0, gamma=1.0):
    scheme = LevelScheme(fg=1, fe=2, gamma=gamma)
    basis = PolarizationMode(mode)
    drive = DriveConfig(basis=basis, rabi=rabi, detuning=detuning)
    liou = build_generator(scheme, drive)
    steady = steady_state(liou)
    diff = diffusion_matrix(liou, steady)
    return scheme, liou, steady, diff


def run(mode, rabi, detuning=0.0, b0=0.1, input_matrix=None, grid=GRID, **kw):
    scheme, liou, steady, diff = system(mode, rabi, detuning)
    if input_matrix is None:
        input_matrix = excess_noise_input(0.0, 0.0)
    out = propagate(
        input_matrix, MediumParams(b0), liou, steady, grid,
        atomic_correlations(liou, diff, grid), **kw
    )
    return out


def phi(liou, diff, steady, b0):
    """Dephasing angle of the driven component after the medium."""
    out = propagate(
        excess_noise_input(0.0, 0.0), MediumParams(b0), liou, steady, [1.0],
        atomic_correlations(liou, diff, [1.0]),
    )
    return out.phi[1]


def test_medium_params_validation():
    with pytest.raises(ArgumentError):
        MediumParams(b0=-0.1)
    MediumParams(b0=0.0)


def test_empty_grid_rejected():
    scheme, liou, steady, diff = system("linear", 1.0)
    with pytest.raises(ArgumentError):
        propagate(
            excess_noise_input(0.0, 0.0),
            MediumParams(0.1),
            liou,
            steady,
            np.array([]),
            {},
        )


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
    a = run("linear", 1.0, b0=0.1)
    b = run("linear", 1.0, b0=0.2)
    for comp in (1, 2):
        for key in ("s11", "s12", "s21", "s22"):
            x = np.asarray(getattr(a.atomic[comp], key))
            y = np.asarray(getattr(b.atomic[comp], key))
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
    out = run(mode, 1.0, det, b0=0.2)
    for comp in (1, 2):
        at = out.atomic[comp]
        scale = max(np.abs(np.asarray(at.s11)).max(), 1e-30)
        assert np.abs(at.s21 - np.conj(at.s12)).max() < 1e-10 * max(scale, 1)
        assert np.abs(at.s11 - at.s22).max() < 1e-10 * max(scale, 1)
        assert np.abs(np.asarray(at.s11).imag).max() < 1e-10 * max(scale, 1)


def test_circular_drive_adds_nothing_to_orthogonal_mode():
    """Optical pumping closes the stretched pair: decay from (e, M=Fe)
    emits only into the driven circular mode, so e2 stays exactly vacuum."""
    out = run("circular", 1.0, b0=0.3)
    for key in ("s11", "s12", "s21", "s22"):
        assert np.abs(np.asarray(getattr(out.atomic[2], key))).max() < 1e-15


def test_cross_polarization_correlations_vanish():
    """Magnetic-number conservation kills e1 x e2 correlations.

    The e1 x e2 block is formed from the fluctuation kernel exactly as
    propagate forms each component's own block, with k2 = b0*gamma/4.
    """
    k2 = 0.25 * 0.2
    for mode in ("circular", "linear"):
        scheme, liou, steady, diff = system(mode, 1.0, 0.5)
        ops = {c: liou.drive.basis.operator(scheme, c) for c in (1, 2)}
        lo = {c: vec(ops[c]) for c in ops}
        dg = {c: vec(ops[c].conj().T) for c in ops}
        for w in GRID:
            c_plus = atomic_response(liou, diff, w)[1]
            c_minus = atomic_response(liou, diff, -w)[1]
            cross = (
                k2 * (dg[2] @ c_minus @ lo[1]),   # S11
                -k2 * (lo[1] @ c_plus @ lo[2]),   # S12
                -k2 * (dg[1] @ c_plus @ dg[2]),   # S21
                k2 * (dg[1] @ c_plus @ lo[2]),    # S22
            )
            assert max(abs(entry) for entry in cross) < 1e-14


def resolvent_calls(monkeypatch, grid):
    """Omega of every resolvent compute_point inverts on `grid`."""
    calls = []
    original = zeenoise.propagation._resolvent

    def counting(drift, omega):
        calls.append(omega)
        return original(drift, omega)

    monkeypatch.setattr(zeenoise.propagation, "_resolvent", counting)
    scenario = Scenario(
        name="count", fg=1, fe=2, gamma=1.0, polarization="linear",
        rabi=1.0, detuning=0.0, b0=0.1, grid=grid,
    )
    compute_point(scenario, Atoms(scenario))
    omegas = grid.build()
    assert np.array_equal(
        sorted(calls), np.unique(np.concatenate([omegas, -omegas]))
    )
    return calls


def test_symmetrized_grid_evaluates_each_kernel_once(monkeypatch):
    """R(+-|Omega|) is inverted once and feeds both C(+-|Omega|)."""
    grid = GridSpec(0.1, 2.0, 4, "linear", symmetrize=True)
    assert len(resolvent_calls(monkeypatch, grid)) == grid.build().size == 8


def test_one_sided_grid_inverts_each_resolvent_once(monkeypatch):
    """C(-Omega) of a one-sided grid reuses the resolvents of C(+Omega)."""
    grid = GridSpec(0.1, 2.0, 4, "log")
    assert len(resolvent_calls(monkeypatch, grid)) == 2 * grid.build().size


@pytest.mark.parametrize("values, inversions", [((0.0,), 0), ((0.0, 0.1, 0.2), 8)])
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
        name="count", fg=1, fe=2, gamma=1.0, polarization="linear",
        rabi=1.0, detuning=0.0, b0=0.1, grid=GridSpec(0.1, 2.0, 4, "log"),
        sweep=SweepSpec("b0", values),
    )
    run_scenario(scenario, tmp_path)
    assert len(calls) == inversions


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
    """Every column is finite, or the point ends in a documented exit-3 error;
    theta None is the amplitude quadrature."""
    scenario = Scenario(
        name="any", fg=1, fe=2, gamma=1.0, polarization=polarization,
        rabi=rabi, detuning=detuning, b0=b0, grid=GridSpec(0.01, 10.0, 3),
        eps_a=eps_a, eps_p=eps_p, oracles=("qrt", "mollow"),
        quadrature_theta=theta,
    )
    try:
        columns, _ = compute_point(scenario, Atoms(scenario))
    except PHYSICS_ERRORS:
        return
    for name, column in columns.items():
        assert column is None or np.all(np.isfinite(column)), name


@pytest.mark.parametrize("mode", ["circular", "linear"])
@pytest.mark.parametrize("grid", [
    GridSpec(1e-3, 12.0, 6, "log").build(),
    GridSpec(0.1, 3.0, 3, "linear", symmetrize=True).build(),
    np.array([2.0, -0.5, 1e-3, 0.5, 2.0, -2.0]),
], ids=["log", "symmetrized", "repeated"])
def test_atomic_term_is_bit_identical_to_per_omega_kernels(mode, grid):
    """Sharing R(+-|Omega|) between C(+|Omega|) and C(-|Omega|) changes no
    bit of the atomic term against one atomic_response call per sign."""
    b0, det = 0.2, 0.4
    out = run(mode, 1.0, det, b0=b0, grid=grid)
    scheme, liou, steady, diff = system(mode, 1.0, det)
    k2 = 0.25 * b0 * scheme.gamma
    for comp in (1, 2):
        op = liou.drive.basis.operator(scheme, comp)
        lo = vec(op)
        dg = vec(op.conj().T)
        expected = [[], [], [], []]
        for w in grid:
            c_plus = atomic_response(liou, diff, w)[1]
            c_minus = atomic_response(liou, diff, -w)[1]
            expected[0].append(k2 * (dg @ c_minus @ lo))
            expected[1].append(-k2 * (lo @ c_plus @ lo))
            expected[2].append(-k2 * (dg @ c_plus @ dg))
            expected[3].append(k2 * (dg @ c_plus @ lo))
        at = out.atomic[comp]
        for key, values in zip(("s11", "s12", "s21", "s22"), expected):
            assert np.array_equal(getattr(at, key), values), (comp, key)


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


def test_dilation_invariance_end_to_end():
    """All spectra are functions of (Omega/gamma, rabi/gamma, det/gamma)."""
    s = 2.0
    base = run("linear", 0.8, 0.3, b0=0.2)
    scheme, liou, steady, diff = system("linear", s * 0.8, s * 0.3, gamma=s)
    scaled = propagate(
        excess_noise_input(0.0, 0.0),
        MediumParams(0.2),
        liou,
        steady,
        s * GRID,
        atomic_correlations(liou, diff, s * GRID),
    )
    for comp in (1, 2):
        assert np.allclose(
            base.spectra[comp].s11, scaled.spectra[comp].s11, rtol=1e-12
        )
        assert np.allclose(
            base.spectra[comp].s22, scaled.spectra[comp].s22, rtol=1e-12
        )
    assert base.carrier[1] == pytest.approx(scaled.carrier[1], rel=1e-12)


class TestAtomicResponse:
    def test_no_diffusion_no_fluctuations(self):
        scheme = LevelScheme(fg=1, fe=2, gamma=0.0)
        basis = PolarizationMode.LINEAR
        liou = build_generator(scheme, DriveConfig(basis=basis, rabi=0.0))
        rho = np.eye(8, dtype=complex) / 8
        diff = diffusion_matrix(liou, rho)
        _, c = atomic_response(liou, diff, 1.0)
        assert np.abs(c).max() < 1e-14

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
