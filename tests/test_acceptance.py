"""End-to-end acceptance checks for the transmission-noise pipeline.

Each test exercises the full chain (level scheme -> steady state ->
diffusion -> propagation -> observables) against an independent reference
or a structural feature of the physics: oracle equivalence, Raman-peak
scaling, multiplet structure, squeezing systematics, phase-noise
conversion, invariants, and bit-level determinism of the CLI presets.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zeenoise.propagation
from zeenoise import (
    DriveConfig,
    LevelScheme,
    MediumParams,
    PolarizationMode,
    amplitude_quadrature_angle,
    build_generator,
    diffusion_matrix,
    excess_noise_input,
    optical_spectrum,
    propagate,
    quadrature_noise,
    steady_state,
)
from zeenoise.angular import dipole_component
from zeenoise.oracles import mollow_spectrum, qrt_spectrum
from zeenoise.propagation import Atoms
from zeenoise.cli import main

from helpers import peak_census, pumped_populations, sublevel, zero_peak_half_width

SCHEME = LevelScheme(fg=1, fe=2)
B0 = 0.1
KAPPA2 = 0.25 * B0


def run_pipeline(pol, rabi, det, b0, grid, eps_a=0.0, eps_p=0.0, scheme=SCHEME):
    basis = PolarizationMode(pol)
    drive = DriveConfig(basis=basis, rabi=rabi, detuning=det)
    liou = build_generator(scheme, drive)
    steady = steady_state(liou)
    diff = diffusion_matrix(liou, steady)
    inp = excess_noise_input(eps_a, eps_p)
    out = propagate(inp, MediumParams(b0=b0), Atoms(liou, steady, diff, grid))
    return liou, steady, basis, out


def amplitude_noise(out, comp):
    theta = amplitude_quadrature_angle(out.carrier[1])
    return quadrature_noise(out.spectra[comp], theta)


def test_circular_drive_reproduces_mollow_triplet(monkeypatch):
    """Driven-mode optical spectrum == Mollow lineshape, sidebands at the
    Rabi frequency; each drive inverts R(+Omega) once per grid point and
    mirrors R(-Omega) from it."""
    inversions = []
    original = zeenoise.propagation._resolvent

    def counting(drift, omega):
        inversions.append(omega)
        return original(drift, omega)

    monkeypatch.setattr(zeenoise.propagation, "_resolvent", counting)
    grid = np.logspace(np.log10(1e-2), np.log10(20.0), 320)
    step = grid[1] / grid[0]
    for rabi in (0.1, 1.0, 5.0):
        _, _, _, out = run_pipeline("circular", rabi, 0.0, B0, grid)
        values = optical_spectrum(out.spectra[1])
        model = KAPPA2 * mollow_spectrum(grid, rabi, 0.0)
        scale = float(np.dot(values, model) / np.dot(model, model))
        rel = np.linalg.norm(values - scale * model) / np.linalg.norm(values)
        assert rel < 1e-6, f"rabi={rabi}: relative L2 mismatch {rel:.3e}"
        # sidebands (resolved only at strong drive) sit at the Rabi
        # frequency to within one multiplicative grid step
        peaks = peak_census(grid, values, prominence=0.001)
        for p in peaks:
            assert abs(np.log(p.position / rabi)) <= np.log(step)
        if rabi == 5.0:
            assert len(peaks) == 1
    assert len(inversions) == 3 * grid.size == 3 * 320
    assert min(inversions) > 0


SIGNED_GRID = np.array([-4.0, -1.1, -0.05, 0.2, 1.3, 6.0])  # no +- pairs


@settings(max_examples=25, deadline=None)
@given(
    fg=st.sampled_from([0.5, 1, 1.5, 2]),
    rabi=st.floats(0.3, 5.0),
    detuning=st.floats(-1.5, 1.5),
    b0=st.floats(1e-3, 0.5),
)
@example(fg=4, rabi=1.0, detuning=0.0, b0=0.1)
@example(fg=4, rabi=0.3, detuning=-1.5, b0=0.2)
def test_circular_drive_on_f_to_f_plus_1_is_a_two_level_atom(
    fg, rabi, detuning, b0
):
    """The paper's anchor: circular drive pumps F -> F+1 into the stretched
    pair, so the driven-mode optical spectrum is (b0/4) times the
    two-level Mollow spectrum at every signed grid point. The drive is kept
    to Rabi frequency >= 0.3 and |detuning| <= 1.5: the slower the pumping,
    the more digits the steady state loses (3e-11 of the column maximum at
    F = 1->2, rabi = 0.2, detuning = 3), whichever kernel runs."""
    scheme = LevelScheme(fg=fg, fe=fg + 1)
    drive = DriveConfig(PolarizationMode.CIRCULAR, rabi, detuning)
    liou = build_generator(scheme, drive)
    rho = steady_state(liou)
    atoms = Atoms(liou, rho, diffusion_matrix(liou, rho), SIGNED_GRID)
    out = propagate(excess_noise_input(0.0, 0.0), MediumParams(b0), atoms)
    s_opt = optical_spectrum(out.spectra[1])
    model = 0.25 * b0 * mollow_spectrum(SIGNED_GRID, rabi, detuning)
    assert np.abs(s_opt - model).max() <= 1e-10 * np.abs(model).max()


# Linear drive where the spectrum is not round-off (1->1 pumps into a dark
# sublevel; 2->1 is degenerate), and circular drive on F -> F+1.
DRIVE_CASES = [
    ("linear", 0.5, 1.5), ("linear", 1, 2), ("linear", 1.5, 1.5),
    ("linear", 2, 3), ("circular", 0.5, 1.5), ("circular", 1, 2),
    ("circular", 1.5, 2.5), ("circular", 2, 3),
]
QRT_GRID = np.logspace(np.log10(1e-2), np.log10(20.0), 12)
FORMS_GRID = np.array([-3.0, -0.7, -0.05, 0.02, 0.3, 1.1, 4.0])


def regression_correlation(liou, rho, a_op, b_op, omega):
    """FT<dA(t) dB(0)>(omega) from the regression theorem on G alone: the
    t > 0 branch is qrt_spectrum(A, B) and, since G preserves
    Hermiticity, the t < 0 branch is conj(qrt_spectrum(B+, A+))."""
    forward = qrt_spectrum(liou, rho, a_op, b_op, omega)
    backward = qrt_spectrum(liou, rho, b_op.conj().T, a_op.conj().T, omega)
    return forward + np.conj(backward)


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from(DRIVE_CASES),
    rabi=st.floats(0.3, 5.0),
    detuning=st.floats(-1.5, 1.5),
)
@example(case=("circular", 1, 2), rabi=0.1, detuning=0.0)
@example(case=("circular", 1, 2), rabi=0.1, detuning=1.0)
@example(case=("linear", 1, 2), rabi=0.1, detuning=0.0)
@example(case=("linear", 1, 2), rabi=0.1, detuning=1.0)
@example(case=("linear", 4, 5), rabi=0.8, detuning=-0.6)
def test_fluctuation_spectra_match_regression_theorem(case, rabi, detuning):
    """Einstein-diffusion route == quantum-regression route for all four
    entries of the atomic spectral matrix, so for the optical spectrum and
    the quadrature noise at any angle, both output modes, on a signed grid,
    within 1e-8 of the driven mode's largest reference entry. With D each
    mode's dipole lowering operator and k2 = b0 / 4:
    S11 = k2 FT<dD+ dD>(-Omega), S12 = -k2 FT<dD dD>(Omega),
    S21 = -k2 FT<dD+ dD+>(Omega), S22 = k2 FT<dD+ dD>(Omega). The reference
    reads only G, rho and qrt_spectrum, never the drift M or 2D."""
    pol, fg, fe = case
    scheme = LevelScheme(fg=fg, fe=fe)
    liou, steady, basis, out = run_pipeline(
        pol, rabi, detuning, B0, FORMS_GRID, scheme=scheme
    )
    reference = {}
    for comp in (1, 2):
        lo = basis.operator(scheme, comp)
        dg = lo.conj().T
        reference[comp] = KAPPA2 * np.array([
            regression_correlation(liou, steady, dg, lo, -FORMS_GRID),
            -regression_correlation(liou, steady, lo, lo, FORMS_GRID),
            -regression_correlation(liou, steady, dg, dg, FORMS_GRID),
            regression_correlation(liou, steady, dg, lo, FORMS_GRID),
        ])
    scale = np.abs(reference[1]).max()
    for comp in (1, 2):
        spectra = out.spectra[comp]  # the coherent input adds 1 to S11 only
        got = np.array([spectra.s11 - 1.0, spectra.s12, spectra.s21, spectra.s22])
        diff = np.abs(got - reference[comp]).max(axis=1)
        assert diff.max() <= 1e-8 * scale, (
            f"mode {comp}: max deviation of S11, S12, S21, S22 {diff} "
            f"vs scale {scale:.3e}"
        )


EVEN_GRID = np.concatenate((-QRT_GRID[::-1], QRT_GRID))


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from(DRIVE_CASES),
    rabi=st.floats(0.3, 5.0),
    detuning=st.floats(-1.5, 1.5),
    b0=st.floats(1e-3, 0.5),
    eps_a=st.floats(0.0, 3.0),
    eps_p=st.floats(0.0, 3.0),
)
@example(case=("linear", 1, 2), rabi=1.0, detuning=0.0, b0=B0,
         eps_a=0.0, eps_p=0.0)
# Known-red draw: rho's slow-pumping round-off (ROADMAP item 3) makes the
# orthogonal column odd past the bound here.
@example(case=("circular", 2, 3), rabi=0.3, detuning=1.5, b0=0.5,
         eps_a=0.0, eps_p=0.0)
def test_optical_spectrum_is_even_in_frequency(
    case, rabi, detuning, b0, eps_a, eps_p
):
    """Re S22 at -Omega equals Re S22 at +Omega, both modes, at any
    detuning, as for Mollow's two-level atom. `optical_spectrum` reads
    every grid point as computed, so this holds the kernel itself to the
    symmetry."""
    pol, fg, fe = case
    _, _, _, out = run_pipeline(
        pol, rabi, detuning, b0, EVEN_GRID, eps_a, eps_p,
        scheme=LevelScheme(fg=fg, fe=fe),
    )
    opt = [optical_spectrum(out.spectra[comp]) for comp in (1, 2)]
    scale = max(np.abs(values).max() for values in opt)
    for values in opt:
        assert np.abs(values - values[::-1]).max() <= 1e-10 * scale


# The weak-drive range of the contrast properties. Below Omega1 = 3e-3 or
# past |Delta| = 1 the steady state's slow-pumping error grows (ROADMAP
# items 3 and 13).
_WEAK_FG = st.sampled_from([1, Fraction(3, 2), 2, 3, 4])
_WEAK_RABI = st.floats(3e-3, 1e-2)
_WEAK_DETUNING = st.floats(-1.0, 1.0)


def _inelastic_to_elastic(fg, mode, rabi, detuning):
    """(<D+D> - |<D>|^2) / |<D>|^2 of the driven mode of the steady state on
    Fg -> Fg+1, and the saturation parameter s = 2 Omega1^2 / (1 + 4 Delta^2)."""
    scheme = LevelScheme(fg=fg, fe=fg + 1)
    rho = steady_state(build_generator(scheme, DriveConfig(mode, rabi, detuning)))
    d = mode.operator(scheme, 1)
    elastic = abs(np.trace(rho @ d)) ** 2
    total = np.trace(rho @ d.conj().T @ d).real
    return (total - elastic) / elastic, 2 * rabi**2 / (1 + 4 * detuning**2)


def _pumped_raman_ratio(scheme):
    """R_F = sum p c^4 / (sum p c^2)^2 - 1 over the pi-pumped ground state."""
    p, c2 = pumped_populations(scheme, 0)
    return np.sum(p * c2**2) / np.sum(p * c2) ** 2 - 1


@settings(max_examples=15, deadline=None)
@given(fg=_WEAK_FG, rabi=_WEAK_RABI, detuning=_WEAK_DETUNING)
def test_weak_linear_drive_keeps_the_pumped_raman_ratio(fg, rabi, detuning):
    """The paper's multilevel side: at weak linear drive each ground m
    scatters as a two-level atom with coupling c_m, so the driven mode keeps
    an inelastic part R_F = sum p c^4 / (sum p c^2)^2 - 1 however weak the
    drive, with p the optically pumped populations. The steady state holds
    it to within s (worst drawn 0.60 s)."""
    ratio, s = _inelastic_to_elastic(fg, PolarizationMode.LINEAR, rabi, detuning)
    assert abs(ratio - _pumped_raman_ratio(LevelScheme(fg=fg, fe=fg + 1))) <= s


@settings(max_examples=15, deadline=None)
@given(fg=_WEAK_FG, rabi=_WEAK_RABI, detuning=_WEAK_DETUNING)
@example(fg=4, rabi=3e-3, detuning=1.0)
def test_weak_circular_drive_scatters_as_a_two_level_atom(fg, rabi, detuning):
    """The two-level side: circular drive pumps F -> F+1 into the stretched
    pair, whose inelastic-to-elastic ratio is s, as for Mollow's atom; it
    vanishes with the drive. Held to 1e-2 relative; the pinned worst case
    of the range, 4.8e-3, is the steady state's slow-pumping error."""
    ratio, s = _inelastic_to_elastic(fg, PolarizationMode.CIRCULAR, rabi, detuning)
    assert abs(ratio / s - 1) <= 1e-2


@pytest.mark.parametrize("fg, ratio", [
    (1, 1 / 50), (Fraction(3, 2), 1 / 49), (2, 0.016314), (3, 0.0094585),
    (4, 0.0058715),
], ids=str)
def test_pumped_raman_ratio_values(fg, ratio):
    """R_F from the rate equations alone, against its values across F; the
    circular pumped state is the stretched sublevel, where R_F = 0."""
    scheme = LevelScheme(fg=fg, fe=fg + 1)
    assert _pumped_raman_ratio(scheme) == pytest.approx(ratio, rel=5e-5)
    stretched = np.zeros(scheme.n_ground)
    stretched[-1] = 1.0
    assert np.allclose(pumped_populations(scheme, 1)[0], stretched, atol=1e-12)


def test_raman_peak_width_scales_quadratically_with_drive():
    """Orthogonal-mode zero-frequency peak: HWHM ~ rabi^2, and it towers
    over the driven mode's spectrum at weak drive."""
    grid = np.logspace(-7, 0, 400)
    rabis = np.array([0.01, 0.02, 0.05, 0.1])
    widths = []
    for rabi in rabis:
        _, _, _, out = run_pipeline("linear", rabi, 0.0, B0, grid)
        orth = optical_spectrum(out.spectra[2])
        widths.append(zero_peak_half_width(grid, orth))
        if rabi == 0.1:
            driven = optical_spectrum(out.spectra[1])
            assert orth.max() > driven.max()
    exponent = np.polyfit(np.log(rabis), np.log(widths), 1)[0]
    assert abs(exponent - 2.0) <= 0.1, f"width exponent {exponent:.4f}"


def test_strong_linear_drive_multiplet_counts():
    """Two-sided optical spectrum at rabi = 5*gamma: the orthogonal mode
    shows four peaks, the driven mode five."""
    grid = np.linspace(-16.0, 16.0, 1600)  # even count, no zero sample
    _, _, _, out = run_pipeline("linear", 5.0, 0.0, B0, grid)
    orth = peak_census(grid, optical_spectrum(out.spectra[2]), prominence=0.01)
    assert len(orth) == 4, [p.position for p in orth]
    driven = peak_census(grid, optical_spectrum(out.spectra[1]), prominence=0.01)
    assert len(driven) == 5, (
        f"driven-mode census found {len(driven)} peaks at "
        f"{[round(p.position, 3) for p in driven]}. The two sideband "
        "families sit at sqrt(1/2) and sqrt(2/3) of the Rabi frequency; at "
        "rabi = 5*gamma they are ~0.55*gamma apart, below their radiative "
        "width, and blend into a single maximum per side. Distinct maxima "
        "only appear for rabi >~ 10*gamma, and a census at 1% prominence "
        "first reports five peaks near rabi ~ 20*gamma."
    )


def test_resonant_amplitude_squeezing_structure():
    """On resonance the effective two-level system squeezes the amplitude
    quadrature at intermediate drive; the multilevel system instead adds
    low-frequency excess noise in both modes."""
    grid = np.logspace(-4, 2, 121)
    minima = {}
    for rabi in (0.1, 0.3, 0.5, 5.0):
        _, _, _, out = run_pipeline("circular", rabi, 0.0, B0, grid)
        noise = amplitude_noise(out, 1)
        minima[rabi] = noise.min()
        if rabi == 5.0:
            # excess-noise peak near the Rabi sideband
            assert noise.max() > 1.0
            pos = grid[np.argmax(noise)]
            assert abs(pos - 5.0) <= 0.5
    assert minima[0.5] < 1.0
    assert minima[0.1] > minima[0.3] > minima[0.5]  # deepens with drive
    assert minima[5.0] >= minima[0.5]               # then recedes

    _, _, _, out = run_pipeline("linear", 0.1, 0.0, B0, grid)
    for comp in (1, 2):
        assert amplitude_noise(out, comp)[0] > 1.0005


def test_detuning_suppresses_squeezing_and_narrows_raman_peak():
    grid = np.logspace(-4, 2, 121)
    for rabi in (0.1, 0.3, 0.5, 1.0, 5.0):
        _, _, _, out = run_pipeline("circular", rabi, 1.0, B0, grid)
        assert amplitude_noise(out, 1).min() >= 1.0 - 1e-3

    fine = np.logspace(-5, 0, 241)
    widths = {}
    for det in (0.0, 1.0):
        _, _, _, out = run_pipeline("linear", 0.1, det, B0, fine)
        theta = amplitude_quadrature_angle(out.carrier[1])
        widths[det] = [
            zero_peak_half_width(
                fine, quadrature_noise(out.spectra[c], theta), baseline=1.0
            )
            for c in (1, 2)
        ]
    for hw_det, hw_res in zip(widths[1.0], widths[0.0]):
        assert hw_det < hw_res


def test_phase_noise_conversion_scales_with_optical_density():
    """Low-frequency amplitude noise grows linearly in b0 without laser
    phase noise, quadratically once conversion of strong phase noise
    dominates; the orthogonal mode never feels the phase noise."""
    b0s = np.logspace(-3, np.log10(0.5), 14)
    grid = np.array([1e-3, 2e-3])
    noise = {}
    for pol in ("circular", "linear"):
        for eps_p in (0.0, 10.0, 100.0):
            driven, orth = [], []
            for b0 in b0s:
                _, _, _, out = run_pipeline(
                    pol, 0.2, 1.0, b0, grid, eps_p=eps_p
                )
                driven.append(amplitude_noise(out, 1)[0])
                orth.append(amplitude_noise(out, 2)[0])
            noise[(pol, eps_p)] = (np.array(driven), np.array(orth))

    for pol in ("circular", "linear"):
        for eps_p in (0.0, 10.0, 100.0):
            assert (noise[(pol, eps_p)][0] > 1.0).all()
        head = np.polyfit(
            np.log(b0s[:5]), np.log(noise[(pol, 0.0)][0][:5] - 1.0), 1
        )[0]
        assert abs(head - 1.0) <= 0.1, f"{pol}: weak-conversion slope {head}"
        tail = np.polyfit(
            np.log(b0s[-5:]), np.log(noise[(pol, 100.0)][0][-5:] - 1.0), 1
        )[0]
        assert abs(tail - 2.0) <= 0.1, f"{pol}: conversion slope {tail}"

    for eps_p in (10.0, 100.0):
        dev = np.abs(
            noise[("linear", eps_p)][1] - noise[("linear", 0.0)][1]
        ).max()
        assert dev <= 1e-10


def test_invariant_suite():
    t0 = time.monotonic()

    # steady-state density matrices stay physical
    for pol in ("circular", "linear"):
        for det in (0.0, 1.0):
            for rabi in (0.1, 1.0, 5.0):
                basis = PolarizationMode(pol)
                liou = build_generator(
                    SCHEME, DriveConfig(basis=basis, rabi=rabi, detuning=det)
                )
                rho = steady_state(liou)
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.abs(rho - rho.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(rho).min() > -1e-10

    # circular drive confines the atom to the stretched pair
    basis = PolarizationMode("circular")
    liou = build_generator(SCHEME, DriveConfig(basis=basis, rabi=1.0))
    rho = steady_state(liou)
    g, e = sublevel(SCHEME, +1), sublevel(SCHEME, +2, excited=True)
    pair = rho[g, g].real + rho[e, e].real
    assert pair >= 1.0 - 1e-10

    # decay branches sum to the excited-state projector
    for fg, fe in [(1, 2), (0.5, 1.5), (1, 1), (2, 2), (2, 3)]:
        s = LevelScheme(fg=fg, fe=fe)
        total = sum(
            dipole_component(s, q).T @ dipole_component(s, q)
            for q in (-1, 0, 1)
        )
        expected = np.diag(
            [0.0] * s.n_ground + [1.0] * s.n_excited
        )
        assert np.abs(total - expected).max() < 1e-14

    # an empty sample is exactly transparent
    grid = np.logspace(-3, 1, 9)
    inp = excess_noise_input(0.5, 7.0)
    _, _, _, out = run_pipeline("linear", 1.0, 0.5, 0.0, grid,
                                eps_a=0.5, eps_p=7.0)
    for name in ("s11", "s12", "s21", "s22"):
        assert (getattr(out.spectra[1], name) == getattr(inp, name)).all()

    # quadrature noise is even in frequency on resonance (the optical
    # spectrum's evenness is test_optical_spectrum_is_even_in_frequency)
    sym = np.linspace(-8.0, 8.0, 400)
    _, _, _, out = run_pipeline("linear", 1.0, 0.0, B0, sym)
    for comp in (1, 2):
        qn = amplitude_noise(out, comp)
        assert np.allclose(qn, qn[::-1], rtol=1e-10, atol=1e-16)
        # quadrature noise comes out real and finite
        assert np.isrealobj(qn) and np.isfinite(qn).all()

    assert time.monotonic() - t0 < 60.0


def test_preset_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--preset", "fig5", "--out", str(out_a)]) == 0
    assert main(["run", "--preset", "fig5", "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
