"""End-to-end acceptance checks for the transmission-noise pipeline.

Each test exercises the full chain (level scheme -> steady state ->
diffusion -> propagation -> observables) against an independent reference
or a structural feature of the physics: oracle equivalence, Raman-peak
scaling, multiplet structure, squeezing systematics, phase-noise
conversion, invariants, and bit-level determinism of the CLI presets.
"""

import time

import numpy as np
import pytest

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
from zeenoise.analysis import peak_census, zero_peak_half_width
from zeenoise.angular import dipole_component
from zeenoise.oracles import mollow_spectrum, qrt_spectrum
from zeenoise.propagation import atomic_correlations
from zeenoise.cli import main

SCHEME = LevelScheme(fg=1, fe=2, gamma=1.0)
B0 = 0.1
KAPPA2 = 0.25 * B0 * SCHEME.gamma


def run_pipeline(pol, rabi, det, b0, grid, eps_a=0.0, eps_p=0.0):
    basis = PolarizationMode(pol)
    drive = DriveConfig(basis=basis, rabi=rabi, detuning=det)
    liou = build_generator(SCHEME, drive)
    steady = steady_state(liou)
    diff = diffusion_matrix(liou, steady)
    inp = excess_noise_input(eps_a, eps_p)
    out = propagate(
        inp, MediumParams(b0=b0), liou, steady, grid,
        atomic_correlations(liou, diff, grid),
    )
    return liou, steady, basis, out


def amplitude_noise(out, comp):
    theta = amplitude_quadrature_angle(out.carrier[1])
    return quadrature_noise(out.spectra[comp], theta).values


def test_circular_drive_reproduces_mollow_triplet():
    """Driven-mode optical spectrum == Mollow lineshape, sidebands at the
    Rabi frequency."""
    t0 = time.monotonic()
    grid = np.logspace(np.log10(1e-2), np.log10(20.0), 320)
    step = grid[1] / grid[0]
    for rabi in (0.1, 1.0, 5.0):
        _, _, _, out = run_pipeline("circular", rabi, 0.0, B0, grid)
        trace = optical_spectrum(out.spectra[1])
        model = KAPPA2 * mollow_spectrum(grid, rabi, 0.0, SCHEME.gamma)
        scale = float(np.dot(trace.values, model) / np.dot(model, model))
        rel = np.linalg.norm(trace.values - scale * model) / np.linalg.norm(
            trace.values
        )
        assert rel < 1e-6, f"rabi={rabi}: relative L2 mismatch {rel:.3e}"
        # sidebands (resolved only at strong drive) sit at the Rabi
        # frequency to within one multiplicative grid step
        peaks = peak_census(trace, prominence=0.001)
        for p in peaks:
            assert abs(np.log(p.position / rabi)) <= np.log(step)
        if rabi == 5.0:
            assert len(peaks) == 1
    assert time.monotonic() - t0 < 5.0


def test_fluctuation_spectra_match_regression_theorem():
    """Einstein-diffusion route == quantum-regression route, every drive
    geometry, detuning, and output mode."""
    t0 = time.monotonic()
    grid = np.logspace(np.log10(1e-2), np.log10(20.0), 50)
    for pol in ("circular", "linear"):
        for det in (0.0, 1.0):
            for rabi in (0.1, 1.0, 5.0):
                liou, steady, basis, out = run_pipeline(
                    pol, rabi, det, B0, grid
                )
                reference = {}
                for comp in (1, 2):
                    op = basis.operator(SCHEME, comp)
                    one_sided = qrt_spectrum(
                        liou, steady, op.conj().T, op, grid
                    )
                    reference[comp] = KAPPA2 * 2.0 * one_sided.real
                scale = max(np.abs(reference[c]).max() for c in (1, 2))
                for comp in (1, 2):
                    diff = np.abs(
                        out.atomic[comp].s22.real - reference[comp]
                    ).max()
                    assert diff <= 1e-8 * scale, (
                        f"{pol} det={det} rabi={rabi} mode {comp}: "
                        f"max deviation {diff:.3e} vs scale {scale:.3e}"
                    )
    assert time.monotonic() - t0 < 30.0


def test_raman_peak_width_scales_quadratically_with_drive():
    """Orthogonal-mode zero-frequency peak: HWHM ~ rabi^2, and it towers
    over the driven mode's spectrum at weak drive."""
    grid = np.logspace(-7, 0, 400)
    rabis = np.array([0.01, 0.02, 0.05, 0.1])
    widths = []
    for rabi in rabis:
        _, _, _, out = run_pipeline("linear", rabi, 0.0, B0, grid)
        orth = optical_spectrum(out.spectra[2])
        widths.append(zero_peak_half_width(orth))
        if rabi == 0.1:
            driven = optical_spectrum(out.spectra[1])
            assert orth.values.max() > driven.values.max()
    exponent = np.polyfit(np.log(rabis), np.log(widths), 1)[0]
    assert abs(exponent - 2.0) <= 0.1, f"width exponent {exponent:.4f}"


def test_strong_linear_drive_multiplet_counts():
    """Two-sided optical spectrum at rabi = 5*gamma: the orthogonal mode
    shows four peaks, the driven mode five."""
    grid = np.linspace(-16.0, 16.0, 1600)  # even count, no zero sample
    _, _, _, out = run_pipeline("linear", 5.0, 0.0, B0, grid)
    orth = peak_census(optical_spectrum(out.spectra[2]), prominence=0.01)
    assert len(orth) == 4, [p.position for p in orth]
    driven = peak_census(optical_spectrum(out.spectra[1]), prominence=0.01)
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
                quadrature_noise(out.spectra[c], theta), baseline=1.0
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
    pair = (
        rho[SCHEME.ground_index(+1), SCHEME.ground_index(+1)].real
        + rho[SCHEME.excited_index(+2), SCHEME.excited_index(+2)].real
    )
    assert pair >= 1.0 - 1e-10

    # decay branches sum to the excited-state projector
    for fg, fe in [(1, 2), (0.5, 1.5), (1, 1), (2, 2), (2, 3)]:
        s = LevelScheme(fg=fg, fe=fe, gamma=1.0)
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

    # spectra are even in frequency on resonance
    sym = np.linspace(-8.0, 8.0, 400)
    _, _, _, out = run_pipeline("linear", 1.0, 0.0, B0, sym)
    for comp in (1, 2):
        opt = optical_spectrum(out.spectra[comp]).values
        assert np.allclose(opt, opt[::-1], rtol=1e-10, atol=1e-16)
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
